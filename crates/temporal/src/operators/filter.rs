//! Filter (Select): keep events whose payload satisfies a predicate
//! (paper §II-A.2, Fig 2). Stateless; lifetimes pass through unchanged.

use crate::compiled::CompiledExpr;
use crate::error::Result;
use crate::expr::Expr;
use crate::stream::EventStream;

/// Apply `predicate` to each event's payload, keeping matches. The
/// predicate is compiled once (indices resolved, no per-row name lookup).
/// A uniquely-owned input is retained in place — no clone of survivors;
/// shared storage is rebuilt by cloning only the survivors.
pub fn filter(mut input: EventStream, predicate: &Expr) -> Result<EventStream> {
    let compiled = CompiledExpr::compile(predicate, input.schema());
    if !input.is_unique() {
        let schema = input.schema().clone();
        let mut events = Vec::with_capacity(input.len());
        for e in input.events() {
            if compiled.eval_predicate(&e.payload)? {
                events.push(e.clone());
            }
        }
        return Ok(EventStream::new(schema, events));
    }
    // `retain` cannot early-return, so capture the first evaluation error
    // and surface it afterwards; the kept-set before the error matches the
    // interpreted operator (which stops at the same row) because the whole
    // stream is discarded on error anyway.
    let mut first_err = None;
    input.events_mut().retain(|e| {
        if first_err.is_some() {
            return false;
        }
        match compiled.eval_predicate(&e.payload) {
            Ok(keep) => keep,
            Err(err) => {
                first_err = Some(err);
                false
            }
        }
    });
    match first_err {
        Some(err) => Err(err),
        None => Ok(input),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::expr::{col, lit};
    use relation::schema::{ColumnType, Field};
    use relation::{row, Schema};

    fn power_stream() -> EventStream {
        // The power-meter example of paper Fig 2.
        let schema = Schema::new(vec![Field::new("Power", ColumnType::Long)]);
        EventStream::new(
            schema,
            vec![
                Event::point(1, row![0i64]),
                Event::point(2, row![120i64]),
                Event::point(3, row![0i64]),
                Event::point(4, row![370i64]),
            ],
        )
    }

    #[test]
    fn keeps_matching_events_only() {
        let out = filter(power_stream(), &col("Power").gt(lit(0i64))).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out
            .events()
            .iter()
            .all(|e| e.payload.get(0).as_long().unwrap() > 0));
    }

    #[test]
    fn lifetimes_unchanged() {
        let out = filter(power_stream(), &col("Power").gt(lit(0i64))).unwrap();
        assert_eq!(out.events()[0].start(), 2);
        assert_eq!(out.events()[1].start(), 4);
        assert!(out.events().iter().all(|e| e.lifetime.is_point()));
    }

    #[test]
    fn empty_result_keeps_schema() {
        let out = filter(power_stream(), &col("Power").gt(lit(1_000i64))).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.schema(), power_stream().schema());
    }

    #[test]
    fn eval_errors_surface() {
        assert!(filter(power_stream(), &col("Nope").gt(lit(0i64))).is_err());
    }

    #[test]
    fn shared_input_is_left_untouched() {
        let original = power_stream();
        let out = filter(original.clone(), &col("Power").gt(lit(0i64))).unwrap();
        assert_eq!(original.len(), 4);
        assert_eq!(out.len(), 2);
    }
}
