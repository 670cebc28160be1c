//! Filter (Select): keep events whose payload satisfies a predicate
//! (paper §II-A.2, Fig 2). Stateless; lifetimes pass through unchanged.

use crate::compiled::CompiledExpr;
use crate::error::Result;
use crate::expr::Expr;
use crate::operators::group_apply::{Cut, Runs};
use crate::stream::EventStream;

/// Apply `predicate` to each event's payload, keeping matches. The
/// predicate is compiled once (indices resolved, no per-row name lookup).
/// A uniquely-owned input is retained in place — no clone of survivors;
/// shared storage is rebuilt by cloning only the survivors.
pub fn filter(input: EventStream, predicate: &Expr) -> Result<EventStream> {
    Ok(filter_runs(Runs::one(input), predicate, &mut Cut::none())?.stream)
}

/// [`filter`] over every run at once: one compile, one pass, and the run
/// bounds compact with the survivors.
pub(crate) fn filter_runs(input: Runs, predicate: &Expr, cut: &mut Cut) -> Result<Runs> {
    let compiled = CompiledExpr::compile(predicate, input.stream.schema());
    input.retain_map(cut, |e| {
        Ok(compiled.eval_predicate(&e.payload)?.then_some(e.lifetime))
    })
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
