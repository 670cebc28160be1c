//! Snapshot aggregation (paper §II-A.2).
//!
//! An aggregation operator "computes and reports an aggregate result each
//! time the active event set changes (i.e., every snapshot)". The
//! implementation is a single endpoint sweep: event lifetimes contribute a
//! `+payload` at `LE` and a `-payload` at `RE`; between consecutive distinct
//! endpoints the active set is constant, so one output event covers the whole
//! segment. Accumulators are retractable ([`crate::agg::Accumulator`]), so
//! the sweep is `O(n log n)` regardless of window size — this is the
//! engine-level efficiency the paper contrasts with hand-written reducers.
//!
//! Segments with an empty active set produce no output, and adjacent
//! segments with equal aggregate values are coalesced, so the operator
//! output is already in canonical form.
//!
//! Aggregate arguments are compiled once against the input schema
//! ([`crate::agg::AggExpr::compile_arg`]); the sweep itself is shared with
//! the reference operator, so the two can only differ in how the
//! per-event argument values are produced — and those are value-identical.

use crate::agg::AggExpr;
use crate::batch::EventBatch;
use crate::error::Result;
use crate::event::Event;
use crate::stream::EventStream;
use crate::time::{Lifetime, Time};
use relation::{Field, Row, Schema, Value};

fn output_schema(aggs: &[(String, AggExpr)], in_schema: &Schema) -> Result<Schema> {
    Ok(Schema::new(
        aggs.iter()
            .map(|(name, a)| Ok(Field::new(name.clone(), a.infer_type(in_schema)?)))
            .collect::<Result<Vec<_>>>()?,
    ))
}

/// Compute snapshot aggregates over the whole stream (grouping is provided
/// by GroupApply above this operator).
pub fn aggregate(input: &EventStream, aggs: &[(String, AggExpr)]) -> Result<EventStream> {
    let in_schema = input.schema();
    let out_schema = output_schema(aggs, in_schema)?;

    if input.is_empty() {
        return Ok(EventStream::empty(out_schema));
    }

    // Pre-evaluate each aggregate's argument for each event, through the
    // compiled (index-resolved) expressions, into one flat stride-`n_aggs`
    // buffer — no per-event allocation.
    let compiled: Vec<_> = aggs.iter().map(|(_, a)| a.compile_arg(in_schema)).collect();
    let mut arg_values: Vec<Value> = Vec::with_capacity(input.len() * aggs.len());
    for e in input.events() {
        for c in &compiled {
            arg_values.push(match c {
                None => Value::Null,
                Some(c) => c.eval(&e.payload)?,
            });
        }
    }
    sweep(input, aggs, &arg_values, out_schema)
}

/// Columnar entry: argument values come off the batch through a
/// row-fallback loop over **one reusable scratch row**
/// ([`EventBatch::payload_row_into`] — same scalar evaluation, no
/// per-event `Row` allocation), and the endpoint sweep reads the lifetime
/// vectors directly. The batch is never materialized as a stream, and the
/// output is byte-identical to [`aggregate`] on the equivalent rows.
pub fn aggregate_batch(input: &EventBatch, aggs: &[(String, AggExpr)]) -> Result<EventStream> {
    let in_schema = input.schema();
    let out_schema = output_schema(aggs, in_schema)?;

    if input.is_empty() {
        return Ok(EventStream::empty(out_schema));
    }

    let compiled: Vec<_> = aggs.iter().map(|(_, a)| a.compile_arg(in_schema)).collect();
    let mut arg_values: Vec<Value> = Vec::with_capacity(input.len() * aggs.len());
    let mut scratch = Row::default();
    for i in 0..input.len() {
        input.payload_row_into(i, &mut scratch);
        for c in &compiled {
            arg_values.push(match c {
                None => Value::Null,
                Some(c) => c.eval(&scratch)?,
            });
        }
    }
    let (vt, ve) = (input.vt(), input.ve());
    sweep_times(
        input.len(),
        |i| Lifetime::new(vt[i], ve[i]),
        aggs,
        &arg_values,
        out_schema,
    )
}

/// The endpoint sweep over pre-evaluated argument values (one flat buffer,
/// stride `aggs.len()`, event-major). Shared by the compiled operator
/// above and the reference operator.
pub(crate) fn sweep(
    input: &EventStream,
    aggs: &[(String, AggExpr)],
    arg_values: &[Value],
    out_schema: Schema,
) -> Result<EventStream> {
    let events = input.events();
    sweep_times(
        input.len(),
        |i| events[i].lifetime,
        aggs,
        arg_values,
        out_schema,
    )
}

/// The sweep proper, reading lifetimes through an accessor so row streams
/// and column-major batches share one implementation.
fn sweep_times(
    n: usize,
    lifetime: impl Fn(usize) -> Lifetime,
    aggs: &[(String, AggExpr)],
    arg_values: &[Value],
    out_schema: Schema,
) -> Result<EventStream> {
    // Endpoint sweep: (time, event index, is_start).
    let mut endpoints: Vec<(Time, usize, bool)> = Vec::with_capacity(n * 2);
    for i in 0..n {
        let lt = lifetime(i);
        endpoints.push((lt.start, i, true));
        endpoints.push((lt.end, i, false));
    }
    endpoints.sort_unstable_by_key(|&(t, i, is_start)| (t, is_start, i));

    let n_aggs = aggs.len();
    let mut accs: Vec<_> = aggs.iter().map(|(_, a)| a.accumulator()).collect();
    let mut active: i64 = 0;
    let mut out: Vec<Event> = Vec::new();
    let mut pending: Option<(Time, Row)> = None; // open segment start + value

    let mut idx = 0;
    while idx < endpoints.len() {
        let t = endpoints[idx].0;
        // Apply every change at instant t before emitting.
        while idx < endpoints.len() && endpoints[idx].0 == t {
            let (_, i, is_start) = endpoints[idx];
            for (acc, v) in accs
                .iter_mut()
                .zip(&arg_values[i * n_aggs..(i + 1) * n_aggs])
            {
                if is_start {
                    acc.add(v);
                } else {
                    acc.remove(v);
                }
            }
            active += if is_start { 1 } else { -1 };
            idx += 1;
        }
        let value = if active > 0 {
            Some(Row::new(accs.iter().map(|a| a.value()).collect()))
        } else {
            None
        };
        // Close the previous segment if the value changed; coalescing is
        // just "don't close when equal".
        match (&mut pending, value) {
            (Some((start, row)), Some(new_row)) if *row == new_row => {
                let _ = start; // same value: keep the segment open
            }
            (p, new_value) => {
                if let Some((start, row)) = p.take() {
                    out.push(Event::new(Lifetime::new(start, t), row));
                }
                *p = new_value.map(|row| (t, row));
            }
        }
    }
    debug_assert!(pending.is_none(), "sweep ended with an open segment");

    Ok(EventStream::new(out_schema, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::col;
    use crate::operators::alter_lifetime;
    use crate::plan::LifetimeOp;
    use relation::row;
    use relation::schema::ColumnType;

    fn schema() -> Schema {
        Schema::new(vec![Field::new("Power", ColumnType::Long)])
    }

    fn count_of(input: &EventStream) -> EventStream {
        aggregate(input, &[("N".to_string(), AggExpr::Count)]).unwrap()
    }

    #[test]
    fn batch_entry_is_byte_identical_to_rows() {
        let input = EventStream::new(
            schema(),
            vec![
                Event::interval(0, 10, row![5i64]),
                Event::interval(3, 7, row![2i64]),
                Event::point(3, row![1i64]),
            ],
        );
        let aggs = vec![
            ("N".to_string(), AggExpr::Count),
            ("S".to_string(), AggExpr::Sum(col("Power"))),
        ];
        let rows = aggregate(&input, &aggs).unwrap();
        let batch = EventBatch::from_stream(&input).unwrap();
        let cols = aggregate_batch(&batch, &aggs).unwrap();
        assert_eq!(rows, cols);
    }

    #[test]
    fn batch_entry_surfaces_the_same_error() {
        let input = EventStream::new(schema(), vec![Event::point(0, row![5i64])]);
        let aggs = vec![("S".to_string(), AggExpr::Sum(col("Nope")))];
        let batch = EventBatch::from_stream(&input).unwrap();
        assert_eq!(
            aggregate(&input, &aggs).unwrap_err().to_string(),
            aggregate_batch(&batch, &aggs).unwrap_err().to_string()
        );
    }

    #[test]
    fn windowed_count_matches_paper_fig3() {
        // Paper Figs 2-3: non-zero readings at t=2 and t=4, window w=3.
        // Count over the last 3 seconds: 1 on [2,4), 2 on [4,5), 1 on [5,7).
        let input = EventStream::new(
            schema(),
            vec![Event::point(2, row![120i64]), Event::point(4, row![370i64])],
        );
        let windowed = alter_lifetime(input, &LifetimeOp::Window(3)).unwrap();
        let out = count_of(&windowed);
        assert_eq!(
            out.events(),
            &[
                Event::interval(2, 4, row![1i64]),
                Event::interval(4, 5, row![2i64]),
                Event::interval(5, 7, row![1i64]),
            ]
        );
    }

    #[test]
    fn empty_snapshots_emit_nothing() {
        let input = EventStream::new(
            schema(),
            vec![
                Event::interval(0, 2, row![1i64]),
                Event::interval(10, 12, row![2i64]),
            ],
        );
        let out = count_of(&input);
        assert_eq!(
            out.events(),
            &[
                Event::interval(0, 2, row![1i64]),
                Event::interval(10, 12, row![1i64]),
            ]
        );
    }

    #[test]
    fn equal_adjacent_values_coalesce() {
        // Two touching events: count stays 1 across the boundary, so the
        // output is a single coalesced interval.
        let input = EventStream::new(
            schema(),
            vec![
                Event::interval(0, 5, row![1i64]),
                Event::interval(5, 9, row![2i64]),
            ],
        );
        let out = count_of(&input);
        assert_eq!(out.events(), &[Event::interval(0, 9, row![1i64])]);
    }

    #[test]
    fn multiple_aggregates_in_one_pass() {
        let input = EventStream::new(
            schema(),
            vec![
                Event::interval(0, 10, row![5i64]),
                Event::interval(3, 6, row![1i64]),
            ],
        );
        let out = aggregate(
            &input,
            &[
                ("N".to_string(), AggExpr::Count),
                ("S".to_string(), AggExpr::Sum(col("Power"))),
                ("Mn".to_string(), AggExpr::Min(col("Power"))),
                ("Av".to_string(), AggExpr::Avg(col("Power"))),
            ],
        )
        .unwrap();
        assert_eq!(
            out.events(),
            &[
                Event::interval(0, 3, row![1i64, 5i64, 5i64, 5.0f64]),
                Event::interval(3, 6, row![2i64, 6i64, 1i64, 3.0f64]),
                Event::interval(6, 10, row![1i64, 5i64, 5i64, 5.0f64]),
            ]
        );
    }

    #[test]
    fn result_is_physical_order_insensitive() {
        let a = EventStream::new(
            schema(),
            vec![
                Event::interval(0, 4, row![1i64]),
                Event::interval(2, 6, row![2i64]),
            ],
        );
        let b = EventStream::new(
            schema(),
            vec![
                Event::interval(2, 6, row![2i64]),
                Event::interval(0, 4, row![1i64]),
            ],
        );
        assert!(count_of(&a).same_relation(&count_of(&b)));
    }

    #[test]
    fn empty_input_empty_output() {
        let out = count_of(&EventStream::empty(schema()));
        assert!(out.is_empty());
        assert_eq!(out.schema().names(), vec!["N"]);
    }
}
