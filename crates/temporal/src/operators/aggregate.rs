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
//! output is already in canonical form. Whenever the active set empties the
//! accumulators go back to their fresh state, so what a snapshot reports
//! depends only on the events alive in its own burst — aggregating a stream
//! equals concatenating the aggregates of its time-disjoint pieces, byte
//! for byte (paper §III-B temporal partitioning relies on it).
//!
//! There is one sweep ([`sweep_runs`]). Under a GroupApply it runs over
//! every group's run at once: arguments are compiled and evaluated in one
//! pass into one buffer, and one endpoint buffer is refilled, sorted and
//! swept run by run — a run boundary is just one more empty snapshot. Over a batch ([`aggregate_batch_runs`]) the runs are a
//! permutation of the batch's rows: arguments come off the columns and
//! lifetimes off the lifetime vectors, in run order. The top-level
//! operators (rows and columns) and the reference operator
//! ([`crate::operators::interpreted::aggregate`]) are its one-run case, so
//! they can only differ in how the per-event argument values are produced
//! — and those are value-identical. Its per-instant step
//! ([`Sweep::instant`]) is also the one the real-time session
//! ([`crate::rt`]) takes per group at each punctuation.

use crate::agg::{Accumulator, AggExpr};
use crate::batch::EventBatch;
use crate::compiled::CompiledExpr;
use crate::error::Result;
use crate::event::Event;
use crate::operators::group_apply::{run_of, Cut, Runs};
use crate::stream::EventStream;
use crate::time::{Lifetime, Time};
use relation::{ColumnBatch, Field, Row, Schema, Value};

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
    let bounds = [0, input.len()];
    Ok(aggregate_runs(input, &bounds, aggs, &mut Cut::none())?.stream)
}

/// Snapshot aggregates of every run of `input` (`bounds` as in [`Runs`]).
/// Each aggregate's argument is pre-evaluated for each event, through the
/// compiled (index-resolved) expressions, into one flat stride-`n_aggs`
/// buffer — no per-event allocation.
pub(crate) fn aggregate_runs(
    input: &EventStream,
    mut bounds: &[usize],
    aggs: &[(String, AggExpr)],
    cut: &mut Cut,
) -> Result<Runs> {
    let in_schema = input.schema();
    let out_schema = output_schema(aggs, in_schema)?;
    let compiled: Vec<_> = aggs.iter().map(|(_, a)| a.compile_arg(in_schema)).collect();
    let events = input.events();
    let mut arg_values: Vec<Value> = Vec::with_capacity(events.len() * aggs.len());
    'events: for (at, e) in events.iter().enumerate() {
        for c in &compiled {
            arg_values.push(match c {
                None => Value::Null,
                Some(c) => match c.eval(&e.payload) {
                    Ok(v) => v,
                    Err(err) => {
                        // Sweep the runs before the failing event's.
                        let run = run_of(bounds, at);
                        cut.fail(run, err)?;
                        bounds = &bounds[..=run];
                        break 'events;
                    }
                },
            });
        }
    }
    Ok(sweep_runs(
        bounds,
        |i| events[i].lifetime,
        aggs,
        &arg_values,
        out_schema,
    ))
}

/// Columnar entry: argument values come off the columns (a bare column is
/// read cell by cell, a computed argument through the batch kernels) and
/// the endpoint sweep reads the lifetime vectors directly. The batch is
/// never materialized as a stream, and the output is byte-identical to
/// [`aggregate`] on the equivalent rows.
pub fn aggregate_batch(input: &EventBatch, aggs: &[(String, AggExpr)]) -> Result<EventStream> {
    Ok(aggregate_batch_runs(input, None, &[0, input.len()], aggs)?.stream)
}

/// Snapshot aggregates of the rows of `input` that `rows` names (all of
/// them when `None`), taken in that order and cut into runs at `bounds` (as
/// in [`Runs`]): GroupApply's columnar path hands it its run-order
/// permutation, and [`aggregate_batch`] is its one-run case. Nothing is
/// gathered but the argument values.
pub(crate) fn aggregate_batch_runs(
    input: &EventBatch,
    rows: Option<&[u32]>,
    bounds: &[usize],
    aggs: &[(String, AggExpr)],
) -> Result<Runs> {
    let in_schema = input.schema();
    let out_schema = output_schema(aggs, in_schema)?;
    let compiled: Vec<_> = aggs.iter().map(|(_, a)| a.compile_arg(in_schema)).collect();
    let arg_values = batch_args(input.payload(), rows, &compiled)?;
    let (vt, ve) = (input.vt(), input.ve());
    Ok(sweep_runs(
        bounds,
        |i| {
            let row = rows.map_or(i, |r| r[i] as usize);
            Lifetime::new(vt[row], ve[row])
        },
        aggs,
        &arg_values,
        out_schema,
    ))
}

/// Each aggregate's argument (`compiled`, as [`AggExpr::compile_arg`] gives
/// it) for the rows of `payload` that `rows` names — all of them when
/// `None` — in that order, as one flat event-major buffer of stride
/// `compiled.len()`: what [`sweep_runs`] reads. A bare column is read
/// straight from its cells and a computed argument goes through the batch
/// kernels. If a kernel meets an error, every argument is evaluated again
/// by the scalar loop over one reusable scratch row, which fails where, and
/// with what, the row operator would.
pub(crate) fn batch_args(
    payload: &ColumnBatch,
    rows: Option<&[u32]>,
    compiled: &[Option<CompiledExpr>],
) -> Result<Vec<Value>> {
    let n = rows.map_or(payload.len(), <[u32]>::len);
    let row = |i: usize| rows.map_or(i, |r| r[i] as usize);
    let stride = compiled.len();
    let mut values = vec![Value::Null; n * stride];
    for (k, c) in compiled.iter().enumerate() {
        let Some(c) = c else { continue };
        let slots = values.iter_mut().skip(k).step_by(stride);
        match c.as_col() {
            Some(col) => {
                let col = payload.column(col);
                slots.enumerate().for_each(|(i, v)| *v = col.value(row(i)));
            }
            None => {
                let eval = c.eval_batch_raw_sel(payload, rows);
                if eval.first_err(n).is_some() {
                    return scalar_args(payload, n, row, compiled);
                }
                slots.enumerate().for_each(|(i, v)| *v = eval.value_at(i));
            }
        }
    }
    Ok(values)
}

/// [`batch_args`] one row at a time, through the scalar evaluator.
fn scalar_args(
    payload: &ColumnBatch,
    n: usize,
    row: impl Fn(usize) -> usize,
    compiled: &[Option<CompiledExpr>],
) -> Result<Vec<Value>> {
    let mut values = Vec::with_capacity(n * compiled.len());
    let mut scratch = Row::default();
    for i in 0..n {
        payload.row_into(row(i), &mut scratch);
        for c in compiled {
            values.push(match c {
                None => Value::Null,
                Some(c) => c.eval(&scratch)?,
            });
        }
    }
    Ok(values)
}

/// One group's sweep between two instants: the accumulators, how many
/// events are active, and the open segment. [`sweep_runs`] carries one
/// through every run of a batch; the real-time session ([`crate::rt`])
/// keeps one per live group across punctuations. Both advance it only
/// through [`Sweep::instant`], so the snapshot-aggregate semantics have one
/// definition.
#[derive(Debug, Clone)]
pub(crate) struct Sweep {
    accs: Vec<Accumulator>,
    active: i64,
    /// The open segment: its start and value.
    open: Option<(Time, Row)>,
}

impl Sweep {
    /// An empty active set with fresh accumulators.
    pub(crate) fn new(aggs: &[(String, AggExpr)]) -> Sweep {
        Sweep {
            accs: aggs.iter().map(|(_, a)| a.accumulator()).collect(),
            active: 0,
            open: None,
        }
    }

    /// The open segment (start, value); `None` exactly when no event is
    /// active.
    pub(crate) fn open(&self) -> Option<&(Time, Row)> {
        self.open.as_ref()
    }

    /// The per-instant step. Apply every endpoint at instant `t` — each an
    /// `(is_start, argument values)` pair, in `(is_start, event)` order, so
    /// ends before starts — then settle the snapshot from `t` on. Returns the
    /// segment this closes: the value changed, or the active set emptied.
    #[inline]
    pub(crate) fn instant<'a>(
        &mut self,
        t: Time,
        changes: impl IntoIterator<Item = (bool, &'a [Value])>,
    ) -> Option<Event> {
        for (is_start, args) in changes {
            for (acc, v) in self.accs.iter_mut().zip(args) {
                if is_start {
                    acc.add(v);
                } else {
                    acc.remove(v);
                }
            }
            self.active += if is_start { 1 } else { -1 };
        }
        let value = if self.active > 0 {
            Some(Row::new(self.accs.iter().map(|a| a.value()).collect()))
        } else {
            // The burst is over (every run ends this way): the next one
            // starts from fresh accumulators.
            self.accs.iter_mut().for_each(|a| a.reset());
            None
        };
        // Close the open segment if the value changed; coalescing is just
        // "don't close when equal".
        match (&mut self.open, value) {
            (Some((_, row)), Some(new_row)) if *row == new_row => None,
            (open, new_value) => {
                let closed = open
                    .take()
                    .map(|(start, row)| Event::new(Lifetime::new(start, t), row));
                *open = new_value.map(|row| (t, row));
                closed
            }
        }
    }
}

/// The endpoint sweep over pre-evaluated argument values (one flat buffer,
/// stride `aggs.len()`, event-major), run by run, reading lifetimes through
/// an accessor so row streams and column-major batches share it.
pub(crate) fn sweep_runs(
    bounds: &[usize],
    lifetime: impl Fn(usize) -> Lifetime,
    aggs: &[(String, AggExpr)],
    arg_values: &[Value],
    out_schema: Schema,
) -> Runs {
    let n_aggs = aggs.len();
    let mut sweep = Sweep::new(aggs);
    let mut out: Vec<Event> = Vec::new();
    let mut out_bounds = Vec::with_capacity(bounds.len());
    out_bounds.push(0);
    // One endpoint buffer, refilled run by run so a run's endpoints are
    // sorted and swept while they are still in cache: (time, is_start,
    // event index), in that order of precedence. Event indices fit in a
    // `u32`, as in every selection and permutation of the engine.
    debug_assert!(bounds[bounds.len() - 1] <= u32::MAX as usize);
    let mut endpoints: Vec<(Time, bool, u32)> = Vec::new();
    for run in bounds.windows(2) {
        endpoints.clear();
        for i in run[0]..run[1] {
            let lt = lifetime(i);
            endpoints.push((lt.start, true, i as u32));
            endpoints.push((lt.end, false, i as u32));
        }
        endpoints.sort_unstable();

        let mut idx = 0;
        while idx < endpoints.len() {
            let t = endpoints[idx].0;
            let at_t = endpoints[idx..].iter().take_while(|e| e.0 == t).count();
            let changes = endpoints[idx..idx + at_t].iter().map(|&(_, is_start, i)| {
                let i = i as usize;
                (is_start, &arg_values[i * n_aggs..(i + 1) * n_aggs])
            });
            out.extend(sweep.instant(t, changes));
            idx += at_t;
        }
        debug_assert!(sweep.open.is_none(), "sweep ended with an open segment");
        out_bounds.push(out.len());
    }

    Runs {
        stream: EventStream::new(out_schema, out),
        bounds: out_bounds,
    }
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
    fn no_residue_crosses_an_empty_snapshot() {
        // 0.65 + 0.79 - 0.65 - 0.79 leaves 1.1e-16 in a running f64 sum; the
        // later, unrelated burst must still report exactly its own 0.09 —
        // what a run that starts at t = 5 reports.
        let schema = Schema::new(vec![Field::new("X", ColumnType::Double)]);
        let events = vec![
            Event::interval(0, 1, row![0.65f64]),
            Event::interval(0, 1, row![0.79f64]),
            Event::interval(5, 6, row![0.09f64]),
        ];
        let aggs = vec![
            ("S".to_string(), AggExpr::Sum(col("X"))),
            ("A".to_string(), AggExpr::Avg(col("X"))),
            ("D".to_string(), AggExpr::StdDev(col("X"))),
        ];
        let whole = aggregate(&EventStream::new(schema.clone(), events.clone()), &aggs).unwrap();
        let late = aggregate(&EventStream::new(schema, events[2..].to_vec()), &aggs).unwrap();
        assert_eq!(
            whole.events()[1],
            Event::interval(5, 6, row![0.09f64, 0.09f64, 0.0f64])
        );
        assert_eq!(whole.events()[1..], *late.events());
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
