//! Snapshot aggregation (paper §II-A.2).
//!
//! An aggregation operator "computes and reports an aggregate result each
//! time the active event set changes (i.e., every snapshot)". The
//! implementation is a single endpoint sweep: event lifetimes contribute a
//! `+payload` at `LE` and a `-payload` at `RE`; between consecutive distinct
//! endpoints the active set is constant, so one output event covers the whole
//! segment. Accumulators are retractable ([`crate::agg::Accumulator`]), so
//! the sweep is `O(n log n)` regardless of window size — this is the
//! engine-level efficiency the paper contrasts with hand-written reducers —
//! and `O(n)` over events in time order under a fixed-width window, whose
//! starts and ends are two sorted sequences to merge ([`endpoints_of`]).
//!
//! Segments with an empty active set produce no output, and adjacent
//! segments with equal aggregate values are coalesced, so the operator
//! output is already in canonical form. Whenever the active set empties the
//! accumulators go back to their fresh state, so what a snapshot reports
//! depends only on the events alive in its own burst — aggregating a stream
//! equals concatenating the aggregates of its time-disjoint pieces, byte
//! for byte (paper §III-B temporal partitioning relies on it).
//!
//! There is one sweep ([`sweep_runs`]), over every run of its input at
//! once ([`aggregate_batch_runs`]): under a GroupApply the runs are a
//! permutation of the batch's rows, one per group, and at the top level
//! one run of a dense batch. Each aggregate's argument is one typed column
//! in run order ([`batch_args`]; a dense batch's column is read in place),
//! lifetimes come off the lifetime vectors, and one endpoint buffer is
//! refilled, ordered and swept run by run — a run boundary is just one
//! more empty snapshot. The segments are written straight into columns.
//! Its per-instant step ([`Sweep::instant`]) is also
//! the one the real-time session ([`crate::rt`]) takes per group at each
//! punctuation; it is generic over where an event's arguments live
//! ([`EventArgs`]): here, a typed column's cells, read as
//! [`crate::agg::Cell`]s, so no `Value` is built per event; in the
//! session, the values it retains.

use crate::agg::{Accumulator, AggExpr, Cell};
use crate::batch::EventBatch;
use crate::compiled::{BatchEval, CompiledExpr};
use crate::error::{Result, TemporalError};
use crate::exec::ExecStats;
use crate::operators::group_apply::{BatchRuns, Cut};
use crate::time::{Lifetime, Time};
use relation::column::ColumnBuilder;
use relation::{ColumnBatch, Field, Schema, Value};

fn output_schema(aggs: &[(String, AggExpr)], in_schema: &Schema) -> Result<Schema> {
    Ok(Schema::new(
        aggs.iter()
            .map(|(name, a)| Ok(Field::new(name.clone(), a.infer_type(in_schema)?)))
            .collect::<Result<Vec<_>>>()?,
    ))
}

/// Snapshot aggregates of every run of `input`: the sweep reads the
/// arguments and lifetimes through the permutation and writes a batch in
/// run order — the lifetimes and one typed column per aggregate, no `Row`
/// per output. A snapshot with no value (an integer SUM past `i64`) cuts
/// its run in `cut`, and the runs below it stand.
pub(crate) fn aggregate_batch_runs(
    input: &BatchRuns,
    aggs: &[(String, AggExpr)],
    cut: &mut Cut,
    stats: &mut ExecStats,
) -> Result<BatchRuns> {
    let (batch, bounds) = sweep_batch(
        &input.batch,
        input.perm.as_deref(),
        &input.bounds,
        aggs,
        cut,
        stats,
    )?;
    Ok(BatchRuns::in_order(batch, bounds))
}

/// The sweep over the rows of `input` that `rows` names (all of them when
/// `None`), taken in that order and cut into runs at `bounds` (positions of
/// `rows`): each aggregate's argument evaluated once per event, then
/// [`sweep_runs`], its sorted runs counted in `stats`, with each segment
/// written into columns. Returns the batch and its run bounds. Nothing is
/// gathered but the arguments.
fn sweep_batch(
    input: &EventBatch,
    rows: Option<&[u32]>,
    bounds: &[usize],
    aggs: &[(String, AggExpr)],
    cut: &mut Cut,
    stats: &mut ExecStats,
) -> Result<(EventBatch, Vec<usize>)> {
    let in_schema = input.schema();
    let schema = output_schema(aggs, in_schema)?;
    let compiled = (aggs.iter())
        .map(|(_, a)| a.compile_arg(in_schema))
        .collect::<Result<Vec<_>>>()?;
    let args = batch_args(input.payload(), rows, &compiled);
    let sweep = Sweep::new(aggs, in_schema)?;
    let (vt, ve) = (input.vt(), input.ve());
    let lifetime = |i: usize| {
        let row = rows.map_or(i, |r| r[i] as usize);
        Lifetime::new(vt[row], ve[row])
    };
    let mut columns: Vec<ColumnBuilder> = (schema.fields().iter())
        .map(|f| ColumnBuilder::new(f, 0))
        .collect();
    let (mut out_vt, mut out_ve) = (Vec::new(), Vec::new());
    let mut out_bounds = vec![0; bounds.len()];
    let (sorted_runs, overflow) =
        sweep_runs(sweep, bounds, lifetime, aggs, &args, |run, lt, value| {
            out_vt.push(lt.start);
            out_ve.push(lt.end);
            out_bounds[run + 1] = out_vt.len();
            for (c, v) in columns.iter_mut().zip(value) {
                c.push(v).expect("a value of its declared type");
            }
        });
    stats.sorted_runs += sorted_runs;
    fill_empty_runs(&mut out_bounds);
    let columns = columns.into_iter().map(ColumnBuilder::finish).collect();
    let mut payload = ColumnBatch::new(schema, columns, out_vt.len());
    if let Some((run, err)) = overflow {
        // The runs below the overflowing one stand.
        cut.fail(run, err)?;
        out_bounds.truncate(run + 1);
        let kept = out_bounds[run];
        out_vt.truncate(kept);
        out_ve.truncate(kept);
        payload.compact(&(0..kept as u32).collect::<Vec<_>>());
    }
    Ok((EventBatch::new(out_vt, out_ve, payload), out_bounds))
}

/// Bounds set only where a run emitted: a run with no output ends where the
/// run before it did.
fn fill_empty_runs(bounds: &mut [usize]) {
    for r in 1..bounds.len() {
        bounds[r] = bounds[r].max(bounds[r - 1]);
    }
}

/// Each aggregate's argument (`compiled`, as [`AggExpr::compile_arg`] gives
/// it) for the rows of `payload` that `rows` names — all of them when
/// `None` — in that order: one typed column per aggregate (`None` for
/// COUNT), what [`sweep_runs`] reads. A bare column is gathered through
/// `rows`; a computed argument comes from the batch kernels.
pub(crate) fn batch_args<'a>(
    payload: &'a ColumnBatch,
    rows: Option<&[u32]>,
    compiled: &[Option<CompiledExpr>],
) -> Vec<Option<BatchEval<'a>>> {
    (compiled.iter())
        .map(|c| Some(c.as_ref()?.eval_batch_sel(payload, rows)))
        .collect()
}

/// Where the sweep reads an event's arguments, one per aggregate: the
/// batch sweep's typed columns ([`batch_args`]) at the event's position,
/// or the values a real-time session retains for it.
pub(crate) trait EventArgs {
    /// The argument to aggregate `k` (COUNT reads none).
    fn arg(&self, k: usize) -> Cell<'_>;
}

impl EventArgs for &[Value] {
    #[inline]
    fn arg(&self, k: usize) -> Cell<'_> {
        Cell::of(&self[k])
    }
}

/// Event `.1` of the typed argument columns `.0`.
struct At<'a>(&'a [Option<BatchEval<'a>>], usize);

impl EventArgs for At<'_> {
    #[inline]
    fn arg(&self, k: usize) -> Cell<'_> {
        self.0[k]
            .as_ref()
            .map_or(Cell::Null, |column| column.cell(self.1))
    }
}

/// One group's sweep between two instants: the accumulators, how many
/// events are active, and the open segment. [`sweep_runs`] carries one
/// through every run of a batch; the real-time session ([`crate::rt`])
/// keeps one per live group across punctuations. Both advance it only
/// through [`Sweep::instant`], so the snapshot-aggregate semantics have one
/// definition. The open segment's value and the next snapshot's are two
/// reused buffers, so an instant allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct Sweep {
    accs: Vec<Accumulator>,
    active: i64,
    /// The open segment's start; its value is `value`.
    open: Option<Time>,
    value: Vec<Value>,
    /// The snapshot just taken, and after a segment closes, its value.
    next: Vec<Value>,
}

impl Sweep {
    /// An empty active set with fresh accumulators for `aggs` over input
    /// `schema`.
    pub(crate) fn new(aggs: &[(String, AggExpr)], schema: &Schema) -> Result<Sweep> {
        Ok(Sweep {
            accs: (aggs.iter())
                .map(|(_, a)| a.accumulator(schema))
                .collect::<Result<_>>()?,
            active: 0,
            open: None,
            value: Vec::with_capacity(aggs.len()),
            next: Vec::with_capacity(aggs.len()),
        })
    }

    /// The open segment (start, value); `None` exactly when no event is
    /// active.
    pub(crate) fn open(&self) -> Option<(Time, &[Value])> {
        self.open.map(|start| (start, &self.value[..]))
    }

    /// The per-instant step. Apply every endpoint at instant `t` — each an
    /// `(is_start, event arguments)` pair, in `(is_start, event)` order, so
    /// ends before starts — then settle the snapshot from `t` on. Returns the
    /// segment this closes, with its value: the value changed, or the active
    /// set emptied. A snapshot that has no value — an integer SUM of `aggs`
    /// (the aggregates the sweep was built for) past `i64` — is the first
    /// such aggregate's [`AggExpr::overflow`] error, and the sweep is done.
    #[inline]
    pub(crate) fn instant<A: EventArgs>(
        &mut self,
        t: Time,
        changes: impl IntoIterator<Item = (bool, A)>,
        aggs: &[(String, AggExpr)],
    ) -> Result<Option<(Lifetime, &[Value])>> {
        for (is_start, args) in changes {
            for (k, acc) in self.accs.iter_mut().enumerate() {
                if is_start {
                    acc.add(args.arg(k));
                } else {
                    acc.remove(args.arg(k));
                }
            }
            self.active += if is_start { 1 } else { -1 };
        }
        let active = self.active > 0;
        self.next.clear();
        if active {
            for (acc, (name, _)) in self.accs.iter().zip(aggs) {
                let value = acc.value().ok_or_else(|| AggExpr::overflow(name, t))?;
                self.next.push(value);
            }
        } else {
            // The burst is over (every run ends this way): the next one
            // starts from fresh accumulators.
            self.accs.iter_mut().for_each(|a| a.reset());
        }
        // Close the open segment if the value changed; coalescing is just
        // "don't close when equal".
        if active && self.open.is_some() && self.value == self.next {
            return Ok(None);
        }
        std::mem::swap(&mut self.value, &mut self.next);
        let closed = std::mem::replace(&mut self.open, active.then_some(t));
        Ok(closed.map(|start| (Lifetime::new(start, t), &self.next[..])))
    }
}

/// The endpoint sweep `sweep` over pre-evaluated arguments (one typed
/// column per aggregate, [`batch_args`], in event order), run by run, reading
/// lifetimes through an accessor (a batch's lifetime vectors, through a
/// permutation). Each output segment goes to `emit` as `(run, lifetime,
/// value)`, in run order and, inside a run, in time order. Returns how
/// many runs had to be
/// sorted ([`ExecStats::sorted_runs`]): a run whose starts and ends are
/// both non-decreasing — a run in time order under a fixed-width window —
/// is merged instead ([`endpoints_of`]). A snapshot with no value ends the
/// sweep in its run: that run and its error come back beside the count,
/// and what the run emitted before it is not part of the output.
fn sweep_runs(
    mut sweep: Sweep,
    bounds: &[usize],
    lifetime: impl Fn(usize) -> Lifetime,
    aggs: &[(String, AggExpr)],
    args: &[Option<BatchEval<'_>>],
    mut emit: impl FnMut(usize, Lifetime, &[Value]),
) -> (u64, Option<(usize, TemporalError)>) {
    // One lifetime and one endpoint buffer, refilled run by run so a run's
    // endpoints are ordered and swept while they are still in cache.
    debug_assert!(bounds[bounds.len() - 1] <= u32::MAX as usize);
    let (mut lifetimes, mut endpoints) = (Vec::new(), Vec::new());
    let mut sorted_runs = 0;
    for (r, run) in bounds.windows(2).enumerate() {
        lifetimes.clear();
        lifetimes.extend((run[0]..run[1]).map(&lifetime));
        if !endpoints_of(run[0], &lifetimes, &mut endpoints) {
            sorted_runs += 1;
        }

        let mut idx = 0;
        while idx < endpoints.len() {
            let t = endpoints[idx].0;
            let at_t = endpoints[idx..].iter().take_while(|e| e.0 == t).count();
            let changes = (endpoints[idx..idx + at_t].iter())
                .map(|&(_, is_start, i)| (is_start, At(args, i as usize)));
            match sweep.instant(t, changes, aggs) {
                Ok(Some((lifetime, value))) => emit(r, lifetime, value),
                Ok(None) => {}
                Err(err) => return (sorted_runs, Some((r, err))),
            }
            idx += at_t;
        }
        debug_assert!(sweep.open.is_none(), "sweep ended with an open segment");
    }
    (sorted_runs, None)
}

/// Refill `endpoints` with the endpoints of the events `first..` whose
/// lifetimes are `lifetimes`, as `(time, is_start, event index)` in that
/// order of precedence — ends before starts at one instant. Event indices
/// fit in a `u32`, as in every selection and permutation of the engine.
///
/// When starts and ends are each non-decreasing in event order, each is
/// already a sorted sequence (ties go to the lower index, which comes
/// first), and one merge of the two gives the order a sort would: no two
/// endpoints compare equal, since a start and an end differ in `is_start`.
/// Otherwise the endpoints are sorted. Returns whether they were merged.
fn endpoints_of(
    first: usize,
    lifetimes: &[Lifetime],
    endpoints: &mut Vec<(Time, bool, u32)>,
) -> bool {
    endpoints.clear();
    let index = |k: usize| (first + k) as u32;
    let ordered = (lifetimes.windows(2)).all(|w| w[0].start <= w[1].start && w[0].end <= w[1].end);
    if !ordered {
        for (k, lt) in lifetimes.iter().enumerate() {
            endpoints.push((lt.start, true, index(k)));
            endpoints.push((lt.end, false, index(k)));
        }
        endpoints.sort_unstable();
        return false;
    }
    let n = lifetimes.len();
    endpoints.reserve(2 * n);
    let (mut s, mut e) = (0, 0);
    while e < n {
        // An end at the same instant as a start goes first.
        if s < n && lifetimes[s].start < lifetimes[e].end {
            endpoints.push((lifetimes[s].start, true, index(s)));
            s += 1;
        } else {
            endpoints.push((lifetimes[e].end, false, index(e)));
            e += 1;
        }
    }
    endpoints.extend((s..n).map(|k| (lifetimes[k].start, true, index(k))));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::expr::{col, lit};
    use crate::stream::EventStream;
    use relation::row;
    use relation::schema::ColumnType;

    /// [`aggregate_batch_runs`] over one dense run, as the top level runs
    /// it.
    fn aggregate(input: EventBatch, aggs: &[(String, AggExpr)]) -> Result<EventBatch> {
        let input = BatchRuns::one(input);
        let mut stats = ExecStats::default();
        let out = aggregate_batch_runs(&input, aggs, &mut Cut::none(), &mut stats)?;
        assert!(out.perm.is_none(), "a sweep writes its output in run order");
        Ok(out.into_ordered())
    }

    /// [`aggregate`] over a row stream, back as rows.
    fn aggregate_rows(input: &EventStream, aggs: &[(String, AggExpr)]) -> Result<EventStream> {
        let input = EventBatch::from_stream(input).unwrap();
        Ok(aggregate(input, aggs)?.into_stream())
    }

    fn schema() -> Schema {
        Schema::new(vec![Field::new("Power", ColumnType::Long)])
    }

    fn count_of(input: &EventStream) -> EventStream {
        aggregate_rows(input, &[("N".to_string(), AggExpr::Count)]).unwrap()
    }

    /// An argument with no type is refused before any event is read, over
    /// an empty input too.
    #[test]
    fn an_argument_with_no_type_is_refused() {
        for aggs in [
            vec![("S".to_string(), AggExpr::Sum(col("Nope")))],
            vec![(
                "D".to_string(),
                AggExpr::CountDistinct(col("Nope").add(lit("x"))),
            )],
        ] {
            for events in [vec![], vec![Event::point(0, row![5i64])]] {
                let input = EventStream::new(schema(), events);
                let err = aggregate_rows(&input, &aggs).unwrap_err();
                assert_eq!(err.to_string(), "unknown column `Nope`");
            }
        }
    }

    #[test]
    fn windowed_count_matches_paper_fig3() {
        // Paper Figs 2-3: non-zero readings at t=2 and t=4, window w=3.
        // Count over the last 3 seconds: 1 on [2,4), 2 on [4,5), 1 on [5,7).
        let windowed = EventStream::new(
            schema(),
            vec![
                Event::interval(2, 5, row![120i64]),
                Event::interval(4, 7, row![370i64]),
            ],
        );
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
        let whole =
            aggregate_rows(&EventStream::new(schema.clone(), events.clone()), &aggs).unwrap();
        let late = aggregate_rows(&EventStream::new(schema, events[2..].to_vec()), &aggs).unwrap();
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
        let out = aggregate_rows(
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

    /// A run of lifetimes built to collide: starts drawn near both `i64`
    /// extremes and near zero, so events share starts, one event's end
    /// meets another's start, and lengths reach across the whole range.
    /// `shape` 0 leaves the run as drawn, 1 puts it in time order (starts
    /// and ends non-decreasing, so it merges), 2 does that and then swaps
    /// two events.
    fn arb_run(rng: &mut proptest::TestRng) -> (Vec<Lifetime>, u64) {
        let n = rng.below(12) as usize;
        let shape = rng.below(3);
        let bases = [i64::MIN, -5, 0, 3, i64::MAX - 8];
        let base = bases[rng.below(bases.len() as u64) as usize];
        let mut run: Vec<Lifetime> = (0..n)
            .map(|_| {
                let start = base.saturating_add(rng.below(6) as i64);
                let reach = [1, 2, 3, i64::MAX][rng.below(4) as usize];
                let end = start.saturating_add(reach).max(start + 1);
                Lifetime::new(start.min(i64::MAX - 1), end)
            })
            .collect();
        if shape > 0 {
            run.sort_by_key(|lt| lt.start);
            for k in 1..n {
                run[k].end = run[k].end.max(run[k - 1].end);
            }
        }
        if shape == 2 && n > 1 {
            let (a, b) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
            run.swap(a, b);
        }
        (run, shape)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The endpoints of a run in time order, merged, are in exactly
        /// the order `sort_unstable` gives; a run out of order is sorted.
        #[test]
        fn merged_endpoints_equal_the_sort(
            drawn in proptest::composed(arb_run),
            first in 0usize..4,
        ) {
            let (run, shape) = drawn;
            let mut want: Vec<(Time, bool, u32)> = (run.iter().enumerate())
                .flat_map(|(k, lt)| {
                    let i = (first + k) as u32;
                    [(lt.start, true, i), (lt.end, false, i)]
                })
                .collect();
            want.sort_unstable();
            let mut got = vec![(0, false, 0)];
            let merged = endpoints_of(first, &run, &mut got);
            proptest::prop_assert_eq!(&got, &want);
            let ordered = (run.windows(2))
                .all(|w| w[0].start <= w[1].start && w[0].end <= w[1].end);
            proptest::prop_assert_eq!(merged, ordered);
            proptest::prop_assert!(merged || shape != 1);
        }
    }

    #[test]
    fn empty_input_empty_output() {
        let out = count_of(&EventStream::empty(schema()));
        assert!(out.is_empty());
        assert_eq!(out.schema().names(), vec!["N"]);
    }
}
