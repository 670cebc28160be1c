//! GroupApply: apply a sub-plan to each group (paper §II-A.2, Fig 4).
//!
//! Execution is **segmented**: instead of materialising one stream and one
//! executor per group, the input is laid out once as key-ordered *runs*
//! ([`Runs`]) and the sub-plan is walked once over all of them
//! ([`crate::exec::walk_runs`]). One sub-plan shape needs no runs at all: a
//! tumbling hopping aggregate of combinable aggregates goes to the pane
//! kernel ([`crate::operators::pane`]), which shares only the grouping
//! ([`assign_groups`]) with what follows.
//!
//! Grouping is hash-then-compare: each event gets a group ordinal from the
//! 64-bit key hash (no per-event key materialization), hash collisions
//! between distinct keys are separated by comparing key cells against the
//! group's first event, the *groups* — not the events — are sorted by key
//! cells, and a stable counting sort moves the events into sorted-key run
//! order, so the order inside a group is the input's. One key per group is
//! materialized for the prefix, which is attached once, at the sub-plan's
//! root.
//!
//! One walk covers every run, on the caller's thread, and the keys are
//! attached once to its root, so the output event vector is a pure function
//! of the input (the repeatability guarantee of paper §III that restarted
//! reducers compare bytes against). Errors are deterministic too: the walk
//! reports the lowest failing group in sorted-key order and, inside it, the
//! first failing operator — what a group-at-a-time evaluation would have
//! met first ([`Cut`]).

use crate::error::{Result, TemporalError};
use crate::event::Event;
use crate::exec::{walk_runs, DataBindings, ExecStats, StreamData};
use crate::key::KeySelector;
use crate::operators::pane::pane_aggregate;
use crate::plan::{hopping_aggregate, LogicalPlan};
use crate::stream::EventStream;
use crate::time::Lifetime;
use relation::{Row, Schema, Value};
use rustc_hash::FxHashMap;
use std::collections::hash_map::Entry;

/// A row stream laid out as consecutive runs, one per group in sorted-key
/// order: the form every sub-plan node consumes and produces.
#[derive(Debug, Clone)]
pub(crate) struct Runs {
    pub(crate) stream: EventStream,
    /// Run `r` is `events[bounds[r]..bounds[r + 1]]`; `bounds[0] == 0` and
    /// the last bound is the event count.
    pub(crate) bounds: Vec<usize>,
}

/// The run of `bounds` holding event `event`.
pub(crate) fn run_of(bounds: &[usize], event: usize) -> usize {
    bounds.partition_point(|&b| b <= event) - 1
}

impl Runs {
    /// The whole stream as one run: how the top-level row operators use the
    /// run-aware kernels.
    pub(crate) fn one(stream: EventStream) -> Runs {
        let bounds = vec![0, stream.len()];
        Runs { stream, bounds }
    }

    /// Number of runs.
    pub(crate) fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Keep the first `runs` runs (only ever shortens, and only once an
    /// error is pending — see [`Cut`]).
    pub(crate) fn truncate(&mut self, runs: usize) {
        if runs < self.len() {
            self.bounds.truncate(runs + 1);
            self.stream.events_mut().truncate(self.bounds[runs]);
        }
    }

    /// Keep the events `f` maps to a lifetime, with that lifetime, and drop
    /// the rest; the run bounds compact with the survivors. Uniquely-owned
    /// storage is compacted in place, shared storage is rebuilt from clones
    /// of the survivors only.
    pub(crate) fn retain_map(
        self,
        cut: &mut Cut,
        mut f: impl FnMut(&Event) -> Result<Option<Lifetime>>,
    ) -> Result<Runs> {
        let Runs {
            mut stream,
            mut bounds,
        } = self;
        let mut i = 0;
        if stream.is_unique() {
            let events = stream.events_mut();
            let mut w = 0;
            'runs: for r in 0..bounds.len() - 1 {
                let (end, run_start) = (bounds[r + 1], w);
                while i < end {
                    match f(&events[i]) {
                        Ok(Some(lifetime)) => {
                            events[i].lifetime = lifetime;
                            if w != i {
                                events.swap(w, i);
                            }
                            w += 1;
                        }
                        Ok(None) => {}
                        Err(e) => {
                            cut.fail(r, e)?;
                            w = run_start;
                            bounds.truncate(r + 1);
                            break 'runs;
                        }
                    }
                    i += 1;
                }
                bounds[r + 1] = w;
            }
            events.truncate(w);
        } else {
            let events = stream.events();
            let mut out = Vec::with_capacity(events.len());
            'runs: for r in 0..bounds.len() - 1 {
                let end = bounds[r + 1];
                while i < end {
                    match f(&events[i]) {
                        Ok(Some(lifetime)) => {
                            out.push(Event::new(lifetime, events[i].payload.clone()))
                        }
                        Ok(None) => {}
                        Err(e) => {
                            cut.fail(r, e)?;
                            out.truncate(bounds[r]);
                            bounds.truncate(r + 1);
                            break 'runs;
                        }
                    }
                    i += 1;
                }
                bounds[r + 1] = out.len();
            }
            stream = EventStream::new(stream.schema().clone(), out);
        }
        Ok(Runs { stream, bounds })
    }
}

/// The pending error of one sub-plan walk, in the order a group-at-a-time
/// evaluation meets errors: lowest run first, then evaluation order.
///
/// Every kernel processes its runs in order, so the first error it meets is
/// its lowest failing run `r`. A lower run can still fail in a *later*
/// operator, so the kernel records the error, drops runs `r..` from its
/// output and carries on; the walk trims every other live value to the same
/// limit and returns the recorded error at the end. A failure in run 0
/// cannot be superseded and is returned at once — which is also why a
/// one-run caller (the top-level operators) never sees a pending error.
#[derive(Debug)]
pub(crate) struct Cut {
    /// Runs at or past this index are dead: a recorded error covers them.
    pub(crate) limit: usize,
    pub(crate) err: Option<TemporalError>,
}

impl Cut {
    pub(crate) fn none() -> Cut {
        Cut {
            limit: usize::MAX,
            err: None,
        }
    }

    /// An operator failed on `run` (below the current limit).
    pub(crate) fn fail(&mut self, run: usize, err: TemporalError) -> Result<()> {
        debug_assert!(run < self.limit, "kernels only see runs below the limit");
        if run == 0 {
            return Err(err);
        }
        self.limit = run;
        self.err = Some(err);
        Ok(())
    }
}

/// Run `subplan` per distinct value of `keys`, prepending the key columns to
/// output rows. A sub-plan that is a pane aggregate — decided from the plan
/// alone, [`hopping_aggregate`] and `pane_grid` — runs on the pane kernel
/// ([`pane_aggregate`]) in the layout the input arrives in. Everything else
/// is segmented: a batch input hashes its keys straight off the columns
/// ([`KeySelector::hash_batch`], bit-identical to the row hash) and is then
/// transposed and grouped as rows (counted in
/// [`ExecStats::transposed_events`]). `sources` are the outer bindings a
/// sub-plan `Source` reads.
pub(crate) fn group_apply(
    input: StreamData,
    keys: &[String],
    subplan: &LogicalPlan,
    sources: &DataBindings,
    stats: &mut ExecStats,
) -> Result<EventStream> {
    let sel = KeySelector::new(input.schema(), keys)?;

    // Output schema: key fields + sub-plan output fields.
    let sub_out_schema = subplan.schema_of(subplan.roots()[0]);
    let mut fields = Vec::with_capacity(keys.len() + sub_out_schema.len());
    for k in keys {
        fields.push(input.schema().field(k)?.clone());
    }
    fields.extend(sub_out_schema.fields().iter().cloned());
    let out_schema = Schema::new(fields);

    if let Some(shape) = hopping_aggregate(subplan) {
        if let Some(grid) = shape.pane_grid() {
            if let Some(events) = pane_aggregate(&input, &sel, grid, shape.aggs, stats)? {
                return Ok(EventStream::new(out_schema, events));
            }
        }
    }

    let hashes = match &input {
        StreamData::Batch(b) => Some(sel.hash_batch(b.payload())),
        StreamData::Rows(_) => None,
    };
    let input = stats.transpose(input);

    let (runs, run_keys) = group_runs(input, hashes.as_deref(), &sel);
    stats.groups += run_keys.len() as u64;
    if run_keys.is_empty() {
        // No group, so the sub-plan never runs (nor fails).
        return Ok(EventStream::new(out_schema, Vec::new()));
    }
    stats.per_run_nodes += subplan.nodes().iter().filter(|n| !n.op.segmented()).count() as u64;

    let root = walk_runs(subplan, runs, sources, stats)?;
    Ok(EventStream::new(out_schema, attach_keys(root, &run_keys)))
}

/// Events numbered by group, in first-seen order.
pub(crate) struct Groups {
    /// `first[g]`: group `g`'s first event, its key representative.
    pub(crate) first: Vec<usize>,
    /// `sizes[g]`: its event count.
    pub(crate) sizes: Vec<usize>,
    /// `ordinals[i]`: event `i`'s group.
    pub(crate) ordinals: Vec<u32>,
}

/// Hash-then-compare grouping of events `0..n`: `hash(i)` is event `i`'s
/// 64-bit key hash and `same_key(i, j)` separates distinct keys that share
/// one. No key is materialized.
pub(crate) fn assign_groups(
    n: usize,
    hash: impl Fn(usize) -> u64,
    same_key: impl Fn(usize, usize) -> bool,
) -> Groups {
    const NONE: u32 = u32::MAX;
    // `next[g]` chains the groups whose keys share a hash.
    let mut by_hash: FxHashMap<u64, u32> = FxHashMap::default();
    let (mut first, mut next, mut sizes) = (Vec::new(), Vec::<u32>::new(), Vec::new());
    let mut ordinals = Vec::with_capacity(n);
    for i in 0..n {
        let fresh = first.len() as u32;
        let g = match by_hash.entry(hash(i)) {
            Entry::Vacant(v) => *v.insert(fresh),
            Entry::Occupied(o) => {
                let mut g = *o.get();
                loop {
                    if same_key(first[g as usize], i) {
                        break g;
                    }
                    if next[g as usize] == NONE {
                        next[g as usize] = fresh;
                        break fresh;
                    }
                    g = next[g as usize];
                }
            }
        };
        if g == fresh {
            first.push(i);
            next.push(NONE);
            sizes.push(0);
        }
        sizes[g as usize] += 1;
        ordinals.push(g);
    }
    Groups {
        first,
        sizes,
        ordinals,
    }
}

/// Lay `input` out as sorted-key runs; returns the runs and one extracted
/// key per run.
fn group_runs(
    input: EventStream,
    hashes: Option<&[u64]>,
    sel: &KeySelector,
) -> (Runs, Vec<Vec<Value>>) {
    let schema = input.schema().clone();
    let events = input.into_events();
    debug_assert!(hashes.is_none_or(|h| h.len() == events.len()));
    let Groups {
        first,
        sizes,
        ordinals,
    } = assign_groups(
        events.len(),
        |i| hashes.map_or_else(|| sel.hash(&events[i].payload), |h| h[i]),
        |i, j| sel.matches_same(&events[i].payload, &events[j].payload),
    );

    // Sort the groups by key cells, in place; distinct groups have distinct
    // keys, so the order is total.
    let mut order: Vec<usize> = (0..first.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        sel.cmp_same(&events[first[a]].payload, &events[first[b]].payload)
    });
    let run_keys = order
        .iter()
        .map(|&g| sel.extract(&events[first[g]].payload))
        .collect();

    // Stable counting sort of the events into run order.
    let mut bounds = Vec::with_capacity(order.len() + 1);
    let mut cursor = vec![0; order.len()];
    let mut at = 0;
    for &g in &order {
        bounds.push(at);
        cursor[g] = at;
        at += sizes[g];
    }
    bounds.push(at);
    let mut sorted = vec![Event::new(Lifetime::point(0), Row::default()); events.len()];
    for (e, g) in events.into_iter().zip(ordinals) {
        sorted[cursor[g as usize]] = e;
        cursor[g as usize] += 1;
    }
    let stream = EventStream::new(schema, sorted);
    (Runs { stream, bounds }, run_keys)
}

/// Prepend each run's key to its output rows.
fn attach_keys(root: Runs, run_keys: &[Vec<Value>]) -> Vec<Event> {
    debug_assert_eq!(root.len(), run_keys.len());
    let mut events = root.stream.into_events();
    for (key, w) in run_keys.iter().zip(root.bounds.windows(2)) {
        for e in &mut events[w[0]..w[1]] {
            let mut values = Vec::with_capacity(key.len() + e.payload.len());
            values.extend_from_slice(key);
            values.append(e.payload.values_mut());
            e.payload = Row::new(values);
        }
    }
    events
}

#[cfg(test)]
mod tests {
    // Sub-plan behaviour is tested in `crate::exec` and the property
    // suites; here, only the layout mechanics.
    use super::*;
    use relation::row;
    use relation::schema::{ColumnType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("Id", ColumnType::Str),
            Field::new("V", ColumnType::Long),
        ])
    }

    fn grouped(events: Vec<Event>) -> (Runs, Vec<Vec<Value>>) {
        let sel = KeySelector::new(&schema(), &["Id"]).unwrap();
        group_runs(EventStream::new(schema(), events), None, &sel)
    }

    #[test]
    fn runs_are_in_key_order_and_stable_inside() {
        let (runs, keys) = grouped(vec![
            Event::point(1, row!["b", 10i64]),
            Event::point(2, row!["a", 20i64]),
            Event::point(3, row!["b", 30i64]),
        ]);
        assert_eq!(keys, vec![vec![Value::str("a")], vec![Value::str("b")]]);
        assert_eq!(runs.bounds, vec![0, 1, 3]);
        let vs: Vec<_> = runs
            .stream
            .events()
            .iter()
            .map(|e| e.payload.get(1).as_long().unwrap())
            .collect();
        assert_eq!(vs, vec![20, 10, 30]);
    }

    #[test]
    fn retain_map_compacts_bounds_in_place_and_on_shared_storage() {
        let (runs, _) = grouped(vec![
            Event::point(1, row!["a", 1i64]),
            Event::point(2, row!["b", 2i64]),
            Event::point(3, row!["b", 3i64]),
            Event::point(4, row!["c", 4i64]),
        ]);
        let odd =
            |e: &Event| Ok((e.payload.get(1).as_long().unwrap() % 2 == 1).then_some(e.lifetime));
        let shared = runs.clone();
        let kept = shared.retain_map(&mut Cut::none(), odd).unwrap();
        assert_eq!(kept.bounds, vec![0, 1, 2, 2]);
        assert_eq!(runs.stream.len(), 4, "shared storage is left alone");
        let expected = kept.stream.events().to_vec();
        let unique = Runs {
            stream: EventStream::new(schema(), runs.stream.events().to_vec()),
            bounds: runs.bounds.clone(),
        };
        drop(runs);
        let kept = unique.retain_map(&mut Cut::none(), odd).unwrap();
        assert_eq!(kept.bounds, vec![0, 1, 2, 2]);
        assert_eq!(kept.stream.events(), &expected[..]);
    }

    #[test]
    fn a_failure_past_the_first_run_is_recorded_and_cuts_the_output() {
        let (runs, _) = grouped(vec![
            Event::point(1, row!["a", 1i64]),
            Event::point(2, row!["b", 2i64]),
            Event::point(3, row!["c", 3i64]),
        ]);
        let fail_on_b = |e: &Event| {
            if e.payload.get(0) == &Value::str("b") {
                Err(TemporalError::Eval("b".into()))
            } else {
                Ok(Some(e.lifetime))
            }
        };
        let mut cut = Cut::none();
        let out = runs.retain_map(&mut cut, fail_on_b).unwrap();
        assert_eq!((out.len(), out.stream.len()), (1, 1));
        assert_eq!(cut.limit, 1);
        assert_eq!(cut.err, Some(TemporalError::Eval("b".into())));
    }
}
