//! GroupApply: apply a sub-plan to each group (paper §II-A.2, Fig 4).
//!
//! Execution is **segmented**: instead of materialising one stream and one
//! executor per group, the input is laid out once as key-ordered *runs*
//! ([`Runs`]) and the sub-plan is walked once over all of them
//! ([`crate::exec::walk_runs`]). Two sub-plan shapes, recognised from the
//! plan alone, need no row runs:
//!
//! - a tumbling hopping aggregate of combinable aggregates goes to the pane
//!   kernel ([`crate::operators::pane`]), in the layout the input arrives
//!   in;
//! - per-event steps ending in one Aggregate ([`per_event_aggregate`]) over
//!   a batch stay on the columns: the fused batch kernel runs the steps, a
//!   run-order permutation of the survivors is built by the same counting
//!   sort the row runs use, and the endpoint sweep reads the arguments and
//!   lifetimes through it ([`aggregate_batch_runs`]). No event becomes a
//!   row. Any error, or a projection with no dense column form, sends the
//!   input to the segmented walk instead, which reports the reference's
//!   error.
//!
//! Grouping is hash-then-compare, on the columns of a batch and the cells
//! of a row stream alike: each event gets a group ordinal from the 64-bit
//! key hash (no per-event key materialization), hash collisions between
//! distinct keys are separated by comparing key cells against the group's
//! first event, the *groups* — not the events — are sorted by key cells,
//! and a stable counting sort puts the events into sorted-key run order, so
//! the order inside a group is the input's. One key per group is
//! materialized for the prefix, which is attached once, at the sub-plan's
//! root.
//!
//! Every path covers every run on the caller's thread, and the keys are
//! attached once to its root, so the output event vector is a pure function
//! of the input (the repeatability guarantee of paper §III that restarted
//! reducers compare bytes against); the columnar path sweeps each group's
//! events in the row runs' order, so a `Double` `Sum` adds in the same
//! order and the bytes are the same. Errors are deterministic too: the walk
//! reports the lowest failing group in sorted-key order and, inside it, the
//! first failing operator — what a group-at-a-time evaluation would have
//! met first ([`Cut`]).

use crate::batch::EventBatch;
use crate::error::{Result, TemporalError};
use crate::event::Event;
use crate::exec::{walk_runs, DataBindings, ExecStats, StreamData};
use crate::key::KeySelector;
use crate::operators::aggregate::aggregate_batch_runs;
use crate::operators::fused::{fused_select, Selected, Selection};
use crate::operators::pane::pane_aggregate;
use crate::plan::{hopping_aggregate, per_event_aggregate, LogicalPlan, PerEventAggregate};
use crate::stream::EventStream;
use crate::time::Lifetime;
use relation::{Row, Schema, Value};
use rustc_hash::FxHashMap;
use std::cmp::Ordering;
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
/// output rows. The plan alone picks the path (see the module docs): a pane
/// aggregate ([`hopping_aggregate`] and `pane_grid`) runs on the pane kernel
/// ([`pane_aggregate`]); over a batch, a per-event aggregate
/// ([`per_event_aggregate`]) runs on the columns ([`sweep_columns`]);
/// everything else — and the columnar path's fallback — is the segmented
/// walk, over rows, which transposes a batch input (counted in
/// [`ExecStats::transposed_events`]). A batch is grouped on its columns
/// whichever path follows. `sources` are the outer bindings a sub-plan
/// `Source` reads.
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

    let groups = key_groups(&input, &sel);
    stats.groups += groups.keys.len() as u64;
    if groups.keys.is_empty() {
        // No group, so the sub-plan never runs (nor fails).
        return Ok(EventStream::new(out_schema, Vec::new()));
    }
    stats.per_run_nodes += subplan.nodes().iter().filter(|n| !n.op.segmented()).count() as u64;

    let swept = match (&input, per_event_aggregate(subplan)) {
        (StreamData::Batch(batch), Ok(shape)) => sweep_columns(batch.clone(), &groups, &shape),
        _ => None,
    };
    let root = match swept {
        Some(root) => root,
        None => walk_runs(
            subplan,
            runs_of(stats.transpose(input), &groups),
            sources,
            stats,
        )?,
    };
    Ok(EventStream::new(
        out_schema,
        attach_keys(root, &groups.keys),
    ))
}

/// The columnar path: a per-event aggregate sub-plan over every group of
/// `batch` at once. The fused kernel runs the steps over the whole batch;
/// the survivors are put in run order by [`run_order`] — each group's in
/// its input order, as in the row runs — and the aggregate reads its
/// arguments and lifetimes through that permutation. `None` when the
/// columns cannot answer: a step or an argument failed, or a projection has
/// no dense column form. The caller then walks the runs on rows, which
/// reports a failure in the reference's order.
fn sweep_columns(
    batch: EventBatch,
    groups: &KeyedGroups,
    shape: &PerEventAggregate,
) -> Option<Runs> {
    let Selected::Columns(Selection { batch, sel, origin }) =
        fused_select(batch, &shape.steps).ok()?
    else {
        return None;
    };
    let rows: Vec<u32> = sel.unwrap_or_else(|| (0..batch.len() as u32).collect());
    let ordinals: Vec<u32> = (rows.iter())
        .map(|&r| groups.ordinals[origin.as_ref().map_or(r, |o| o[r as usize]) as usize])
        .collect();
    let (mut perm, bounds) = run_order(&ordinals, &groups.order);
    perm.iter_mut().for_each(|j| *j = rows[*j as usize]);
    aggregate_batch_runs(&batch, Some(&perm), &bounds, shape.aggs).ok()
}

/// Events numbered by group, in first-seen order.
pub(crate) struct Groups {
    /// `first[g]`: group `g`'s first event, its key representative.
    pub(crate) first: Vec<usize>,
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
    let (mut first, mut next) = (Vec::new(), Vec::<u32>::new());
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
        }
        ordinals.push(g);
    }
    Groups { first, ordinals }
}

/// Every event's group and the groups in sorted-key order.
struct KeyedGroups {
    /// `ordinals[i]`: event `i`'s group.
    ordinals: Vec<u32>,
    /// The groups by key: run `r` is group `order[r]`.
    order: Vec<u32>,
    /// Run `r`'s key, materialized once.
    keys: Vec<Vec<Value>>,
}

/// Group `input` by `sel`, reading a batch's key cells off its columns and
/// a row stream's off its rows; the two agree bit for bit.
fn key_groups(input: &StreamData, sel: &KeySelector) -> KeyedGroups {
    match input {
        StreamData::Rows(stream) => {
            let events = stream.events();
            sorted_groups(
                events.len(),
                |i| sel.hash(&events[i].payload),
                |i, j| sel.matches_same(&events[i].payload, &events[j].payload),
                |i, j| sel.cmp_same(&events[i].payload, &events[j].payload),
                |i| sel.extract(&events[i].payload),
            )
        }
        StreamData::Batch(batch) => {
            let payload = batch.payload();
            let hashes = sel.hash_batch(payload);
            sorted_groups(
                batch.len(),
                |i| hashes[i],
                |i, j| sel.matches_batch(payload, i, j),
                |i, j| sel.cmp_batch(payload, i, j),
                |i| sel.extract_batch(payload, i),
            )
        }
    }
}

/// [`assign_groups`], then the groups sorted by `cmp_key` over their first
/// events — distinct groups have distinct keys, so the order is total — and
/// one `key` each.
fn sorted_groups(
    n: usize,
    hash: impl Fn(usize) -> u64,
    same_key: impl Fn(usize, usize) -> bool,
    cmp_key: impl Fn(usize, usize) -> Ordering,
    key: impl Fn(usize) -> Vec<Value>,
) -> KeyedGroups {
    let Groups { first, ordinals } = assign_groups(n, hash, same_key);
    let mut order: Vec<u32> = (0..first.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| cmp_key(first[a as usize], first[b as usize]));
    let keys = order.iter().map(|&g| key(first[g as usize])).collect();
    KeyedGroups {
        ordinals,
        order,
        keys,
    }
}

/// Stable counting sort of items by group into run order: item `j` belongs
/// to group `ordinals[j]`, and run `r` holds group `order[r]`'s items in
/// their input order. Returns the permutation — position `p` holds item
/// `perm[p]` — and the run bounds.
fn run_order(ordinals: &[u32], order: &[u32]) -> (Vec<u32>, Vec<usize>) {
    let mut cursor = vec![0; order.len()];
    for &g in ordinals {
        cursor[g as usize] += 1;
    }
    let mut bounds = Vec::with_capacity(order.len() + 1);
    let mut at = 0;
    for &g in order {
        bounds.push(at);
        let size = cursor[g as usize];
        cursor[g as usize] = at;
        at += size;
    }
    bounds.push(at);
    let mut perm = vec![0; ordinals.len()];
    for (j, &g) in ordinals.iter().enumerate() {
        perm[cursor[g as usize]] = j as u32;
        cursor[g as usize] += 1;
    }
    (perm, bounds)
}

/// Lay `input`'s events out as `groups`' runs.
fn runs_of(input: EventStream, groups: &KeyedGroups) -> Runs {
    let schema = input.schema().clone();
    let mut events = input.into_events();
    let (perm, bounds) = run_order(&groups.ordinals, &groups.order);
    let placeholder = || Event::new(Lifetime::point(0), Row::default());
    let sorted = (perm.iter())
        .map(|&i| std::mem::replace(&mut events[i as usize], placeholder()))
        .collect();
    Runs {
        stream: EventStream::new(schema, sorted),
        bounds,
    }
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
        let input = StreamData::Rows(EventStream::new(schema(), events));
        let groups = key_groups(&input, &sel);
        (runs_of(input.into_stream(), &groups), groups.keys)
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
