//! GroupApply: apply a sub-plan to each group (paper §II-A.2, Fig 4).
//!
//! Execution is **segmented**: instead of materialising one stream and one
//! executor per group, the input is laid out once as key-ordered *runs* and
//! the sub-plan is walked once over all of them
//! ([`crate::exec::walk_runs`]), in the layout the input arrives in:
//!
//! - a row stream becomes [`Runs`], its events moved into run order;
//! - a batch becomes [`BatchRuns`]: the batch, a run-order permutation of
//!   its rows and the bounds — nothing is gathered. A fused fragment runs
//!   the batch kernel over the live rows in input order and drops the rest
//!   from the permutation; an aggregate sweeps through the permutation and
//!   writes a batch in run order; a union interleaves its inputs' runs in
//!   one permutation. A node with no run-aware kernel (a join, a UDO,
//!   SpreadGrid, a nested GroupApply, a sub-plan `Source`) is handed its
//!   runs transposed, once, counted in `ExecStats::transposed_events`. A
//!   root that is still a batch comes back as one: its columns in run
//!   order, and each key column gathered once from every output event's
//!   run representative. No event becomes a row, on the way in or out.
//!   Any error, or a projection with no dense column form, hands the input
//!   to the walk over rows, which reports the first error in group order;
//!   an aggregate value with no column form (a `Double` in an integer
//!   `Sum`) finishes that aggregate's output on rows, counted in
//!   `ExecStats::row_fallbacks`.
//!
//! One sub-plan shape needs no runs at all: a tumbling hopping aggregate of
//! combinable aggregates goes to the pane kernel
//! ([`crate::operators::pane`]), in the layout the input arrives in.
//!
//! Grouping is hash-then-compare, on the columns of a batch and the cells
//! of a row stream alike: each event gets a group ordinal from the 64-bit
//! key hash (no per-event key materialization), hash collisions between
//! distinct keys are separated by comparing key cells against the group's
//! first event, the *groups* — not the events — are sorted by key, as
//! normalized keys (one order-preserving `u64` per key cell,
//! [`crate::key::NormalizedKeys`]; the key cells are compared only where
//! two words tie inexactly), and a stable counting sort puts the events
//! into sorted-key run order, so the order inside a group is the input's.
//! A root that ends on rows gets one materialized key per group as its
//! prefix, attached once.
//!
//! Every path covers every run on the caller's thread, and the keys are
//! attached once to its root, so the output event vector is a pure function
//! of the input (the repeatability guarantee of paper §III that restarted
//! reducers compare bytes against); the batch walk keeps each group's
//! events in the row runs' order, so a `Double` `Sum` adds in the same
//! order and the bytes are the same. Errors are deterministic too: the walk
//! reports the lowest failing group in sorted-key order and, inside it, the
//! first failing operator — what a group-at-a-time evaluation would have
//! met first ([`Cut`]).

use crate::batch::EventBatch;
use crate::error::{Result, TemporalError};
use crate::event::Event;
use crate::exec::{walk_runs, DataBindings, ExecStats, StreamData};
use crate::key::{KeySelector, NormalizedKeys};
use crate::operators::pane::pane_aggregate;
use crate::plan::{hopping_aggregate, LogicalPlan};
use crate::stream::EventStream;
use crate::time::Lifetime;
use relation::{compact_indices, ColumnBatch, Row, Schema, Value};
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

/// A batch laid out as consecutive runs without moving a row: run `r` is
/// the events `batch` holds at `perm[bounds[r]..bounds[r + 1]]`. Rows of
/// `batch` that `perm` does not name were dropped by an earlier step; they
/// stay in storage and no kernel reads them.
#[derive(Debug, Clone)]
pub(crate) struct BatchRuns {
    pub(crate) batch: EventBatch,
    /// Run order: position `p` holds row `perm[p]` of `batch`. No row
    /// appears twice.
    pub(crate) perm: Vec<u32>,
    /// As in [`Runs`], over positions of `perm`.
    pub(crate) bounds: Vec<usize>,
}

impl BatchRuns {
    /// `batch` in `groups`' runs: a permutation, nothing gathered.
    fn of(batch: EventBatch, groups: &KeyedGroups) -> BatchRuns {
        let (perm, bounds) = run_order(&groups.ordinals, &groups.order);
        BatchRuns {
            batch,
            perm,
            bounds,
        }
    }

    /// A batch already in run order.
    pub(crate) fn in_order(batch: EventBatch, bounds: Vec<usize>) -> BatchRuns {
        let perm = (0..batch.len() as u32).collect();
        BatchRuns {
            batch,
            perm,
            bounds,
        }
    }

    /// The rows `perm` names, ascending — `None` when that is every row.
    pub(crate) fn live_rows(&self) -> Option<Vec<u32>> {
        if self.perm.len() == self.batch.len() {
            return None;
        }
        let mut live = vec![false; self.batch.len()];
        self.perm.iter().for_each(|&i| live[i as usize] = true);
        Some(compact_indices(&live))
    }

    /// The events in run order as a batch of their own: `batch` itself when
    /// it already is one, else one gather through `perm`.
    pub(crate) fn into_ordered(self) -> EventBatch {
        let in_place = self.perm.len() == self.batch.len()
            && (self.perm.iter().enumerate()).all(|(p, &i)| p == i as usize);
        match in_place {
            true => self.batch,
            false => self.batch.gather(&self.perm),
        }
    }

    /// The runs as rows, for an operator that has no columnar form: one
    /// transposition of the events the runs hold, counted in `stats`.
    pub(crate) fn into_rows(self, stats: &mut ExecStats) -> Runs {
        stats.transposed_events += self.perm.len() as u64;
        let batch = &self.batch;
        let events = (self.perm.iter())
            .map(|&i| Event::new(batch.lifetime(i as usize), batch.payload_row(i as usize)))
            .collect();
        Runs {
            stream: EventStream::new(batch.schema().clone(), events),
            bounds: self.bounds,
        }
    }
}

/// Runs in either layout: what a sub-plan walk passes between nodes.
#[derive(Debug, Clone)]
pub(crate) enum RunsData {
    Rows(Runs),
    Batch(BatchRuns),
}

impl RunsData {
    /// Number of runs.
    pub(crate) fn len(&self) -> usize {
        match self {
            RunsData::Rows(r) => r.len(),
            RunsData::Batch(b) => b.bounds.len() - 1,
        }
    }

    /// Keep the first `runs` runs (see [`Runs::truncate`]). Only a walk
    /// over rows records an error and walks on, so only row runs are cut.
    pub(crate) fn truncate(&mut self, runs: usize) {
        match self {
            RunsData::Rows(r) => r.truncate(runs),
            RunsData::Batch(b) => debug_assert!(runs >= b.bounds.len() - 1),
        }
    }

    /// Row runs, transposing batch runs ([`BatchRuns::into_rows`]).
    pub(crate) fn into_rows(self, stats: &mut ExecStats) -> Runs {
        match self {
            RunsData::Rows(r) => r,
            RunsData::Batch(b) => b.into_rows(stats),
        }
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
/// ([`pane_aggregate`]); everything else is the segmented walk, in the
/// layout the input arrives in. A batch is grouped on its columns and
/// walked as [`BatchRuns`]; a root that is still a batch comes back as one,
/// keyed by one gather per key column. Any error, or a value with no column
/// form, hands the input to the walk over rows, which transposes it
/// (counted in [`ExecStats::transposed_events`]) and reports the error a
/// group-at-a-time evaluation meets first. `sources` are the outer bindings
/// a sub-plan `Source` reads.
pub(crate) fn group_apply(
    input: StreamData,
    keys: &[String],
    subplan: &LogicalPlan,
    sources: &DataBindings,
    stats: &mut ExecStats,
) -> Result<StreamData> {
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
                return Ok(StreamData::Rows(EventStream::new(out_schema, events)));
            }
        }
    }

    let groups = key_groups(&input, &sel);
    stats.groups += groups.firsts.len() as u64;
    if groups.firsts.is_empty() {
        // No group, so the sub-plan never runs (nor fails).
        return Ok(match input {
            StreamData::Batch(_) => StreamData::Batch(
                EventBatch::from_events(out_schema, &[]).expect("no cell to mistype"),
            ),
            StreamData::Rows(_) => StreamData::Rows(EventStream::new(out_schema, Vec::new())),
        });
    }
    stats.per_run_nodes += subplan.nodes().iter().filter(|n| !n.op.segmented()).count() as u64;

    if let StreamData::Batch(batch) = &input {
        // The input is kept for the keys and for the walk over rows; what
        // the attempt counted is forgotten if it gives up, so the row walk
        // counts nothing twice.
        let before = *stats;
        let runs = RunsData::Batch(BatchRuns::of(batch.clone(), &groups));
        match walk_runs(subplan, runs, sources, stats) {
            Ok(Some(RunsData::Batch(root))) => {
                return Ok(StreamData::Batch(keyed_batch(
                    root,
                    batch.payload(),
                    &sel,
                    &groups,
                    out_schema,
                )))
            }
            Ok(Some(RunsData::Rows(root))) => {
                let run_keys = groups.run_keys(&input, &sel);
                let events = attach_keys(root, &run_keys);
                return Ok(StreamData::Rows(EventStream::new(out_schema, events)));
            }
            Ok(None) | Err(_) => *stats = before,
        }
    }
    let run_keys = groups.run_keys(&input, &sel);
    let runs = match input {
        StreamData::Batch(batch) => BatchRuns::of(batch, &groups).into_rows(stats),
        StreamData::Rows(stream) => runs_of(stream, &groups),
    };
    let Some(RunsData::Rows(root)) = walk_runs(subplan, RunsData::Rows(runs), sources, stats)?
    else {
        unreachable!("a walk over rows has no column form to miss and stays on rows")
    };
    Ok(StreamData::Rows(EventStream::new(
        out_schema,
        attach_keys(root, &run_keys),
    )))
}

/// The walk's batch root keyed: each key column gathered once from the
/// input's `payload` at every output event's run representative, then the
/// root's own columns in run order.
fn keyed_batch(
    root: BatchRuns,
    payload: &ColumnBatch,
    key_sel: &KeySelector,
    groups: &KeyedGroups,
    out_schema: Schema,
) -> EventBatch {
    let mut key_rows = Vec::with_capacity(root.perm.len());
    for (run, w) in root.bounds.windows(2).enumerate() {
        key_rows.extend(std::iter::repeat_n(groups.firsts[run], w[1] - w[0]));
    }
    let (vt, ve, values) = root.into_ordered().into_parts();
    let keys = (key_sel.indices().iter()).map(|&k| payload.column(k).gather(&key_rows));
    let columns = keys.chain(values.into_parts().1).collect();
    EventBatch::new(
        vt,
        ve,
        ColumnBatch::new(out_schema, columns, key_rows.len()),
    )
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
    /// Run `r`'s first event: the representative its key is read off.
    firsts: Vec<u32>,
}

impl KeyedGroups {
    /// Each run's key, materialized once: what the row paths prepend.
    fn run_keys(&self, input: &StreamData, sel: &KeySelector) -> Vec<Vec<Value>> {
        let firsts = self.firsts.iter().map(|&i| i as usize);
        match input {
            StreamData::Rows(stream) => {
                let events = stream.events();
                firsts.map(|i| sel.extract(&events[i].payload)).collect()
            }
            StreamData::Batch(batch) => firsts
                .map(|i| sel.extract_batch(batch.payload(), i))
                .collect(),
        }
    }
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
                |firsts| {
                    let rows: Vec<&Row> = firsts.iter().map(|&i| &events[i].payload).collect();
                    sel.normalize_rows(&rows)
                },
                |i, j| sel.cmp_same(&events[i].payload, &events[j].payload),
            )
        }
        StreamData::Batch(batch) => {
            let payload = batch.payload();
            let hashes = sel.hash_batch(payload);
            sorted_groups(
                batch.len(),
                |i| hashes[i],
                |i, j| sel.matches_batch(payload, i, j),
                |firsts| sel.normalize_batch(payload, firsts),
                |i, j| sel.cmp_batch(payload, i, j),
            )
        }
    }
}

/// [`assign_groups`], then the groups sorted by key — distinct groups have
/// distinct keys, so the order is total. The sort compares the normalized
/// keys `normalize` gives the groups' first events, and `cmp_key` over the
/// first events only where those tie on an inexact word.
fn sorted_groups(
    n: usize,
    hash: impl Fn(usize) -> u64,
    same_key: impl Fn(usize, usize) -> bool,
    normalize: impl FnOnce(&[usize]) -> NormalizedKeys,
    cmp_key: impl Fn(usize, usize) -> Ordering,
) -> KeyedGroups {
    let Groups { first, ordinals } = assign_groups(n, hash, same_key);
    let keys = normalize(&first);
    let mut order: Vec<u32> = (0..first.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        keys.cmp(a, b)
            .unwrap_or_else(|| cmp_key(first[a], first[b]))
    });
    let firsts = order.iter().map(|&g| first[g as usize] as u32).collect();
    KeyedGroups {
        ordinals,
        order,
        firsts,
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
        let keys = groups.run_keys(&input, &sel);
        (runs_of(input.into_stream(), &groups), keys)
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
