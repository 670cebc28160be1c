//! GroupApply: apply a sub-plan to each group (paper §II-A.2, Fig 4).
//!
//! Execution is **segmented**: instead of materialising one stream and one
//! executor per group, the input batch is laid out once as key-ordered
//! *runs* and the sub-plan is walked once over all of them
//! ([`crate::exec::walk_runs`]). A run layout is [`BatchRuns`]: the batch,
//! a run-order permutation of its rows and the bounds — nothing is
//! gathered. A fused fragment runs the batch kernel over the live rows in
//! input order and drops the rest from the permutation; an aggregate
//! sweeps through the permutation and writes a batch in run order; a union
//! interleaves its inputs' runs in one permutation. A node with no
//! run-aware kernel (a join, a UDO, SpreadGrid, a nested GroupApply, a
//! sub-plan `Source`) is handed each run as a gathered batch of its own.
//! The root comes back as one batch: its columns in run order, and each key
//! column gathered once from the groups' representatives.
//!
//! One sub-plan shape needs no runs at all: a tumbling hopping aggregate of
//! combinable aggregates goes to the pane kernel
//! ([`crate::operators::pane`]).
//!
//! Grouping reads each row's key as exact words ([`GroupWords`]: a string
//! is its code in its column's dictionary, a number its bits, a null a
//! flag of its own), so no key is materialized and no key cell compared:
//! each event gets a group ordinal, in first-seen order, from a dense
//! table or one map on the words ([`batch_groups`]). The
//! *groups* — not the events — are then sorted by key: on one `u64` where
//! the key's order words fit in one ([`KeySelector::packed_ranks`]), else
//! as normalized keys (one order-preserving `u64` per key cell,
//! [`crate::key::NormalizedKeys`]; the key cells are compared only where
//! two words tie inexactly). A stable counting sort puts the events into
//! sorted-key run order, so the order inside a group is the input's.
//!
//! Every run is covered on the caller's thread, so the output event vector
//! is a pure function of the input (the repeatability guarantee of paper
//! §III that restarted reducers compare bytes against). Errors are
//! deterministic too: every kernel reports the lowest run it fails in, and
//! the walk reports the lowest failing group in sorted-key order and,
//! inside it, the first failing operator — what a group-at-a-time
//! evaluation would have met first ([`Cut`]).

use crate::batch::EventBatch;
use crate::error::{Result, TemporalError};
use crate::exec::{walk_runs, BatchBindings, ExecStats};
use crate::key::{mix, GroupWords, KeySelector, NormalizedKeys};
use crate::operators::pane::pane_aggregate;
use crate::plan::{hopping_aggregate, LogicalPlan};
use relation::{compact_indices, Column, ColumnBatch, Schema};
use rustc_hash::FxHashMap;
use std::hash::{Hash, Hasher};

/// The run of `bounds` holding position `at`: run `r` covers positions
/// `bounds[r]..bounds[r + 1]`.
pub(crate) fn run_of(bounds: &[usize], at: usize) -> usize {
    bounds.partition_point(|&b| b <= at) - 1
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
    /// Run `r` is `perm[bounds[r]..bounds[r + 1]]`; `bounds[0] == 0` and the
    /// last bound is `perm.len()`.
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

    /// Number of runs.
    pub(crate) fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Keep the first `runs` runs (only ever shortens, and only once an
    /// error is pending — see [`Cut`]). The rows of the dropped runs stay
    /// in storage, named by no position.
    pub(crate) fn truncate(&mut self, runs: usize) {
        if runs < self.len() {
            self.bounds.truncate(runs + 1);
            self.perm.truncate(self.bounds[runs]);
        }
    }

    /// The events of run `r` as a batch of their own, in run order.
    pub(crate) fn run(&self, r: usize) -> EventBatch {
        self.batch
            .gather(&self.perm[self.bounds[r]..self.bounds[r + 1]])
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
}

/// Each row's run and position, `(run, position)`, in the runs `perm` and
/// `bounds` lay a batch of `rows` rows out in — what a kernel that meets an
/// error reads to find the lowest failing run, and the first failing event
/// inside it. Rows no position names get `u32::MAX`.
pub(crate) fn row_order(perm: &[u32], bounds: &[usize], rows: usize) -> Vec<(u32, u32)> {
    let mut order = vec![(u32::MAX, u32::MAX); rows];
    for (r, w) in bounds.windows(2).enumerate() {
        for p in w[0]..w[1] {
            order[perm[p] as usize] = (r as u32, p as u32);
        }
    }
    order
}

/// The pending error of one sub-plan walk, in the order a group-at-a-time
/// evaluation meets errors: lowest run first, then evaluation order.
///
/// Every kernel reports the lowest run it fails in, `r`. A lower run can
/// still fail in a *later* operator, so the kernel records the error, drops
/// runs `r..` from its output and carries on; the walk trims every other
/// live value to the same limit and returns the recorded error at the end.
/// A failure in run 0 cannot be superseded and is returned at once — which
/// is also why a one-run caller (the top-level operators) never sees a
/// pending error.
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
/// ([`pane_aggregate`]); everything else is the segmented walk over
/// [`BatchRuns`], whose root comes back keyed by one gather per key
/// column. `sources` are the outer bindings a sub-plan `Source` reads.
pub(crate) fn group_apply(
    input: EventBatch,
    keys: &[String],
    subplan: &LogicalPlan,
    sources: &BatchBindings,
    stats: &mut ExecStats,
) -> Result<EventBatch> {
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
            let aggs = shape.aggs;
            if let Some(out) = pane_aggregate(&input, &sel, grid, aggs, &out_schema, stats)? {
                return Ok(out);
            }
        }
    }

    let groups = key_groups(&input, &sel);
    stats.groups += groups.firsts.len() as u64;
    if groups.firsts.is_empty() {
        // No group, so the sub-plan never runs (nor fails).
        return Ok(EventBatch::empty(out_schema));
    }
    stats.per_run_nodes += subplan.nodes().iter().filter(|n| !n.op.segmented()).count() as u64;
    // One key per run, read off its representative before the walk takes
    // the input.
    let run_keys: Vec<Column> = (sel.indices().iter())
        .map(|&k| input.payload().column(k).gather(&groups.firsts))
        .collect();
    let root = walk_runs(subplan, BatchRuns::of(input, &groups), sources, stats)?;
    Ok(keyed_batch(root, &run_keys, out_schema))
}

/// The walk's root keyed: each key column gathered once from `run_keys`
/// (one cell per run) at every output event's run, then the root's own
/// columns in run order.
fn keyed_batch(root: BatchRuns, run_keys: &[Column], out_schema: Schema) -> EventBatch {
    let mut key_rows = Vec::with_capacity(root.perm.len());
    for (run, w) in root.bounds.windows(2).enumerate() {
        key_rows.extend(std::iter::repeat_n(run as u32, w[1] - w[0]));
    }
    let (vt, ve, values) = root.into_ordered().into_parts();
    let keys = run_keys.iter().map(|column| column.gather(&key_rows));
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

impl Groups {
    /// Event `i` (the next one) joins group `g`, a new one when `g` is the
    /// group count.
    #[inline]
    fn push(&mut self, i: usize, g: u32) {
        if g as usize == self.first.len() {
            self.first.push(i);
        }
        self.ordinals.push(g);
    }
}

/// No group yet, in a table from keys to groups.
const NO_GROUP: u32 = u32::MAX;

/// A key's words: equal when the words are, hashed as one mixed word
/// ([`mix`]) so that every word reaches a map's bucket bits.
struct Words<'a>(&'a [u64]);

impl PartialEq for Words<'_> {
    /// Word by word, inlined: a slice's `==` calls `memcmp`, a sixth of
    /// the map's time on the UBP's one-word keys.
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(other.0).all(|(a, b)| a == b)
    }
}

impl Eq for Words<'_> {}

impl Hash for Words<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.iter().fold(0, |h, &w| mix(h ^ w)));
    }
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

/// Group `input` by `sel`, reading its key cells off its columns.
fn key_groups(input: &EventBatch, sel: &KeySelector) -> KeyedGroups {
    let payload = input.payload();
    let Groups { first, ordinals } = batch_groups(payload, sel);
    let order = key_order(payload, sel, &first);
    let firsts = order.iter().map(|&g| first[g as usize] as u32).collect();
    KeyedGroups {
        ordinals,
        order,
        firsts,
    }
}

/// The rows of `payload` numbered by their key under `sel`, read as exact
/// words ([`KeySelector::group_words`]), so no key cell is compared:
/// - a packed key whose words span not much more than the batch's length
///   (one string column whose dictionary is not much larger than the
///   batch, say) indexes a dense table, 3–4× faster than the map on
///   Scoring's, BotElim's and feature selection's keys (the bound holds
///   the table to about 16 bytes an event);
/// - any other key goes through one map on its words, hashed as one mixed
///   word and compared word for word.
pub(crate) fn batch_groups(payload: &ColumnBatch, sel: &KeySelector) -> Groups {
    let n = payload.len();
    let mut groups = Groups {
        first: Vec::new(),
        ordinals: Vec::with_capacity(n),
    };
    let GroupWords {
        width,
        words,
        packed_bits,
    } = sel.group_words(payload);
    match packed_bits {
        Some(bits) if bits < 32 && 1 << bits <= 4 * n + 64 => {
            let mut table = vec![NO_GROUP; 1 << bits];
            for (i, &w) in words.iter().enumerate() {
                let g = &mut table[w as usize];
                if *g == NO_GROUP {
                    *g = groups.first.len() as u32;
                }
                groups.push(i, *g);
            }
        }
        _ => {
            let mut table: FxHashMap<Words, u32> = FxHashMap::default();
            for (i, key) in words.chunks_exact(width).enumerate() {
                let fresh = groups.first.len() as u32;
                groups.push(i, *table.entry(Words(key)).or_insert(fresh));
            }
        }
    }
    groups
}

/// The groups whose first events are `first`, sorted by key — distinct
/// groups have distinct keys, so the order is total. When the key's order
/// words fit in one `u64` ([`KeySelector::packed_ranks`]) the sort is on
/// that integer; otherwise it compares normalized keys, and the key cells
/// only where two tie on an inexact word.
pub(crate) fn key_order(payload: &ColumnBatch, sel: &KeySelector, first: &[usize]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..first.len() as u32).collect();
    let rows: Vec<u32> = first.iter().map(|&i| i as u32).collect();
    if let Some(keys) = sel.packed_ranks(payload, &rows) {
        order.sort_unstable_by_key(|&g| keys[g as usize]);
        return order;
    }
    let keys: NormalizedKeys = sel.normalize_batch(payload, first);
    order.sort_unstable_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        keys.cmp(a, b)
            .unwrap_or_else(|| sel.cmp_batch(payload, first[a], first[b]))
    });
    order
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

#[cfg(test)]
mod tests {
    // Sub-plan behaviour is tested in `crate::exec` and the property
    // suites; here, only the layout mechanics.
    use super::*;
    use crate::event::Event;
    use crate::stream::EventStream;
    use relation::row;
    use relation::schema::{ColumnType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("Id", ColumnType::Str),
            Field::new("V", ColumnType::Long),
        ])
    }

    fn grouped(events: Vec<Event>) -> BatchRuns {
        let sel = KeySelector::new(&schema(), &["Id"]).unwrap();
        let input = EventBatch::from_stream(&EventStream::new(schema(), events)).unwrap();
        let groups = key_groups(&input, &sel);
        BatchRuns::of(input, &groups)
    }

    fn values(runs: &BatchRuns) -> Vec<i64> {
        let column = runs.batch.payload().column(1);
        (runs.perm.iter())
            .map(|&i| column.value(i as usize).as_long().unwrap())
            .collect()
    }

    #[test]
    fn runs_are_in_key_order_and_stable_inside() {
        let runs = grouped(vec![
            Event::point(1, row!["b", 10i64]),
            Event::point(2, row!["a", 20i64]),
            Event::point(3, row!["b", 30i64]),
        ]);
        assert_eq!(runs.bounds, vec![0, 1, 3]);
        assert_eq!(values(&runs), vec![20, 10, 30]);
        assert_eq!(
            row_order(&runs.perm, &runs.bounds, 3),
            vec![(1, 1), (0, 0), (1, 2)]
        );
    }

    #[test]
    fn truncation_keeps_the_lower_runs_and_their_storage() {
        let mut runs = grouped(vec![
            Event::point(1, row!["c", 1i64]),
            Event::point(2, row!["b", 2i64]),
            Event::point(3, row!["a", 3i64]),
            Event::point(4, row!["b", 4i64]),
        ]);
        runs.truncate(2);
        assert_eq!(runs.bounds, vec![0, 1, 3]);
        assert_eq!(values(&runs), vec![3, 2, 4]);
        assert_eq!(runs.batch.len(), 4, "no row moves");
        assert_eq!(runs.live_rows(), Some(vec![1, 2, 3]));
        let run = runs.run(1);
        assert_eq!(run.vt(), &[2, 4]);
    }
}
