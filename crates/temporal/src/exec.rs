//! Batch execution of CQ plans.
//!
//! Evaluates a [`LogicalPlan`] over fully materialized input batches. This
//! is the engine TiMR embeds inside every map-reduce reducer (paper §III-A
//! step 4): the reducer binds its partition to the fragment's `Source`
//! leaves and takes the roots.
//!
//! There is one engine, one layout and one entry: [`execute`] takes batch
//! bindings and returns batch roots, and every value inside it is a
//! [`BatchRuns`], whose storage is an [`EventBatch`]. Every plan is fused
//! on entry ([`crate::plan::fuse_plan`], free on an already-fused plan),
//! stateless chains run as fused SIMD fragments, and the binary operators,
//! the aggregates, GroupApply and a UDO's windows read and write columns.
//! [`execute_single`] is the one row convenience: it lays each binding the
//! plan reads out once as a batch — a cell that does not inhabit its
//! declared type is an input error naming the source, the row and the
//! column — and turns the one root back into a stream. The tests hold the
//! engine to a naive snapshot evaluator that shares no code with it
//! (`tests/common/oracle.rs`).
//!
//! There is one plan walk ([`walk`]). Paper §II-A.2 defines GroupApply as
//! a sub-plan run once per group, so a plan is walked as a GroupApply
//! sub-plan over one group: node by node, children first, each value a
//! [`BatchRuns`] of one run at the top level and of one run per group
//! inside a GroupApply, whose input it lays out as key-ordered runs of one
//! batch (see `operators::group_apply`). Fragments, aggregates and unions
//! have run-aware kernels; every other operator is called once per run
//! ([`per_run`]). One run pays nothing for runs: its value is dense, in
//! storage order, a fragment runs unchecked and compacts once, a union
//! merges, and a node without a kernel takes its inputs by move.
//!
//! The walk is consumer-count aware: every operator receives its inputs
//! **by value**. A value with one consumer is moved into it, so in-place
//! operators (a fragment's compaction and lifetime rewrite) mutate it with
//! no copy; a value with several (Multicast) is handed out as O(1)
//! Arc-backed clones and *moved* to its last consumer, which so gets
//! uniquely-owned storage, not a deep clone. A top-level `Source` moves its
//! binding out at its last reference. A consumer of shared storage copies
//! what it keeps (the survivors of its filter), never the whole value.
//!
//! Every kernel reports the lowest run it fails in and the walk goes on
//! below it, so an error is the one a group-at-a-time evaluation meets
//! first: the lowest failing group in key order, its first failing
//! operator ([`Cut`]). A failure in the first run, and so any failure at
//! the top level, returns at once.
//!
//! An execution runs on its caller's thread. The engine is the unmodified
//! single-node DSMS of paper §III-C: a map-reduce job gets its parallelism
//! from the partitions, one embedded DSMS per reduce task.

use crate::batch::EventBatch;
use crate::error::{Result, TemporalError};
use crate::operators::{self, BatchRuns, Cut};
use crate::plan::{LogicalPlan, NodeId, Operator};
use crate::stream::EventStream;
use relation::Schema;
use rustc_hash::FxHashMap;

/// Named row-stream bindings for a plan's `Source` leaves: what
/// [`execute_single`] takes.
pub type Bindings = FxHashMap<String, EventStream>;

/// Named batch bindings for a plan's `Source` leaves: what [`execute`]
/// takes.
pub type BatchBindings = FxHashMap<String, EventBatch>;

/// Build bindings from `(name, stream)` pairs.
pub fn bindings(pairs: Vec<(&str, EventStream)>) -> Bindings {
    pairs.into_iter().map(|(n, s)| (n.to_string(), s)).collect()
}

/// What one execution observed about its own kernels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Groups formed by GroupApply operators (nested ones included).
    pub groups: u64,
    /// GroupApply sub-plan nodes that had no segmented kernel and ran once
    /// per run through the generic adapter ([`Operator::segmented`] says
    /// which), counted once per GroupApply evaluation.
    pub per_run_nodes: u64,
    /// Of `groups`, those aggregated by the pane kernel
    /// ([`operators::pane`]): their sub-plan was a tumbling, combinable
    /// hopping aggregate, so no runs were laid out and nothing was swept.
    pub pane_groups: u64,
    /// Runs the aggregate sweep had to sort its endpoints for (a top-level
    /// aggregate is one run): their starts or their ends were out of time
    /// order. A run in order is merged in one pass instead.
    pub sorted_runs: u64,
    /// Columns a TemporalJoin did not build because its one consumer, a
    /// fragment that projects, reads none of them.
    pub join_columns_pruned: u64,
}

/// Execute `plan` taking **ownership** of its batch bindings, on the
/// calling thread; returns one batch per plan output. Each `Source` binding
/// is moved out of the map at its last top-level reference in the plan
/// (earlier references, and every reference inside a GroupApply sub-plan,
/// share it, O(1)): when the caller held the only handle, the first
/// in-place operator mutates the decoded partition directly — zero
/// survivor clones. Each root comes back by value.
pub fn execute(plan: &LogicalPlan, sources: BatchBindings) -> Result<(Vec<EventBatch>, ExecStats)> {
    // Free when the plan was fused at construction (every embedded caller
    // does): the pass returns the borrowed plan before cloning anything.
    let plan = crate::plan::fuse_plan(plan)?;
    let mut sources = Sources::Owned(sources, source_refs(&plan));
    let mut stats = ExecStats::default();
    let roots = walk(&plan, None, &mut sources, &mut stats)?;
    Ok((
        roots.into_iter().map(BatchRuns::into_ordered).collect(),
        stats,
    ))
}

/// Execute a single-output plan over row streams and return its only root
/// as a stream: the row convenience over [`execute`].
///
/// The caller keeps its bindings. Each one the plan reads is laid out once
/// as a batch that this call owns outright, so the first in-place operator
/// over a source compacts it without cloning survivors. A binding whose
/// cells do not inhabit their declared types is an input error naming the
/// source, the row and the column.
pub fn execute_single(plan: &LogicalPlan, sources: &Bindings) -> Result<EventStream> {
    let refs = source_refs(plan);
    let batches = (sources.iter())
        .filter(|(name, _)| refs.contains_key(*name))
        .map(|(name, stream)| {
            let what = format!("source `{name}`");
            let batch = EventBatch::lay_out(&what, stream.schema().clone(), stream.events(), None)?;
            Ok((name.clone(), batch))
        })
        .collect::<Result<BatchBindings>>()?;
    let (mut roots, _) = execute(plan, batches)?;
    if roots.len() != 1 {
        return Err(TemporalError::Plan(format!(
            "expected a single-output plan, got {} outputs",
            roots.len()
        )));
    }
    Ok(roots.pop().expect("one root").into_stream())
}

/// `Source` references per binding name, counted across the whole plan,
/// GroupApply sub-plans included.
fn source_refs(plan: &LogicalPlan) -> FxHashMap<String, u32> {
    let mut refs = FxHashMap::default();
    collect_source_refs(plan, &mut refs);
    refs
}

fn collect_source_refs(plan: &LogicalPlan, refs: &mut FxHashMap<String, u32>) {
    for node in plan.nodes() {
        match &node.op {
            Operator::Source { name, .. } => *refs.entry(name.clone()).or_insert(0) += 1,
            Operator::GroupApply { subplan, .. } => collect_source_refs(subplan, refs),
            _ => {}
        }
    }
}

/// The bindings a walk's `Source` nodes read.
pub(crate) enum Sources<'s> {
    /// The top level's own, with the `Source` references left per name
    /// ([`source_refs`]): a binding moves out at its last reference, and
    /// one a sub-plan reads never reaches its last.
    Owned(BatchBindings, FxHashMap<String, u32>),
    /// A sub-plan's: the outer bindings, the same batch for every run.
    Outer(&'s BatchBindings),
}

impl Sources<'_> {
    /// Every binding still held: what a GroupApply's sub-plan reads.
    fn outer(&self) -> &BatchBindings {
        match self {
            Sources::Owned(map, _) => map,
            Sources::Outer(map) => map,
        }
    }

    /// The binding of a `Source` node, schema-checked: moved out at its
    /// last top-level reference — when the caller gave up its handle,
    /// downstream in-place operators own the storage outright — and an
    /// O(1) clone otherwise.
    fn take(&mut self, name: &str, schema: &Schema) -> Result<EventBatch> {
        let data = (self.outer().get(name))
            .ok_or_else(|| TemporalError::Input(format!("no binding for source `{name}`")))?;
        if data.schema() != schema {
            return Err(TemporalError::Input(format!(
                "source `{name}` bound with schema {}, plan expects {schema}",
                data.schema()
            )));
        }
        if let Sources::Owned(map, refs) = self {
            let left = (refs.get_mut(name)).expect("source_refs covers every Source in the plan");
            *left -= 1;
            if *left == 0 {
                return Ok(map.remove(name).expect("binding just seen"));
            }
        }
        Ok(self.outer()[name].clone())
    }
}

/// Node `id`'s value for one of its consumers: an O(1) clone (an Arc bump
/// plus the permutation and bounds) for all but the last, which takes it by
/// move — so in-place kernels see unique storage.
fn take_value(values: &mut [Option<BatchRuns>], consumers: &mut [usize], id: NodeId) -> BatchRuns {
    consumers[id] -= 1;
    let value = match consumers[id] {
        0 => values[id].take(),
        _ => values[id].clone(),
    };
    value.expect("inputs are evaluated before their consumers")
}

/// Evaluate a (fused) `plan` **once**, node by node in a group-at-a-time
/// evaluation's order, and return its roots, run for run. `input` is a
/// GroupApply sub-plan's `GroupInput`, laid out as runs; the top level has
/// none and is one run.
///
/// Fragments, aggregates and unions run their run-aware kernels over the
/// whole batch, read through its run permutation. Everything else
/// ([`Operator::segmented`] is false) goes through the one per-run adapter,
/// [`per_run`]. A kernel that fails records its lowest failing run in the
/// walk's [`Cut`]; every value read afterwards is cut to the runs below it,
/// and the recorded error is returned at the end.
pub(crate) fn walk(
    plan: &LogicalPlan,
    mut input: Option<BatchRuns>,
    sources: &mut Sources,
    stats: &mut ExecStats,
) -> Result<Vec<BatchRuns>> {
    let runs = input.as_ref().map_or(1, BatchRuns::len);
    let mut consumers = plan.consumer_counts();
    let mut values: Vec<Option<BatchRuns>> = vec![None; plan.nodes().len()];
    let mut cut = Cut::none();
    for id in plan.topo_order() {
        let node = plan.node(id);
        let mut inputs: Vec<BatchRuns> = (node.inputs.iter())
            .map(|&i| {
                let mut value = take_value(&mut values, &mut consumers, i);
                value.truncate(cut.limit);
                value
            })
            .collect();
        let out = match &node.op {
            // Plan validation admits exactly one such leaf per sub-plan.
            Operator::GroupInput { .. } => {
                let mut input = input.take().ok_or_else(|| {
                    TemporalError::Plan("GroupInput outside a GroupApply sub-plan".into())
                })?;
                input.truncate(cut.limit);
                input
            }
            Operator::FusedFragment { steps } => {
                let input = inputs.pop().expect("fused fragment has one input");
                operators::fused_batch_runs(input, steps, &mut cut)?
            }
            Operator::Aggregate { aggs } => {
                let input = inputs.pop().expect("aggregate has one input");
                operators::aggregate_batch_runs(&input, aggs, &mut cut, stats)?
            }
            Operator::Union => operators::union_walk(inputs)?,
            op => {
                debug_assert!(!op.segmented(), "{} has a kernel above", op.name());
                // Only the columns a join's one consumer reads, when that
                // consumer projects ([`LogicalPlan::columns_read`]).
                let reads = match op {
                    Operator::TemporalJoin { .. } => plan.columns_read(id),
                    _ => None,
                };
                if let Some(reads) = &reads {
                    stats.join_columns_pruned += (plan.schema_of(id).len() - reads.len()) as u64;
                }
                let runs = runs.min(cut.limit);
                per_run(op, reads.as_deref(), inputs, runs, sources, stats, &mut cut)?
            }
        };
        values[id] = Some(out);
    }
    if let Some(err) = cut.err {
        return Err(err);
    }
    let roots = plan.roots().iter();
    Ok(roots
        .map(|&root| take_value(&mut values, &mut consumers, root))
        .collect())
}

/// The generic adapter for operators without a run-aware kernel: each
/// input's run `r` as a batch of its own, the operator called on them
/// ([`apply_unsegmented`]), its output appended as run `r` of the result.
/// One run takes every input whole, by move, and gives the output back as
/// it is. An operator that fails cuts its run.
fn per_run(
    op: &Operator,
    reads: Option<&[usize]>,
    inputs: Vec<BatchRuns>,
    runs: usize,
    sources: &mut Sources,
    stats: &mut ExecStats,
    cut: &mut Cut,
) -> Result<BatchRuns> {
    if runs == 1 {
        // A failure here is in run 0, which returns at once.
        let inputs = inputs.into_iter().map(BatchRuns::into_ordered).collect();
        let out = apply_unsegmented(op, reads, inputs, sources, stats)?;
        return Ok(BatchRuns::one(out));
    }
    let mut out: Option<EventBatch> = None;
    let mut bounds = Vec::with_capacity(runs + 1);
    bounds.push(0);
    for r in 0..runs {
        let slices = inputs.iter().map(|i| i.run(r)).collect();
        let run = match apply_unsegmented(op, reads, slices, sources, stats) {
            Ok(run) => run,
            Err(err) => {
                cut.fail(r, err)?;
                break;
            }
        };
        // The first run is the base: a pruned join's output has only the
        // columns its consumer reads.
        let out = match &mut out {
            Some(out) => {
                out.append(run)?;
                out
            }
            None => out.insert(run),
        };
        bounds.push(out.len());
    }
    let out = out.expect("run 0 either succeeds or returns its error");
    Ok(BatchRuns::in_order(out, bounds))
}

/// The operators with no run-aware kernel, on whole batches: what the walk
/// calls once per run. A `Source` is the same batch for every run; a join
/// builds the output columns at `reads` (all when `None`).
fn apply_unsegmented(
    op: &Operator,
    reads: Option<&[usize]>,
    mut inputs: Vec<EventBatch>,
    sources: &mut Sources,
    stats: &mut ExecStats,
) -> Result<EventBatch> {
    let mut pop = |what: &str| inputs.pop().expect(what);
    Ok(match op {
        Operator::Source { name, schema } => sources.take(name, schema)?,
        Operator::GroupApply { keys, subplan } => {
            let input = pop("group_apply has one input");
            operators::group_apply(input, keys, subplan, sources.outer(), stats)?
        }
        Operator::TemporalJoin { keys, residual } => {
            let right = pop("temporal_join has two inputs");
            let left = pop("temporal_join has two inputs");
            operators::temporal_join(&left, &right, keys, residual.as_ref(), reads)?
        }
        Operator::AntiSemiJoin { keys } => {
            let right = pop("anti_semi_join has two inputs");
            let left = pop("anti_semi_join has two inputs");
            operators::anti_semi_join(&left, &right, keys)?
        }
        Operator::HopUdo { hop, width, udo } => {
            operators::hop_udo(&pop("hop_udo has one input"), *hop, *width, udo)?
        }
        Operator::SpreadGrid { grid } => {
            operators::spread_grid(&pop("spread_grid has one input"), *grid)?
        }
        Operator::Filter { .. } | Operator::Project { .. } | Operator::AlterLifetime { .. } => {
            unreachable!("fuse_plan wraps every stateless operator in a FusedFragment")
        }
        op @ (Operator::GroupInput { .. }
        | Operator::FusedFragment { .. }
        | Operator::Aggregate { .. }
        | Operator::Union) => {
            unreachable!("the walk runs {} itself", op.name())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::event::Event;
    use crate::expr::{col, lit, Expr, Func};
    use crate::plan::Query;
    use crate::time::Lifetime;
    use relation::schema::{ColumnType, Field};
    use relation::{row, Schema};
    use std::sync::Arc;

    fn bt_schema() -> Schema {
        Schema::timestamped(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("UserId", ColumnType::Str),
            Field::new("KwAdId", ColumnType::Str),
        ])
    }

    fn sample_events() -> EventStream {
        // Clicks (StreamId=1) on two ads by two users, plus a search.
        EventStream::new(
            bt_schema(),
            vec![
                Event::point(10, row![10i64, 1i32, "u1", "adA"]),
                Event::point(20, row![20i64, 1i32, "u2", "adA"]),
                Event::point(25, row![25i64, 2i32, "u1", "cars"]),
                Event::point(200, row![200i64, 1i32, "u1", "adB"]),
            ],
        )
    }

    #[test]
    fn running_click_count_end_to_end() {
        // Example 1: per-ad click count over a 100-tick window.
        let q = Query::new();
        let out = q
            .source("input", bt_schema())
            .filter(col("StreamId").eq(lit(1)))
            .group_apply(&["KwAdId"], |g| g.window(100).count("ClickCount"));
        let plan = q.build(vec![out]).unwrap();
        let result = execute_single(&plan, &bindings(vec![("input", sample_events())])).unwrap();
        let n = result.normalize();
        assert_eq!(
            n.events(),
            &[
                Event::interval(10, 20, row!["adA", 1i64]),
                Event::interval(20, 110, row!["adA", 2i64]),
                Event::interval(110, 120, row!["adA", 1i64]),
                Event::interval(200, 300, row!["adB", 1i64]),
            ]
        );
    }

    #[test]
    fn multicast_subplans_run_once_and_agree() {
        // One source feeding two filters then a union: the source node must
        // be evaluated once (cache) and results must be consistent.
        let q = Query::new();
        let input = q.source("input", bt_schema());
        let clicks = input.clone().filter(col("StreamId").eq(lit(1)));
        let searches = input.filter(col("StreamId").eq(lit(2)));
        let out = clicks.union(searches);
        let plan = q.build(vec![out]).unwrap();
        let result = execute_single(&plan, &bindings(vec![("input", sample_events())])).unwrap();
        assert_eq!(result.len(), 4);
    }

    #[test]
    fn multi_output_plans_return_each_root() {
        let q = Query::new();
        let input = q.source("input", bt_schema());
        let clicks = input.clone().filter(col("StreamId").eq(lit(1)));
        let searches = input.filter(col("StreamId").eq(lit(2)));
        let plan = q.build(vec![clicks, searches]).unwrap();
        let (outs, _) = execute(&plan, batch_bindings(sample_events())).unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].len(), 3);
        assert_eq!(outs[1].len(), 1);
    }

    #[test]
    fn missing_binding_is_an_error() {
        let q = Query::new();
        let out = q.source("input", bt_schema()).count("N");
        let plan = q.build(vec![out]).unwrap();
        assert!(matches!(
            execute_single(&plan, &bindings(vec![])),
            Err(TemporalError::Input(_))
        ));
    }

    #[test]
    fn wrong_source_schema_is_an_error() {
        let q = Query::new();
        let out = q.source("input", bt_schema()).count("N");
        let plan = q.build(vec![out]).unwrap();
        let wrong = EventStream::empty(Schema::timestamped(vec![]));
        assert!(execute_single(&plan, &bindings(vec![("input", wrong)])).is_err());
    }

    #[test]
    fn nested_group_apply() {
        // Group by user, then inside each user group, group by keyword.
        let q = Query::new();
        let out = q
            .source("input", bt_schema())
            .group_apply(&["UserId"], |g| {
                g.group_apply(&["KwAdId"], |k| k.window(50).count("N"))
            });
        let plan = q.build(vec![out]).unwrap();
        let result = execute_single(&plan, &bindings(vec![("input", sample_events())])).unwrap();
        let n = result.normalize();
        assert_eq!(n.schema().names(), vec!["UserId", "KwAdId", "N"]);
        assert!(n
            .events()
            .iter()
            .any(|e| e.payload == row!["u1", "cars", 1i64] && e.lifetime == Lifetime::new(25, 75)));
    }

    #[test]
    fn stats_count_groups_and_the_nodes_without_a_kernel() {
        let run = |plan: &LogicalPlan| execute(plan, batch_bindings(sample_events())).unwrap().1;
        // Window → count per ad: three groups, every node segmented.
        let q = Query::new();
        let out = q
            .source("input", bt_schema())
            .group_apply(&["KwAdId"], |g| g.window(100).count("N"));
        let stats = run(&q.build(vec![out]).unwrap());
        assert_eq!((stats.groups, stats.per_run_nodes), (3, 0));
        // Nested: the inner GroupApply is the outer walk's one per-run node
        // (two users), and each of its calls forms that user's ad groups.
        let q = Query::new();
        let out = q
            .source("input", bt_schema())
            .group_apply(&["UserId"], |g| {
                g.group_apply(&["KwAdId"], |k| {
                    k.hop_udo(50, 50, Arc::new(crate::udo::WindowCountUdo))
                })
            });
        let stats = run(&q.build(vec![out]).unwrap());
        assert_eq!((stats.groups, stats.per_run_nodes), (2 + 3 + 1, 1 + 2));
        assert_eq!(stats.pane_groups, 0);
        // A tumbling count, with the hop written above the GroupApply: the
        // plan is normalised on entry and the pane kernel takes all three
        // groups; a sliding hop walks the runs.
        for (hop, width, pane_groups) in [(100, 100, 3), (50, 100, 0)] {
            let q = Query::new();
            let out = q
                .source("input", bt_schema())
                .hop_window(hop, width)
                .group_apply(&["KwAdId"], |g| g.count("N"));
            let stats = run(&q.build(vec![out]).unwrap());
            assert_eq!((stats.groups, stats.pane_groups), (3, pane_groups));
        }
    }

    #[test]
    fn physical_order_does_not_change_results() {
        let q = Query::new();
        let out = q
            .source("input", bt_schema())
            .filter(col("StreamId").eq(lit(1)))
            .group_apply(&["KwAdId"], |g| g.window(100).count("N"));
        let plan = q.build(vec![out]).unwrap();

        let forward = sample_events();
        let mut reversed_events = forward.events().to_vec();
        reversed_events.reverse();
        let reversed = EventStream::new(bt_schema(), reversed_events);

        let a = execute_single(&plan, &bindings(vec![("input", forward)])).unwrap();
        let b = execute_single(&plan, &bindings(vec![("input", reversed)])).unwrap();
        assert!(a.same_relation(&b));
    }

    /// `stream` bound to `input`, as [`execute_single`] lays it out.
    fn batch_bindings(stream: EventStream) -> BatchBindings {
        let batch = EventBatch::from_stream(&stream).unwrap();
        [("input".to_string(), batch)].into_iter().collect()
    }

    #[test]
    fn min2_is_typed_by_both_arguments() {
        // `min2(Int, Long)` is a Long column whichever operand wins, so the
        // projection has its column form on every row.
        let q = Query::new();
        let out = q.source("input", bt_schema()).project(vec![(
            "M".to_string(),
            Expr::call(
                Func::Min2,
                vec![col("StreamId"), col("Time").sub(lit(15i64))],
            ),
        )]);
        let plan = q.build(vec![out]).unwrap();
        let out = execute_single(&plan, &bindings(vec![("input", sample_events())])).unwrap();
        let ms: Vec<_> = out
            .events()
            .iter()
            .map(|e| e.payload.get(0).clone())
            .collect();
        let long = relation::Value::Long;
        assert_eq!(ms, vec![long(-5), long(1), long(2), long(1)]);
    }

    /// `sample_events()` bound to `input`, plus a second handle to the same
    /// storage: what a caller that keeps its binding holds.
    fn shared_binding() -> (BatchBindings, EventBatch) {
        let srcs = batch_bindings(sample_events());
        let kept = srcs["input"].clone();
        (srcs, kept)
    }

    #[test]
    fn multicast_values_move_out_on_their_last_consumer() {
        // A diamond over one binding — `Source → {Filter → Shift, Filter} →
        // Union` — with the binding read through one `Source` node (two
        // consumers) and through two (two references). Either way: the
        // walk's root is `execute_single`'s, the bindings are drained (the
        // binding moved out by its last reference), and the storage the
        // caller still holds is untouched although both branches mutate
        // "their" input.
        for two_source_nodes in [false, true] {
            let q = Query::new();
            let input = q.source("input", bt_schema());
            let other = match two_source_nodes {
                true => q.source("input", bt_schema()),
                false => input.clone(),
            };
            let a = input.filter(col("StreamId").eq(lit(1))).shift(5);
            let b = other.filter(col("UserId").eq(lit("u1")));
            let plan = q.build(vec![a.union(b)]).unwrap();
            let sources = plan.nodes().iter().filter(|n| n.op.name() == "Source");
            assert_eq!(sources.count(), 1 + two_source_nodes as usize);
            let srcs = bindings(vec![("input", sample_events())]);
            let reference = execute_single(&plan, &srcs).unwrap();
            assert_eq!(reference.len(), 3 + 3);
            let plan = crate::plan::fuse_plan(&plan).unwrap();
            let (srcs, kept) = shared_binding();
            let mut sources = Sources::Owned(srcs, source_refs(&plan));
            let mut stats = ExecStats::default();
            let mut roots = walk(&plan, None, &mut sources, &mut stats).unwrap();
            let root = roots.pop().unwrap();
            assert_eq!((roots.len(), root.len()), (0, 1), "one root, one run");
            assert_eq!(root.into_ordered().into_stream(), reference);
            let Sources::Owned(left, refs) = sources else {
                unreachable!("the top level owns its bindings")
            };
            assert!(
                left.is_empty(),
                "the binding is drained at its last reference"
            );
            assert_eq!(refs["input"], 0);
            assert_eq!(stats, ExecStats::default());
            assert_eq!(kept.into_stream(), sample_events());
        }
    }

    #[test]
    fn the_last_consumer_of_a_shared_batch_owns_its_storage() {
        // `input` feeds a filter, then a lifetime shift — its last
        // consumer, which rewrites lifetimes in place. Given the only
        // handle, the shift writes into the binding's own storage; with
        // the caller holding another, it copies the lifetimes and leaves
        // the caller's alone.
        let q = Query::new();
        let input = q.source("input", bt_schema());
        let searches = input.clone().filter(col("StreamId").eq(lit(2)));
        let plan = q.build(vec![searches, input.shift(5)]).unwrap();
        for keep in [false, true] {
            let (srcs, kept) = shared_binding();
            let storage = kept.vt().as_ptr();
            let kept = keep.then_some(kept);
            let (roots, _) = execute(&plan, srcs).unwrap();
            assert_eq!((roots[0].len(), roots[1].len()), (1, 4));
            assert_eq!(roots[1].vt(), &[15, 25, 30, 205]);
            assert_eq!(roots[1].vt().as_ptr() == storage, !keep, "keep: {keep}");
            if let Some(kept) = kept {
                assert_eq!(kept.into_stream(), sample_events());
            }
        }
        // The hand-out itself: an O(1) clone for every consumer but the
        // last, which takes the value by move.
        let (srcs, kept) = shared_binding();
        drop(srcs);
        let mut values = vec![Some(BatchRuns::one(kept))];
        let mut consumers = vec![2];
        let first = take_value(&mut values, &mut consumers, 0);
        let mut last = take_value(&mut values, &mut consumers, 0);
        assert!(values[0].is_none(), "moved out, not cloned");
        assert!(!last.batch.is_unique());
        drop(first);
        assert!(last.batch.is_unique());
    }

    /// Each user's events joined against the whole log inside the
    /// sub-plan (the builder has no spelling for a sub-plan `Source`, so
    /// the arena is assembled by hand), and the log read again above it by
    /// a fragment that re-stamps lifetimes.
    fn pinned_plan() -> LogicalPlan {
        use crate::plan::{LifetimeOp, PlanNode};
        let node = |op, inputs| PlanNode { op, inputs };
        let source = || Operator::Source {
            name: "input".into(),
            schema: bt_schema(),
        };
        let sub = LogicalPlan::from_parts(
            vec![
                node(
                    Operator::GroupInput {
                        schema: bt_schema(),
                    },
                    vec![],
                ),
                node(source(), vec![]),
                node(
                    Operator::TemporalJoin {
                        keys: vec![("KwAdId".into(), "KwAdId".into())],
                        residual: None,
                    },
                    vec![0, 1],
                ),
                node(
                    Operator::Project {
                        exprs: vec![
                            ("Ad".into(), col("KwAdId")),
                            ("Other".into(), col("UserId.r")),
                        ],
                    },
                    vec![2],
                ),
            ],
            vec![3],
        )
        .unwrap();
        LogicalPlan::from_parts(
            vec![
                node(source(), vec![]),
                node(
                    Operator::GroupApply {
                        keys: vec!["UserId".into()],
                        subplan: Arc::new(sub),
                    },
                    vec![0],
                ),
                node(
                    Operator::Filter {
                        predicate: col("StreamId").eq(lit(1)),
                    },
                    vec![0],
                ),
                node(
                    Operator::AlterLifetime {
                        op: LifetimeOp::Shift(7),
                    },
                    vec![2],
                ),
            ],
            vec![1, 3],
        )
        .unwrap()
    }

    #[test]
    fn a_join_inside_a_sub_plan_builds_only_what_its_consumer_reads() {
        // The sub-plan's join has one consumer, a projection reading 2 of
        // its 8 columns: the 6 others are not built, counted once for the
        // GroupApply's two runs, as the top level counts its joins.
        let plan = pinned_plan();
        let (roots, stats) = execute(&plan, batch_bindings(sample_events())).unwrap();
        assert_eq!(stats.join_columns_pruned, 6);
        assert_eq!((stats.groups, stats.per_run_nodes), (2, 2));
        let joined = roots[0].clone().into_stream().normalize();
        assert_eq!(joined.schema().names(), vec!["UserId", "Ad", "Other"]);
        assert_eq!(joined.len(), 4, "each event meets itself only");
        assert!(joined
            .events()
            .iter()
            .any(|e| e.payload == row!["u2", "adA", "u2"]));
    }

    #[test]
    fn a_binding_read_at_the_top_level_and_inside_a_sub_plan_is_not_aliased() {
        // The sub-plan reads the binding once per run, so it stays in the
        // map, shared, while the top level's fragment mutates its copy.
        let plan = pinned_plan();
        let (srcs, kept) = shared_binding();
        let (roots, stats) = execute(&plan, srcs).unwrap();
        let roots: Vec<_> = roots.into_iter().map(EventBatch::into_stream).collect();
        assert_eq!((roots[0].len(), roots[1].len()), (4, 3));
        assert_eq!(stats.per_run_nodes, 2);
        assert_eq!(kept.into_stream(), sample_events());
        let shifted = roots[1].events().iter().map(|e| e.start());
        assert_eq!(shifted.collect::<Vec<_>>(), vec![17, 27, 207]);
    }

    #[test]
    fn a_lifetime_moved_past_the_last_instant_fails_the_query_by_name() {
        // An interval event ending at the last instant, through the three
        // operators that used to panic, wrap into the past or drop it, and
        // a tumbling hop — at the top level and inside a GroupApply (where
        // the tumbling count is the pane kernel's shape).
        let late = EventStream::new(
            bt_schema(),
            vec![Event::interval(
                i64::MAX - 5,
                i64::MAX,
                row![0i64, 1i32, "u1", "adA"],
            )],
        );
        type Alter = fn(crate::plan::StreamHandle) -> crate::plan::StreamHandle;
        let ops: [(Alter, &str); 4] = [
            (|h| h.window(10), "Window w=10"),
            (|h| h.shift(10), "Shift 10"),
            (|h| h.hop_window(7, 100), "HopWindow h=7 w=100"),
            // Tumbling: grouped, the pane kernel's shape.
            (|h| h.hop_window(10, 10), "HopWindow h=10 w=10"),
        ];
        for (alter, desc) in ops {
            let want = TemporalError::TimeOverflow(format!(
                "{desc} moves [{}, {}) past the range of time",
                i64::MAX - 5,
                i64::MAX
            ));
            for grouped in [false, true] {
                let q = Query::new();
                let input = q.source("input", bt_schema());
                let out = match grouped {
                    false => alter(input).count("N"),
                    true => input.group_apply(&["UserId"], |g| alter(g).count("N")),
                };
                let plan = q.build(vec![out]).unwrap();
                let srcs = bindings(vec![("input", late.clone())]);
                assert_eq!(execute_single(&plan, &srcs), Err(want.clone()));
            }
        }
    }

    #[test]
    fn an_ill_typed_binding_is_a_named_input_error() {
        // `ill` declares a Str its second event holds an Int in. A name the
        // plan never reads is not laid out, so it is not checked either.
        let ill = EventStream::new(
            bt_schema(),
            vec![
                Event::point(5, row![5i64, 1i32, "u1", "adA"]),
                Event::point(6, row![6i64, 1i32, 7i32, "adA"]),
            ],
        );
        let q = Query::new();
        let out = (q.source("input", bt_schema())).union(q.source("ill", bt_schema()));
        let plan = q.build(vec![out]).unwrap();
        let srcs = bindings(vec![("input", sample_events()), ("ill", ill.clone())]);
        assert_eq!(
            execute_single(&plan, &srcs),
            Err(TemporalError::Input(
                "source `ill`: row 1: type mismatch in `UserId`: expected str, got int".into()
            ))
        );
        let q = Query::new();
        let out = q.source("input", bt_schema()).count("N");
        let plan = q.build(vec![out]).unwrap();
        let srcs = bindings(vec![("input", sample_events()), ("unread", ill)]);
        assert!(execute_single(&plan, &srcs).is_ok());
    }
}
