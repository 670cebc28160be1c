//! Batch execution of CQ plans.
//!
//! Evaluates a [`LogicalPlan`] bottom-up over fully materialized input
//! batches, memoizing each node's output so DAG fan-out (Multicast)
//! computes shared sub-plans once. This is the engine TiMR embeds inside
//! every map-reduce reducer (paper §III-A step 4): the reducer binds its
//! partition to the fragment's `Source` leaves and returns the root.
//!
//! There is one engine, one layout and one entry: [`execute`] takes batch
//! bindings and returns batch roots, and every value inside it is an
//! [`EventBatch`]. Every plan is fused on entry ([`crate::plan::fuse_plan`],
//! free on an already-fused plan), stateless chains run as fused SIMD
//! fragments, and the binary operators, the aggregates, GroupApply and a
//! UDO's windows read and write columns. [`execute_single`] is the one row
//! convenience: it lays each binding the plan reads out once as a batch —
//! a cell that does not inhabit its declared type is an input error naming
//! the source, the row and the column — and turns the one root back into
//! a stream. The tests hold the engine to a naive snapshot evaluator that
//! shares no code with it (`tests/common/oracle.rs`).
//!
//! Execution is consumer-count aware: every operator receives its inputs
//! **by value**. A single-consumer intermediate is moved straight into its
//! parent, so in-place operators (a fragment's compaction and lifetime
//! rewrite) mutate it with no copy; a Multicast result is cached with its
//! remaining-consumer count, handed out as O(1) Arc-backed clones, and
//! *moved out* of the cache to its final consumer — the last consumer gets
//! uniquely-owned storage, not a deep clone. A consumer of shared storage
//! copies what it keeps (the survivors of its filter), never the whole
//! value.
//!
//! A GroupApply sub-plan is not executed per group: [`walk_runs`] evaluates
//! it once, node by node, over all the groups laid out as key-ordered runs
//! of one batch (see `operators::group_apply`), unless the sub-plan is a
//! tumbling hopping aggregate of combinable aggregates, which GroupApply
//! runs as one hash aggregation over (group, cell) (`operators::pane`).
//! Every kernel of the walk reports the lowest run it fails in and the walk
//! goes on below it, so an error is the one a group-at-a-time evaluation
//! meets first: the lowest failing group in key order, its first failing
//! operator.
//!
//! An execution runs on its caller's thread. The engine is the unmodified
//! single-node DSMS of paper §III-C: a map-reduce job gets its parallelism
//! from the partitions, one embedded DSMS per reduce task.

use crate::batch::EventBatch;
use crate::error::{Result, TemporalError};
use crate::expr::Expr;
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
    let mut exec = Executor::new(&plan, sources);
    let outputs = plan
        .roots()
        .iter()
        .map(|&root| exec.eval(&plan, root))
        .collect::<Result<Vec<_>>>()?;
    Ok((outputs, exec.stats))
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

fn check_source_schema(name: &str, bound: &Schema, expected: &Schema) -> Result<()> {
    if bound != expected {
        return Err(TemporalError::Input(format!(
            "source `{name}` bound with schema {bound}, plan expects {expected}"
        )));
    }
    Ok(())
}

fn outside_group_apply() -> TemporalError {
    TemporalError::Plan("GroupInput outside a GroupApply sub-plan".into())
}

/// The top-level evaluator: owns the bindings and the multicast cache.
struct Executor {
    /// Owned source bindings, drained as the plan consumes them: a batch is
    /// moved out at its last `Source` reference.
    sources: BatchBindings,
    /// Remaining `Source`-node references per binding name, sub-plans
    /// included. Only the top level counts its references down, so a name
    /// a GroupApply sub-plan reads never reaches zero: every run reads it.
    source_refs: FxHashMap<String, u32>,
    /// Multicast results awaiting further consumers: the value + how many
    /// consumers have not taken it yet.
    cache: FxHashMap<NodeId, (EventBatch, usize)>,
    /// [`LogicalPlan::consumer_counts`]: each root is consumed once by the
    /// caller. Only nodes with more than one consumer — Multicast fan-out —
    /// are cached; single-consumer intermediates are moved, not cloned, and
    /// the cached entry is moved out on its last consumer.
    counts: Vec<usize>,
    stats: ExecStats,
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

/// The binding of a `Source` node, schema-checked.
fn bound_source<'s>(
    sources: &'s BatchBindings,
    name: &str,
    schema: &Schema,
) -> Result<&'s EventBatch> {
    let data = sources
        .get(name)
        .ok_or_else(|| TemporalError::Input(format!("no binding for source `{name}`")))?;
    check_source_schema(name, data.schema(), schema)?;
    Ok(data)
}

impl Executor {
    fn new(plan: &LogicalPlan, sources: BatchBindings) -> Executor {
        Executor {
            source_refs: source_refs(plan),
            sources,
            cache: FxHashMap::default(),
            counts: plan.consumer_counts(),
            stats: ExecStats::default(),
        }
    }

    fn eval(&mut self, plan: &LogicalPlan, id: NodeId) -> Result<EventBatch> {
        if let Some((data, remaining)) = self.cache.get_mut(&id) {
            *remaining -= 1;
            if *remaining == 0 {
                // Last consumer: move the value out instead of cloning,
                // so downstream in-place operators get unique ownership.
                let (data, _) = self.cache.remove(&id).expect("entry just seen");
                return Ok(data);
            }
            return Ok(data.clone()); // O(1): Arc-backed storage
        }
        let node = plan.node(id);
        let mut inputs = Vec::with_capacity(node.inputs.len());
        for &input in &node.inputs {
            inputs.push(self.eval(plan, input)?);
        }
        let out = self.apply(plan, id, inputs)?;
        let consumers = self.counts.get(id).copied().unwrap_or(0);
        if consumers > 1 {
            // Cached as produced: every further consumer takes an O(1) clone.
            self.cache.insert(id, (out.clone(), consumers - 1));
        }
        Ok(out)
    }

    fn apply(
        &mut self,
        plan: &LogicalPlan,
        id: NodeId,
        mut inputs: Vec<EventBatch>,
    ) -> Result<EventBatch> {
        Ok(match &plan.node(id).op {
            Operator::Source { name, schema } => {
                bound_source(&self.sources, name, schema)?;
                let remaining = self
                    .source_refs
                    .get_mut(name)
                    .expect("source_refs covers every Source in the plan");
                *remaining -= 1;
                if *remaining == 0 {
                    // Last reference: move the binding out. When the caller
                    // gave up its handle, downstream in-place operators own
                    // the storage outright.
                    self.sources.remove(name).expect("binding just seen")
                } else {
                    // Shared reference: an O(1) clone.
                    self.sources[name].clone()
                }
            }
            Operator::FusedFragment { steps } => {
                let input = inputs.pop().expect("fused fragment has one input");
                operators::fused_fragment(input, steps)?
            }
            Operator::Aggregate { aggs } => {
                let input = inputs.pop().expect("aggregate has one input");
                operators::aggregate(&input, aggs, &mut self.stats)?
            }
            Operator::Union => operators::union(inputs)?,
            Operator::TemporalJoin { keys, residual } => {
                // Only the columns its one consumer reads, when that
                // consumer projects ([`LogicalPlan::columns_read`]).
                let reads = plan.columns_read(id);
                join(
                    &inputs,
                    keys,
                    residual.as_ref(),
                    reads.as_deref(),
                    &mut self.stats,
                )?
            }
            op => apply_unsegmented(op, inputs, &self.sources, &mut self.stats)?,
        })
    }
}

/// The operators with no run-aware kernel, on whole batches: what the top
/// level calls once and a sub-plan walk calls once per run. `sources` are
/// the outer bindings: a sub-plan `Source` is the same batch for every run.
fn apply_unsegmented(
    op: &Operator,
    mut inputs: Vec<EventBatch>,
    sources: &BatchBindings,
    stats: &mut ExecStats,
) -> Result<EventBatch> {
    let mut pop = |what: &str| inputs.pop().expect(what);
    Ok(match op {
        // Reached inside sub-plans only (the executor drains its own).
        Operator::Source { name, schema } => bound_source(sources, name, schema)?.clone(),
        Operator::GroupApply { keys, subplan } => {
            let input = pop("group_apply has one input");
            operators::group_apply(input, keys, subplan, sources, stats)?
        }
        Operator::TemporalJoin { keys, residual } => {
            join(&inputs, keys, residual.as_ref(), None, stats)?
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
        Operator::GroupInput { .. } => return Err(outside_group_apply()),
        Operator::Filter { .. } | Operator::Project { .. } | Operator::AlterLifetime { .. } => {
            unreachable!("fuse_plan wraps every stateless operator in a FusedFragment")
        }
        Operator::FusedFragment { .. } | Operator::Aggregate { .. } | Operator::Union => {
            unreachable!("{} has a run-aware kernel", op.name())
        }
    })
}

/// A TemporalJoin of `inputs` (left, right) that builds the output columns
/// at `reads` (all when `None`), counting the columns it did not build.
fn join(
    inputs: &[EventBatch],
    keys: &[(String, String)],
    residual: Option<&Expr>,
    reads: Option<&[usize]>,
    stats: &mut ExecStats,
) -> Result<EventBatch> {
    let [left, right] = inputs else {
        unreachable!("temporal_join has two inputs")
    };
    let out = operators::temporal_join_reading(left, right, keys, residual, reads)?;
    let joined = left.schema().len() + right.schema().len();
    stats.join_columns_pruned += (joined - out.schema().len()) as u64;
    Ok(out)
}

/// Evaluate a (fused) GroupApply `subplan` **once** over all of `input`'s
/// runs and return the root, run for run. Nodes are visited in a
/// group-at-a-time evaluation's order; a multi-consumer value is cloned (an
/// Arc bump plus the permutation and bounds) for all but its last consumer,
/// which takes it by move, so in-place kernels see unique storage exactly
/// as at the top level.
///
/// Fragments, aggregates and unions run their run-aware kernels over the
/// whole batch, read through its run permutation. Everything else
/// ([`Operator::segmented`] is false) goes through the one per-run adapter,
/// [`per_run`]. A kernel that fails records its lowest failing run in the
/// walk's [`Cut`]; every value read afterwards is cut to the runs below it,
/// and the recorded error is returned at the end.
pub(crate) fn walk_runs(
    subplan: &LogicalPlan,
    input: BatchRuns,
    sources: &BatchBindings,
    stats: &mut ExecStats,
) -> Result<BatchRuns> {
    let runs = input.len();
    let mut consumers = subplan.consumer_counts();
    let mut input = Some(input);
    let mut values: Vec<Option<BatchRuns>> = vec![None; subplan.nodes().len()];
    let mut cut = Cut::none();
    let root = subplan.roots()[0];
    for id in subplan.topo_order() {
        let node = subplan.node(id);
        let mut inputs: Vec<BatchRuns> = node
            .inputs
            .iter()
            .map(|&i| {
                consumers[i] -= 1;
                let value = if consumers[i] == 0 {
                    values[i].take()
                } else {
                    values[i].clone()
                };
                let mut value = value.expect("inputs are evaluated before their consumers");
                value.truncate(cut.limit);
                value
            })
            .collect();
        let out = match &node.op {
            // Plan validation admits exactly one such leaf per sub-plan.
            Operator::GroupInput { .. } => {
                let mut input = input.take().expect("one GroupInput per sub-plan");
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
                let schema = subplan.schema_of(id).clone();
                per_run(
                    op,
                    inputs,
                    runs.min(cut.limit),
                    schema,
                    sources,
                    stats,
                    &mut cut,
                )?
            }
        };
        values[id] = Some(out);
    }
    match cut.err {
        Some(err) => Err(err),
        None => Ok(values[root].take().expect("the root is evaluated last")),
    }
}

/// The generic adapter for operators without a run-aware kernel: gather
/// each input's run into a batch of its own, call the ordinary operator,
/// append its output as the run of the result. A node without inputs (a
/// sub-plan `Source`) yields its whole batch — an O(1) clone — for every
/// run. An operator that fails cuts its run.
fn per_run(
    op: &Operator,
    inputs: Vec<BatchRuns>,
    runs: usize,
    schema: Schema,
    sources: &BatchBindings,
    stats: &mut ExecStats,
    cut: &mut Cut,
) -> Result<BatchRuns> {
    let mut out = EventBatch::empty(schema);
    let mut bounds = Vec::with_capacity(runs + 1);
    bounds.push(0);
    for r in 0..runs {
        let slices = inputs.iter().map(|i| i.run(r)).collect();
        match apply_unsegmented(op, slices, sources, stats) {
            Ok(run) => out.append(run)?,
            Err(err) => {
                cut.fail(r, err)?;
                break;
            }
        }
        bounds.push(out.len());
    }
    Ok(BatchRuns::in_order(out, bounds))
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
    fn multicast_cache_moves_out_on_last_consumer() {
        // A diamond over one binding — `Source → {Filter → Shift, Filter} →
        // Union` — with the binding read through one `Source` node (two
        // consumers: the counting cache) and through two (two references:
        // the bindings map). Either way: `execute_single`'s events, cache and
        // bindings left empty (every value moved out by its last consumer),
        // and the storage the caller still holds untouched although both
        // branches mutate "their" input.
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
            let mut exec = Executor::new(&plan, srcs);
            let result = exec.eval(&plan, plan.roots()[0]).unwrap();
            assert_eq!(result.into_stream(), reference);
            assert!(
                exec.cache.is_empty(),
                "all multicast entries should be moved out by their last consumer"
            );
            assert!(
                exec.sources.is_empty(),
                "the binding is drained at its last reference"
            );
            assert_eq!(exec.stats, ExecStats::default());
            assert_eq!(kept.into_stream(), sample_events());
        }
    }

    #[test]
    fn the_last_consumer_of_a_shared_batch_owns_its_storage() {
        // `input` is read twice, and so is the filter over its first
        // reference: every consumer but the last shares storage (an O(1)
        // clone), the last one is handed the only handle — so its fragment
        // compacts in place instead of gathering survivors.
        let q = Query::new();
        let input = q.source("input", bt_schema());
        let clicks = input.clone().filter(col("StreamId").eq(lit(1)));
        let out = clicks.clone().union(clicks).union(input);
        let plan = q.build(vec![out]).unwrap();
        let plan = crate::plan::fuse_plan(&plan).unwrap();
        let node_of = |name: &str| {
            (plan.nodes().iter())
                .position(|n| n.op.name() == name)
                .unwrap_or_else(|| panic!("no {name} in\n{plan}"))
        };
        let (srcs, kept) = shared_binding();
        drop(kept);
        let mut exec = Executor::new(&plan, srcs);
        let mut take = |id: NodeId| exec.eval(&plan, id).unwrap();
        let fragment = node_of("FusedFragment");
        let mut first = take(fragment);
        assert!(!first.is_unique(), "the cache holds the other handle");
        let mut last = take(fragment);
        assert!(!last.is_unique());
        drop(first);
        assert!(last.is_unique(), "moved out of the cache, not cloned");
        // The fragment took `input`'s first reference; the map still held it.
        let mut source = take(node_of("Source"));
        assert!(source.is_unique(), "moved out of the bindings");
        assert_eq!(source.len(), 4);
        assert_eq!(last.len(), 3);
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
