//! Batch execution of CQ plans.
//!
//! Evaluates a [`LogicalPlan`] bottom-up over fully materialized input
//! streams, memoizing each node's output so DAG fan-out (Multicast) computes
//! shared sub-plans once. This is the engine TiMR embeds inside every
//! map-reduce reducer (paper §III-A step 4): the reducer binds its partition
//! of rows to the fragment's `Source` leaves and returns the root stream.
//!
//! There is one engine. Every plan is fused on entry
//! ([`crate::plan::fuse_plan`], free on an already-fused plan), and each
//! operator runs in the layout its input arrives in: a [`StreamData::Batch`]
//! flows through the fused SIMD kernels, a [`StreamData::Rows`] through the
//! row operators. The executor never re-lays-out a binding — whoever
//! decoded the data chose the layout, and transposing a stream the caller
//! already holds in row form never pays (DESIGN.md, "The engine").
//! [`execute_reference`] is the independent oracle tests compare against.
//!
//! Execution is consumer-count aware: every operator receives its inputs
//! **by value**. A single-consumer intermediate is moved straight into its
//! parent, so in-place operators (the row forms of Filter, AlterLifetime, …)
//! mutate it with no copy; a Multicast result is cached with its
//! remaining-consumer count, handed out as O(1) Arc-backed clones, and
//! *moved out* of the cache to its final consumer — the last consumer gets
//! uniquely-owned storage, not a deep clone.

use crate::batch::EventBatch;
use crate::error::{Result, TemporalError};
use crate::operators;
use crate::plan::{FusedStep, LogicalPlan, NodeId, Operator};
use crate::stream::EventStream;
use relation::Schema;
use rustc_hash::FxHashMap;

/// The pool type [`execute_data`] fans GroupApply groups out on.
pub use pool::WorkerPool;

/// Named input bindings for a plan's `Source` leaves.
pub type Bindings = FxHashMap<String, EventStream>;

/// Named input bindings in either physical layout (see [`StreamData`]).
pub type DataBindings = FxHashMap<String, StreamData>;

/// Event data in either physical layout.
///
/// `Rows` is the universal form every operator accepts; `Batch` is the
/// column-major form the TiMR bridge decodes shuffled extents into, consumed
/// by the operators with columnar kernels (fused fragments, Aggregate
/// argument evaluation, GroupApply key hashing). Operators without a kernel
/// convert a batch back to rows at their input, and a fragment that cannot
/// stay columnar finishes on rows — so every plan runs on either layout
/// with byte-identical output.
#[derive(Debug, Clone)]
pub enum StreamData {
    /// Row-major event storage.
    Rows(EventStream),
    /// Column-major event storage.
    Batch(EventBatch),
}

impl StreamData {
    /// Payload schema, whichever the layout.
    pub fn schema(&self) -> &Schema {
        match self {
            StreamData::Rows(s) => s.schema(),
            StreamData::Batch(b) => b.schema(),
        }
    }

    /// Convert to the row-major stream (free for `Rows`).
    pub fn into_stream(self) -> EventStream {
        match self {
            StreamData::Rows(s) => s,
            StreamData::Batch(b) => b.into_stream(),
        }
    }

    /// Convert to row form in place (used before a binding is shared, so
    /// every subsequent clone is an O(1) Arc bump instead of a deep batch
    /// copy).
    pub fn make_rows(&mut self) {
        if matches!(self, StreamData::Batch(_)) {
            let data = std::mem::replace(
                self,
                StreamData::Rows(EventStream::empty(Schema::new(Vec::new()))),
            );
            *self = StreamData::Rows(data.into_stream());
        }
    }
}

/// Wrap row bindings in the layout-agnostic form.
pub fn data_bindings(sources: Bindings) -> DataBindings {
    sources
        .into_iter()
        .map(|(n, s)| (n, StreamData::Rows(s)))
        .collect()
}

/// Build bindings from `(name, stream)` pairs.
pub fn bindings(pairs: Vec<(&str, EventStream)>) -> Bindings {
    pairs.into_iter().map(|(n, s)| (n.to_string(), s)).collect()
}

/// What one execution observed about its own layout decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Fused fragments that started on a batch and finished on the row
    /// operators because a projection's result had no dense column form
    /// (mixed runtime types across rows).
    pub row_fallbacks: u64,
}

/// Execute `plan` against `sources`; returns one stream per plan output.
///
/// The caller keeps its bindings, so every source stream stays shared
/// (Arc-backed) and the first operator over each source copies survivors.
/// Callers that rebuild bindings per invocation — the embedded DSMS
/// reducer decodes a fresh partition every reduce call — should use
/// [`execute_data`] instead to hand the executor unique storage.
pub fn execute(plan: &LogicalPlan, sources: &Bindings) -> Result<Vec<EventStream>> {
    // O(1) per stream: Arc bumps.
    let owned = data_bindings(sources.clone());
    let (roots, _) = execute_data(plan, owned, &WorkerPool::sequential())?;
    Ok(roots.into_iter().map(StreamData::into_stream).collect())
}

/// Execute a single-output plan and return its only stream.
pub fn execute_single(plan: &LogicalPlan, sources: &Bindings) -> Result<EventStream> {
    single(execute(plan, sources)?)
}

/// Execute `plan` taking **ownership** of layout-agnostic bindings, fanning
/// GroupApply groups out on `pool`. Each `Source` binding is moved out of
/// the map at its last reference in the plan, in the layout it arrived in:
/// a batch runs the columnar kernels, and when the caller held the only
/// handle to a row stream the first in-place operator mutates the decoded
/// partition directly — zero survivor clones. Each root comes back in the
/// layout its last operator ran in, for the caller to consume by value.
/// Output is byte-identical for every pool width (groups merge in
/// sorted-key order) and either layout.
pub fn execute_data(
    plan: &LogicalPlan,
    sources: DataBindings,
    pool: &WorkerPool,
) -> Result<(Vec<StreamData>, ExecStats)> {
    // Free when the plan was fused at construction (every embedded caller
    // does): the pass returns the borrowed plan before cloning anything.
    let plan = crate::plan::fuse_plan(plan)?;
    let mut exec = Executor {
        source_refs: source_refs(&plan),
        sources,
        group_input: None,
        cache: FxHashMap::default(),
        counts: consumer_counts(&plan),
        pool,
        stats: ExecStats::default(),
    };
    let outputs = plan
        .roots()
        .iter()
        .map(|&root| exec.eval(&plan, root))
        .collect::<Result<Vec<_>>>()?;
    Ok((outputs, exec.stats))
}

/// Execute `plan` on the reference operators ([`operators::interpreted`]):
/// per-row name resolution, clone-based streams, no fusion, no batches, no
/// pool. This is the single-node oracle the property tests, benches and
/// experiments compare the engine (and, through the cluster, whole TiMR
/// jobs) against; output is byte-identical to [`execute`]. No job or
/// cluster configuration reaches it.
pub fn execute_reference(plan: &LogicalPlan, sources: &Bindings) -> Result<Vec<EventStream>> {
    let mut memo = FxHashMap::default();
    plan.roots()
        .iter()
        .map(|&root| reference_eval(plan, root, sources, None, &mut memo))
        .collect()
}

fn reference_eval(
    plan: &LogicalPlan,
    id: NodeId,
    sources: &Bindings,
    group_input: Option<&EventStream>,
    memo: &mut FxHashMap<NodeId, EventStream>,
) -> Result<EventStream> {
    use operators::interpreted as reference;
    if let Some(done) = memo.get(&id) {
        return Ok(done.clone());
    }
    let node = plan.node(id);
    let inputs = node
        .inputs
        .iter()
        .map(|&input| reference_eval(plan, input, sources, group_input, memo))
        .collect::<Result<Vec<_>>>()?;
    let out = match &node.op {
        Operator::Source { name, schema } => {
            let stream = sources
                .get(name)
                .ok_or_else(|| TemporalError::Input(format!("no binding for source `{name}`")))?;
            check_source_schema(name, stream.schema(), schema)?;
            stream.clone()
        }
        Operator::GroupInput { .. } => group_input.ok_or_else(outside_group_apply)?.clone(),
        Operator::Filter { predicate } => reference::filter(&inputs[0], predicate)?,
        Operator::Project { exprs } => reference::project(&inputs[0], exprs)?,
        Operator::AlterLifetime { op } => reference::alter_lifetime(&inputs[0], op)?,
        Operator::FusedFragment { steps } => {
            let mut stream = inputs[0].clone();
            for step in steps {
                stream = match step {
                    FusedStep::Filter { predicate } => reference::filter(&stream, predicate)?,
                    FusedStep::Project { exprs } => reference::project(&stream, exprs)?,
                    FusedStep::AlterLifetime { op } => reference::alter_lifetime(&stream, op)?,
                };
            }
            stream
        }
        Operator::Aggregate { aggs } => reference::aggregate(&inputs[0], aggs)?,
        Operator::GroupApply { keys, subplan } => {
            let mut run = |sub: &LogicalPlan, group: EventStream| {
                let mut memo = FxHashMap::default();
                reference_eval(sub, sub.roots()[0], sources, Some(&group), &mut memo)
            };
            reference::group_apply(&inputs[0], keys, subplan, &mut run)?
        }
        Operator::Union => reference::union(&inputs.iter().collect::<Vec<_>>())?,
        Operator::TemporalJoin { keys, residual } => {
            reference::temporal_join(&inputs[0], &inputs[1], keys, residual.as_ref())?
        }
        Operator::AntiSemiJoin { keys } => reference::anti_semi_join(&inputs[0], &inputs[1], keys)?,
        Operator::HopUdo { hop, width, udo } => reference::hop_udo(&inputs[0], *hop, *width, udo)?,
        // Expansion has one implementation (see `operators::spread_grid`).
        Operator::SpreadGrid { grid } => operators::spread_grid(inputs[0].clone(), *grid)?,
    };
    memo.insert(id, out.clone());
    Ok(out)
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

fn single(mut outputs: Vec<EventStream>) -> Result<EventStream> {
    if outputs.len() != 1 {
        return Err(TemporalError::Plan(format!(
            "expected a single-output plan, got {} outputs",
            outputs.len()
        )));
    }
    Ok(outputs.pop().unwrap())
}

struct Executor<'a> {
    /// Owned source bindings, drained as the plan consumes them: a stream
    /// is moved out at its last `Source` reference.
    sources: DataBindings,
    /// Remaining `Source`-node references per binding name. Names also
    /// referenced inside GroupApply sub-plans are pinned to `u32::MAX`
    /// (evaluated once per group — they must never be moved out).
    source_refs: FxHashMap<String, u32>,
    /// Bound stream for `GroupInput` when running a GroupApply sub-plan.
    group_input: Option<&'a EventStream>,
    /// Multicast results awaiting further consumers: stream + how many
    /// consumers have not taken it yet.
    cache: FxHashMap<NodeId, (EventStream, u32)>,
    counts: Vec<u32>,
    /// Worker pool GroupApply fans groups out on.
    pool: &'a WorkerPool,
    stats: ExecStats,
}

/// Number of consumers per node, **including plan roots** (each root is
/// consumed once by the caller). Only nodes with more than one consumer —
/// Multicast fan-out — need their results cached; single-consumer
/// intermediates are moved, not cloned, and the cached entry is moved out
/// on its last consumer.
fn consumer_counts(plan: &LogicalPlan) -> Vec<u32> {
    let mut counts = vec![0u32; plan.nodes().len()];
    for node in plan.nodes() {
        for &input in &node.inputs {
            counts[input] += 1;
        }
    }
    for &root in plan.roots() {
        counts[root] += 1;
    }
    counts
}

/// Remaining `Source` references per binding name, counted across the
/// whole plan. A name referenced inside a GroupApply sub-plan is pinned
/// to `u32::MAX`: the sub-plan runs once per group, so its sources can
/// never be drained from the outer bindings.
fn source_refs(plan: &LogicalPlan) -> FxHashMap<String, u32> {
    let mut refs = FxHashMap::default();
    collect_source_refs(plan, false, &mut refs);
    refs
}

fn collect_source_refs(plan: &LogicalPlan, pin: bool, refs: &mut FxHashMap<String, u32>) {
    for node in plan.nodes() {
        match &node.op {
            Operator::Source { name, .. } => {
                let entry = refs.entry(name.clone()).or_insert(0);
                *entry = if pin {
                    u32::MAX
                } else {
                    entry.saturating_add(1)
                };
            }
            Operator::GroupApply { subplan, .. } => {
                collect_source_refs(subplan, true, refs);
            }
            _ => {}
        }
    }
}

impl<'a> Executor<'a> {
    fn eval(&mut self, plan: &LogicalPlan, id: NodeId) -> Result<StreamData> {
        if let Some((stream, remaining)) = self.cache.get_mut(&id) {
            *remaining -= 1;
            if *remaining == 0 {
                // Last consumer: move the stream out instead of cloning,
                // so downstream in-place operators get unique ownership.
                let (stream, _) = self.cache.remove(&id).expect("entry just seen");
                return Ok(StreamData::Rows(stream));
            }
            return Ok(StreamData::Rows(stream.clone())); // O(1): Arc-backed storage
        }
        let node = plan.node(id);
        let mut inputs = Vec::with_capacity(node.inputs.len());
        for &input in &node.inputs {
            inputs.push(self.eval(plan, input)?);
        }
        let out = self.apply(&node.op, inputs)?;
        let consumers = self.counts.get(id).copied().unwrap_or(0);
        if consumers > 1 {
            // Multicast results are cached in row form so each further
            // consumer takes an O(1) Arc clone, never a deep batch copy.
            let stream = out.into_stream();
            self.cache.insert(id, (stream.clone(), consumers - 1));
            return Ok(StreamData::Rows(stream));
        }
        Ok(out)
    }

    fn apply(&mut self, op: &Operator, mut inputs: Vec<StreamData>) -> Result<StreamData> {
        Ok(match op {
            Operator::Source { name, schema } => {
                let data = self.sources.get(name).ok_or_else(|| {
                    TemporalError::Input(format!("no binding for source `{name}`"))
                })?;
                check_source_schema(name, data.schema(), schema)?;
                let remaining = self
                    .source_refs
                    .get_mut(name)
                    .expect("source_refs covers every Source in the plan");
                if *remaining != u32::MAX {
                    *remaining -= 1;
                }
                if *remaining == 0 {
                    // Last reference: move the binding out in the layout it
                    // arrived in. When the caller gave up its handle,
                    // downstream in-place operators own the storage outright.
                    self.sources.remove(name).expect("binding just seen")
                } else {
                    // Shared reference: force row form in place so this and
                    // every later clone is an O(1) Arc bump.
                    let data = self.sources.get_mut(name).expect("binding just seen");
                    data.make_rows();
                    data.clone()
                }
            }
            Operator::GroupInput { .. } => {
                StreamData::Rows(self.group_input.ok_or_else(outside_group_apply)?.clone())
            }
            Operator::Filter { .. } | Operator::Project { .. } | Operator::AlterLifetime { .. } => {
                unreachable!("fuse_plan wraps every stateless operator in a FusedFragment")
            }
            Operator::FusedFragment { steps } => {
                match inputs.pop().expect("fused fragment has one input") {
                    StreamData::Batch(b) => {
                        let out = operators::fused_fragment_batch(b, steps)?;
                        if matches!(out, StreamData::Rows(_)) {
                            self.stats.row_fallbacks += 1;
                        }
                        out
                    }
                    StreamData::Rows(s) => {
                        StreamData::Rows(operators::fused_fragment_rows(s, steps)?)
                    }
                }
            }
            Operator::Aggregate { aggs } => {
                StreamData::Rows(match inputs.pop().expect("aggregate has one input") {
                    // Batch input: arguments evaluate through the reusable
                    // scratch-row loop, lifetimes sweep straight off the
                    // columnar vectors — no stream materialization.
                    StreamData::Batch(b) => operators::aggregate_batch(&b, aggs)?,
                    StreamData::Rows(s) => operators::aggregate(&s, aggs)?,
                })
            }
            Operator::GroupApply { keys, subplan } => {
                let input = inputs.pop().expect("group_apply has one input");
                // Hoisted out of the per-group closure: the ref/consumer
                // tables are recomputed per plan, not per group, and the
                // sub-bindings stay empty unless the sub-plan actually
                // names outer sources (rare — sub-plans read GroupInput).
                let sub_refs = source_refs(subplan);
                let sub_counts = consumer_counts(subplan);
                let sub_sources = if sub_refs.is_empty() {
                    DataBindings::default()
                } else {
                    // Shared once per group: force row form so the per-group
                    // clones below are O(1) Arc bumps.
                    let mut shared = self.sources.clone(); // O(1) per rows stream
                    for data in shared.values_mut() {
                        data.make_rows();
                    }
                    shared
                };
                let pool = self.pool;
                // `Fn`, not `FnMut`: groups run concurrently on the pool,
                // each with its own inner Executor over shared (Arc-backed)
                // sub-bindings. Nested GroupApplies reuse the same pool
                // handle; its chunked scheduler just sees more tasks. Groups
                // and sub-bindings are rows, so no inner fragment can fall
                // back and the inner stats stay zero.
                let run = |sub: &LogicalPlan, group: EventStream| {
                    let mut inner = Executor {
                        sources: sub_sources.clone(),
                        source_refs: sub_refs.clone(),
                        group_input: Some(&group),
                        cache: FxHashMap::default(),
                        counts: sub_counts.clone(),
                        pool,
                        stats: ExecStats::default(),
                    };
                    inner.eval(sub, sub.roots()[0]).map(StreamData::into_stream)
                };
                StreamData::Rows(match input {
                    StreamData::Batch(b) => {
                        operators::group_apply_batch(b, keys, subplan, pool, &run)?
                    }
                    StreamData::Rows(s) => operators::group_apply(s, keys, subplan, pool, &run)?,
                })
            }
            Operator::Union => StreamData::Rows(operators::union(
                inputs.into_iter().map(StreamData::into_stream).collect(),
            )?),
            Operator::TemporalJoin { keys, residual } => {
                let right = inputs
                    .pop()
                    .expect("temporal_join has two inputs")
                    .into_stream();
                let left = inputs
                    .pop()
                    .expect("temporal_join has two inputs")
                    .into_stream();
                StreamData::Rows(operators::temporal_join(
                    &left,
                    &right,
                    keys,
                    residual.as_ref(),
                )?)
            }
            Operator::AntiSemiJoin { keys } => {
                let right = inputs
                    .pop()
                    .expect("anti_semi_join has two inputs")
                    .into_stream();
                let left = inputs
                    .pop()
                    .expect("anti_semi_join has two inputs")
                    .into_stream();
                StreamData::Rows(operators::anti_semi_join(left, &right, keys)?)
            }
            Operator::HopUdo { hop, width, udo } => {
                let input = inputs.pop().expect("hop_udo has one input").into_stream();
                StreamData::Rows(operators::hop_udo(input, *hop, *width, udo)?)
            }
            Operator::SpreadGrid { grid } => {
                let input = inputs
                    .pop()
                    .expect("spread_grid has one input")
                    .into_stream();
                StreamData::Rows(operators::spread_grid(input, *grid)?)
            }
        })
    }
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
        let outs = execute(&plan, &bindings(vec![("input", sample_events())])).unwrap();
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

    /// Run `plan` on the engine with the input bound as rows and as a
    /// pre-decoded batch, and on the reference operators; all three must be
    /// byte-identical event vectors, not merely the same relation — the
    /// repeatability requirement for restarted reducers.
    fn assert_layouts_and_reference_agree(plan: &LogicalPlan) {
        let srcs = bindings(vec![("input", sample_events())]);
        let rows = execute_single(plan, &srcs).unwrap();
        let batch = EventBatch::from_stream(&sample_events()).unwrap();
        let mut batch_srcs = DataBindings::default();
        batch_srcs.insert("input".to_string(), StreamData::Batch(batch));
        let (on_batch, stats) = execute_data(plan, batch_srcs, &WorkerPool::sequential()).unwrap();
        let reference = single(execute_reference(plan, &srcs).unwrap()).unwrap();
        assert_eq!(rows, reference);
        let on_batch = on_batch.into_iter().map(StreamData::into_stream).collect();
        assert_eq!(single(on_batch).unwrap(), reference);
        assert_eq!(stats.row_fallbacks, 0);
    }

    #[test]
    fn engine_and_reference_agree_exactly() {
        let q = Query::new();
        let input = q.source("input", bt_schema());
        let clicks = input.clone().filter(col("StreamId").eq(lit(1)));
        let searches = input.filter(col("StreamId").eq(lit(2)));
        let out = clicks
            .union(searches)
            .group_apply(&["UserId", "KwAdId"], |g| g.window(100).count("N"));
        assert_layouts_and_reference_agree(&q.build(vec![out]).unwrap());
    }

    #[test]
    fn batch_bindings_run_the_kernels_on_single_chain_plans() {
        // Filter → project → window chain: the whole prefix is one fused
        // fragment, which runs on the kernels when the binding is a batch.
        let q = Query::new();
        let out = q
            .source("input", bt_schema())
            .filter(col("StreamId").eq(lit(1)))
            .project(vec![
                ("KwAdId".to_string(), col("KwAdId")),
                ("T2".to_string(), col("Time").add(lit(1i64))),
            ])
            .group_apply(&["KwAdId"], |g| g.window(100).count("N"));
        assert_layouts_and_reference_agree(&q.build(vec![out]).unwrap());
    }

    #[test]
    fn mixed_type_projection_falls_back_to_rows_and_is_counted() {
        // `min2` keeps the chosen operand's runtime type, so Int-vs-Long
        // rows mix types in one output column: no dense column form.
        let q = Query::new();
        let out = q.source("input", bt_schema()).project(vec![(
            "M".to_string(),
            Expr::call(
                Func::Min2,
                vec![col("StreamId"), col("Time").sub(lit(15i64))],
            ),
        )]);
        let plan = q.build(vec![out]).unwrap();
        let batch = EventBatch::from_stream(&sample_events()).unwrap();
        let mut srcs = DataBindings::default();
        srcs.insert("input".to_string(), StreamData::Batch(batch));
        let (out, stats) = execute_data(&plan, srcs, &WorkerPool::sequential()).unwrap();
        assert_eq!(stats.row_fallbacks, 1);
        let out: Vec<EventStream> = out.into_iter().map(StreamData::into_stream).collect();
        let reference =
            execute_reference(&plan, &bindings(vec![("input", sample_events())])).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn multicast_cache_moves_out_on_last_consumer() {
        // A diamond (source → two filters → union) evaluated through the
        // counting cache must still produce the right result and leave the
        // cache empty (every entry moved out by its last consumer).
        let q = Query::new();
        let input = q.source("input", bt_schema());
        let a = input.clone().filter(col("StreamId").eq(lit(1)));
        let b = input.filter(col("StreamId").ge(lit(1)));
        let out = a.union(b);
        let plan = q.build(vec![out]).unwrap();
        let plan = crate::plan::fuse_plan(&plan).unwrap();
        let srcs = bindings(vec![("input", sample_events())]);
        let mut exec = Executor {
            source_refs: source_refs(&plan),
            sources: data_bindings(srcs),
            group_input: None,
            cache: FxHashMap::default(),
            counts: consumer_counts(&plan),
            pool: &WorkerPool::sequential(),
            stats: ExecStats::default(),
        };
        let result = exec.eval(&plan, plan.roots()[0]).unwrap().into_stream();
        assert_eq!(result.len(), 7); // 3 clicks + all 4
        assert!(
            exec.cache.is_empty(),
            "all multicast entries should be moved out by their last consumer"
        );
    }
}
