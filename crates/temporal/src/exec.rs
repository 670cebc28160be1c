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
//! row operators. **A value keeps the layout it arrived in; the binary
//! operators build columns.** Inside [`execute_data`] nothing re-lays-out a
//! binding — whoever decoded the data chose the layout — and a value with
//! several consumers is shared as it is, batch or rows. The one binder is
//! at the row entry: [`execute`] / [`execute_single`] lay each row binding
//! out once as a batch ([`data_bindings`]) unless it has no column form or
//! a GroupApply sub-plan reads it (DESIGN.md, "Who chooses the layout").
//! TemporalJoin, AntiSemiJoin and Union read either layout where it lies
//! and emit batches (the join always, the other two when their inputs are
//! batches). GroupApply groups a batch on its columns and walks its
//! sub-plan over the batch it is handed: its fragments, aggregates and
//! unions stay on the columns and a batch root comes back keyed. What
//! still needs rows — the UDOs, SpreadGrid, and inside a sub-plan the
//! joins, a nested GroupApply and a sub-plan `Source` — transposes at its
//! own input and says so in [`ExecStats::transposed_events`].
//! The tests hold the engine to a naive snapshot evaluator that shares no
//! code with it (`tests/common/oracle.rs`).
//!
//! Execution is consumer-count aware: every operator receives its inputs
//! **by value**. A single-consumer intermediate is moved straight into its
//! parent, so in-place operators (the row forms of Filter, AlterLifetime, …,
//! a batch fragment's compaction) mutate it with no copy; a Multicast result
//! is cached with its remaining-consumer count, handed out as O(1)
//! Arc-backed clones in either layout, and *moved out* of the cache to its
//! final consumer — the last consumer gets uniquely-owned storage, not a
//! deep clone. A consumer of shared storage copies what it keeps (the
//! survivors of its filter), never the whole value.
//!
//! A GroupApply sub-plan is not executed per group: [`walk_runs`] evaluates
//! it once, node by node, over all the groups laid out as key-ordered runs
//! (see `operators::group_apply`), in the layout the input arrives in — a
//! batch as one run-order permutation of its rows, nothing gathered —
//! unless the sub-plan is a tumbling hopping aggregate of combinable
//! aggregates, which GroupApply runs as one hash aggregation over (group,
//! cell) without laying anything out (`operators::pane`). The plan alone
//! decides; a walk over a batch that meets an error walks the row runs
//! instead, so an error is the one a group-at-a-time evaluation meets
//! first: the lowest failing group in key order, its first failing
//! operator.
//!
//! An execution runs on its caller's thread. The engine is the unmodified
//! single-node DSMS of paper §III-C: a map-reduce job gets its parallelism
//! from the partitions, one embedded DSMS per reduce task.

use crate::batch::EventBatch;
use crate::error::{Result, TemporalError};
use crate::expr::Expr;
use crate::operators::{self, Cut, Runs, RunsData};
use crate::plan::{LogicalPlan, NodeId, Operator};
use crate::stream::EventStream;
use relation::Schema;
use rustc_hash::FxHashMap;

/// Named input bindings for a plan's `Source` leaves.
pub type Bindings = FxHashMap<String, EventStream>;

/// Named input bindings in either physical layout (see [`StreamData`]).
pub type DataBindings = FxHashMap<String, StreamData>;

/// Event data in either physical layout.
///
/// `Rows` is the universal form every operator accepts; `Batch` is the
/// column-major form the TiMR bridge decodes shuffled extents into, consumed
/// by the operators with columnar kernels (fused fragments, Aggregate, and
/// GroupApply's grouping, its pane kernel and its segmented walk). Batches
/// are produced by fused fragments over a batch, by the binary operators
/// (TemporalJoin from any inputs; AntiSemiJoin and Union from batch inputs)
/// and by GroupApply's walk over a batch whose root is still one (key
/// columns, then the sub-plan's columns). The UDOs and SpreadGrid convert a
/// batch back to rows at their input, and so does a sub-plan node with no
/// run-aware kernel; a fragment, join, union or aggregate whose result has
/// no dense column form finishes on rows, and a GroupApply walk that meets
/// an error starts over on rows — so every plan runs on either layout with
/// byte-identical output. Both forms are `Arc`-backed: a clone is O(1).
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

    /// Number of events, whichever the layout.
    pub fn len(&self) -> usize {
        match self {
            StreamData::Rows(s) => s.len(),
            StreamData::Batch(b) => b.len(),
        }
    }

    /// True when there are no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Convert to row form in place: a binding a GroupApply sub-plan reads
    /// is sliced per run by the row operators.
    fn make_rows(&mut self, stats: &mut ExecStats) {
        if matches!(self, StreamData::Batch(_)) {
            let data = std::mem::replace(
                self,
                StreamData::Rows(EventStream::empty(Schema::new(Vec::new()))),
            );
            *self = StreamData::Rows(stats.transpose(data));
        }
    }
}

/// Lay row bindings out for `plan`, once each: a stream `plan` reads at the
/// top level becomes a batch, so the columnar kernels run from its
/// `Source` on, on storage this call owns. A stream whose cells do not
/// inhabit their declared types has no column form and stays rows; so does
/// one a GroupApply sub-plan reads, which the row operators slice per run
/// (it would be transposed there and back).
pub fn data_bindings(plan: &LogicalPlan, sources: Bindings) -> DataBindings {
    let refs = source_refs(plan);
    sources
        .into_iter()
        .map(|(name, stream)| {
            let batch = match refs.get(&name) {
                Some(&r) if r != u32::MAX => EventBatch::from_stream(&stream),
                _ => None,
            };
            let data = batch.map_or(StreamData::Rows(stream), StreamData::Batch);
            (name, data)
        })
        .collect()
}

/// Bind row streams as the rows they are, for [`execute_data`]: what a
/// caller uses to run the row operators, which [`execute`] would not.
pub fn row_bindings(sources: Bindings) -> DataBindings {
    sources
        .into_iter()
        .map(|(name, stream)| (name, StreamData::Rows(stream)))
        .collect()
}

/// Build bindings from `(name, stream)` pairs.
pub fn bindings(pairs: Vec<(&str, EventStream)>) -> Bindings {
    pairs.into_iter().map(|(n, s)| (n.to_string(), s)).collect()
}

/// What one execution observed about its own layout decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Operators that held columns and finished on rows because their
    /// result had no dense column form: a fused fragment whose projection
    /// mixed runtime types across rows, a TemporalJoin over an ill-typed row
    /// input, a Union of batches storing one column in two variants, an
    /// aggregate in a GroupApply walk whose value left its declared type (a
    /// `Double` in an integer `Sum`).
    pub row_fallbacks: u64,
    /// Events the executor itself converted from a batch to rows at an
    /// operator's input: HopUdo, SpreadGrid, a Union where the two layouts
    /// meet; inside a GroupApply walk, the runs handed to a node with no
    /// run-aware kernel (a join, a UDO, SpreadGrid, a nested GroupApply) and
    /// a per-run operator's batch output; the whole input of a walk over a
    /// batch that met an error or a projection with no dense column form; a
    /// batch binding a sub-plan reads. Zero means every batch stayed a batch
    /// from the binding to the root (the root's own conversion, if its
    /// consumer wants rows, is the caller's).
    pub transposed_events: u64,
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

impl ExecStats {
    /// `data` as a row stream, counting its events when that transposes a
    /// batch: the one way the engine turns columns into rows at an
    /// operator's input.
    pub(crate) fn transpose(&mut self, data: StreamData) -> EventStream {
        if let StreamData::Batch(b) = &data {
            self.transposed_events += b.len() as u64;
        }
        data.into_stream()
    }
}

/// Execute `plan` against `sources`; returns one stream per plan output.
///
/// The caller keeps its bindings. Each one is laid out once as a batch
/// ([`data_bindings`]) that this call owns outright, so the first in-place
/// operator over a source compacts it without cloning survivors; a binding
/// with no column form, or one a GroupApply sub-plan reads, is shared as
/// rows (an Arc bump). A caller that already holds its data in the layout
/// it wants — the embedded DSMS reducer decodes extents into batches, the
/// real-time session keeps rows — binds it through [`execute_data`].
pub fn execute(plan: &LogicalPlan, sources: &Bindings) -> Result<Vec<EventStream>> {
    // The clone is O(1) per stream: Arc bumps.
    let (roots, _) = execute_data(plan, data_bindings(plan, sources.clone()))?;
    Ok(roots.into_iter().map(StreamData::into_stream).collect())
}

/// Execute a single-output plan and return its only stream.
pub fn execute_single(plan: &LogicalPlan, sources: &Bindings) -> Result<EventStream> {
    single(execute(plan, sources)?)
}

/// Execute `plan` taking **ownership** of layout-agnostic bindings, on the
/// calling thread. Each `Source` binding is moved out of the map at its last
/// reference in the plan, in the layout it arrived in (earlier references
/// share it, O(1), in that same layout): a batch runs
/// the columnar kernels, and when the caller held the only handle the first
/// in-place operator mutates the decoded partition directly — zero survivor
/// clones. Each root comes back in the layout its last operator produced,
/// for the caller to consume by value.
/// Output is byte-identical in either layout.
pub fn execute_data(
    plan: &LogicalPlan,
    sources: DataBindings,
) -> Result<(Vec<StreamData>, ExecStats)> {
    // Free when the plan was fused at construction (every embedded caller
    // does): the pass returns the borrowed plan before cloning anything.
    let plan = crate::plan::fuse_plan(plan)?;
    let mut exec = Executor::new(&plan, sources);
    // A binding a sub-plan reads is read once per run, by row operators:
    // row form.
    for (name, refs) in &exec.source_refs {
        if *refs == u32::MAX {
            if let Some(data) = exec.sources.get_mut(name) {
                data.make_rows(&mut exec.stats);
            }
        }
    }
    let outputs = plan
        .roots()
        .iter()
        .map(|&root| exec.eval(&plan, root))
        .collect::<Result<Vec<_>>>()?;
    Ok((outputs, exec.stats))
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

/// The top-level evaluator: owns the bindings and the multicast cache.
struct Executor {
    /// Owned source bindings, drained as the plan consumes them: a stream
    /// is moved out at its last `Source` reference.
    sources: DataBindings,
    /// Remaining `Source`-node references per binding name. Names also
    /// referenced inside GroupApply sub-plans are pinned to `u32::MAX`
    /// (read by every run — they must never be moved out).
    source_refs: FxHashMap<String, u32>,
    /// Multicast results awaiting further consumers: the value, in the
    /// layout it was produced in, + how many consumers have not taken it yet.
    cache: FxHashMap<NodeId, (StreamData, usize)>,
    /// [`LogicalPlan::consumer_counts`]: each root is consumed once by the
    /// caller. Only nodes with more than one consumer — Multicast fan-out —
    /// are cached; single-consumer intermediates are moved, not cloned, and
    /// the cached entry is moved out on its last consumer.
    counts: Vec<usize>,
    stats: ExecStats,
}

/// Remaining `Source` references per binding name, counted across the
/// whole plan. A name referenced inside a GroupApply sub-plan is pinned
/// to `u32::MAX`: every run of the sub-plan reads it, so it can never be
/// drained from the outer bindings.
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

/// The binding of a `Source` node, schema-checked.
fn bound_source<'s>(
    sources: &'s DataBindings,
    name: &str,
    schema: &Schema,
) -> Result<&'s StreamData> {
    let data = sources
        .get(name)
        .ok_or_else(|| TemporalError::Input(format!("no binding for source `{name}`")))?;
    check_source_schema(name, data.schema(), schema)?;
    Ok(data)
}

impl Executor {
    fn new(plan: &LogicalPlan, sources: DataBindings) -> Executor {
        Executor {
            source_refs: source_refs(plan),
            sources,
            cache: FxHashMap::default(),
            counts: plan.consumer_counts(),
            stats: ExecStats::default(),
        }
    }

    fn eval(&mut self, plan: &LogicalPlan, id: NodeId) -> Result<StreamData> {
        if let Some((data, remaining)) = self.cache.get_mut(&id) {
            *remaining -= 1;
            if *remaining == 0 {
                // Last consumer: move the value out instead of cloning,
                // so downstream in-place operators get unique ownership.
                let (data, _) = self.cache.remove(&id).expect("entry just seen");
                return Ok(data);
            }
            return Ok(data.clone()); // O(1): Arc-backed storage, either layout
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
        mut inputs: Vec<StreamData>,
    ) -> Result<StreamData> {
        Ok(match &plan.node(id).op {
            Operator::Source { name, schema } => {
                bound_source(&self.sources, name, schema)?;
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
                    // Shared reference: an O(1) clone, as the binding is.
                    self.sources[name].clone()
                }
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
                // A batch is swept off its columns and lifetime vectors — no
                // stream materialization.
                let input = inputs.pop().expect("aggregate has one input");
                StreamData::Rows(operators::aggregate_data(&input, aggs, &mut self.stats)?)
            }
            Operator::Union => operators::union(inputs, &mut self.stats)?,
            Operator::TemporalJoin { keys, residual } => {
                // Only the columns its one consumer reads, when that
                // consumer projects ([`LogicalPlan::columns_read`]).
                let reads = plan.columns_read(id);
                join(
                    inputs,
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

/// The operators with no run-aware kernel, on whole streams: what the top
/// level calls once and a sub-plan walk calls once per run. The binary
/// operators and GroupApply read their inputs in the layout they arrive in;
/// the UDOs and SpreadGrid take rows. `sources` are the outer bindings: a
/// sub-plan `Source` is the same stream for every run.
fn apply_unsegmented(
    op: &Operator,
    mut inputs: Vec<StreamData>,
    sources: &DataBindings,
    stats: &mut ExecStats,
) -> Result<StreamData> {
    let mut pop = |what: &str| inputs.pop().expect(what);
    Ok(match op {
        // Reached inside sub-plans only (the executor drains its own).
        Operator::Source { name, schema } => bound_source(sources, name, schema)?.clone(),
        Operator::GroupApply { keys, subplan } => {
            let input = pop("group_apply has one input");
            operators::group_apply(input, keys, subplan, sources, stats)?
        }
        Operator::TemporalJoin { keys, residual } => {
            join(inputs, keys, residual.as_ref(), None, stats)?
        }
        Operator::AntiSemiJoin { keys } => {
            let right = pop("anti_semi_join has two inputs");
            let left = pop("anti_semi_join has two inputs");
            operators::anti_semi_join(left, &right, keys)?
        }
        Operator::HopUdo { hop, width, udo } => {
            let input = stats.transpose(pop("hop_udo has one input"));
            StreamData::Rows(operators::hop_udo(input, *hop, *width, udo)?)
        }
        Operator::SpreadGrid { grid } => {
            let input = stats.transpose(pop("spread_grid has one input"));
            StreamData::Rows(operators::spread_grid(input, *grid)?)
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
/// at `reads` (all when `None`), counting a row result and the columns it
/// did not build.
fn join(
    inputs: Vec<StreamData>,
    keys: &[(String, String)],
    residual: Option<&Expr>,
    reads: Option<&[usize]>,
    stats: &mut ExecStats,
) -> Result<StreamData> {
    let [left, right] = &inputs[..] else {
        unreachable!("temporal_join has two inputs")
    };
    let out = operators::temporal_join_reading(left, right, keys, residual, reads)?;
    match &out {
        StreamData::Rows(_) => stats.row_fallbacks += 1,
        StreamData::Batch(b) => {
            let joined = left.schema().len() + right.schema().len();
            stats.join_columns_pruned += (joined - b.schema().len()) as u64;
        }
    }
    Ok(out)
}

/// Evaluate a (fused) GroupApply `subplan` **once** over all of `input`'s
/// runs and return the root, run for run. Nodes are visited in a
/// group-at-a-time evaluation's order; a multi-consumer value is cloned (an
/// Arc bump plus the bounds, and a batch's permutation) for all but its last
/// consumer, which takes it by move, so in-place kernels see unique storage
/// exactly as at the top level.
///
/// The walk keeps the layout it is handed. Fragments, aggregates and unions
/// run their run-aware kernels over the whole stream — over rows, or over a
/// batch read through its run permutation (`BatchRuns`).
/// Everything else ([`Operator::segmented`] is false) goes through the one
/// per-run adapter, [`per_run`], which transposes batch runs once, at its
/// input. Over a batch, `Ok(None)` means the columnar walk gave up — a
/// projection with no dense column form — and any error, a recorded one
/// included, ends it at once: the caller walks the rows instead, which
/// report the error a group-at-a-time evaluation meets first. A walk over
/// rows never gives up.
pub(crate) fn walk_runs(
    subplan: &LogicalPlan,
    input: RunsData,
    sources: &DataBindings,
    stats: &mut ExecStats,
) -> Result<Option<RunsData>> {
    let runs = input.len();
    let columnar = matches!(input, RunsData::Batch(_));
    let mut consumers = subplan.consumer_counts();
    let mut input = Some(input);
    let mut values: Vec<Option<RunsData>> = vec![None; subplan.nodes().len()];
    let mut cut = Cut::none();
    let root = subplan.roots()[0];
    for id in subplan.topo_order() {
        let node = subplan.node(id);
        let mut inputs: Vec<RunsData> = node
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
            Operator::GroupInput { .. } => input.take().expect("one GroupInput per sub-plan"),
            Operator::FusedFragment { steps } => match inputs.pop() {
                Some(RunsData::Rows(input)) => {
                    RunsData::Rows(operators::fused_fragment_runs(input, steps, &mut cut)?)
                }
                Some(RunsData::Batch(input)) => match operators::fused_batch_runs(input, steps)? {
                    Some(out) => RunsData::Batch(out),
                    None => return Ok(None),
                },
                None => unreachable!("fused fragment has one input"),
            },
            Operator::Aggregate { aggs } => match inputs.pop() {
                Some(RunsData::Rows(input)) => RunsData::Rows(operators::aggregate_runs(
                    &input.stream,
                    &input.bounds,
                    aggs,
                    &mut cut,
                    stats,
                )?),
                Some(RunsData::Batch(input)) => {
                    operators::aggregate_batch_runs(&input, aggs, stats)?
                }
                None => unreachable!("aggregate has one input"),
            },
            Operator::Union => operators::union_walk(inputs, stats)?,
            op => {
                debug_assert!(!op.segmented(), "{} has a kernel above", op.name());
                let schema = subplan.schema_of(id).clone();
                let inputs = inputs.into_iter().map(|i| i.into_rows(stats)).collect();
                RunsData::Rows(per_run(
                    op,
                    inputs,
                    runs.min(cut.limit),
                    schema,
                    sources,
                    stats,
                    &mut cut,
                )?)
            }
        };
        if columnar && cut.err.is_some() {
            return Ok(None);
        }
        values[id] = Some(out);
    }
    match cut.err {
        Some(err) => Err(err),
        None => Ok(Some(
            values[root].take().expect("the root is evaluated last"),
        )),
    }
}

/// The generic adapter for operators without a run-aware kernel: slice each
/// input at the run, call the ordinary operator, append its output as the
/// run of the result. A node without inputs (a sub-plan `Source`) yields its
/// whole stream for every run.
fn per_run(
    op: &Operator,
    inputs: Vec<Runs>,
    runs: usize,
    schema: Schema,
    sources: &DataBindings,
    stats: &mut ExecStats,
    cut: &mut Cut,
) -> Result<Runs> {
    // Each input is consumed front to back, a run at a time.
    let mut sides: Vec<_> = inputs
        .into_iter()
        .map(|i| {
            let schema = i.stream.schema().clone();
            (schema, i.bounds, i.stream.into_events().into_iter())
        })
        .collect();
    let mut events = Vec::new();
    let mut bounds = Vec::with_capacity(runs + 1);
    bounds.push(0);
    for r in 0..runs {
        let slices = sides
            .iter_mut()
            .map(|(schema, b, events)| {
                let run = events.by_ref().take(b[r + 1] - b[r]).collect();
                StreamData::Rows(EventStream::new(schema.clone(), run))
            })
            .collect();
        match apply_unsegmented(op, slices, sources, stats) {
            Ok(out) => events.extend(stats.transpose(out).into_events()),
            Err(err) => {
                cut.fail(r, err)?;
                break;
            }
        }
        bounds.push(events.len());
    }
    Ok(Runs {
        stream: EventStream::new(schema, events),
        bounds,
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
    fn stats_count_groups_and_the_nodes_without_a_kernel() {
        let run = |plan: &LogicalPlan| {
            let srcs = row_bindings(bindings(vec![("input", sample_events())]));
            execute_data(plan, srcs).unwrap().1
        };
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

    /// Run `plan` on the engine with the input bound as rows and as a
    /// pre-decoded batch; both must be byte-identical event vectors, not
    /// merely the same relation — the repeatability requirement for
    /// restarted reducers.
    fn assert_layouts_agree(plan: &LogicalPlan) {
        let rows = on_rows(plan);
        let batch = EventBatch::from_stream(&sample_events()).unwrap();
        let mut batch_srcs = DataBindings::default();
        batch_srcs.insert("input".to_string(), StreamData::Batch(batch));
        let (on_batch, stats) = execute_data(plan, batch_srcs).unwrap();
        let on_batch: Vec<_> = on_batch.into_iter().map(StreamData::into_stream).collect();
        assert_eq!(on_batch, rows);
        assert_eq!(stats.row_fallbacks, 0);
    }

    /// `plan` over `sample_events()` bound as rows, which `execute` would
    /// lay out as a batch.
    fn on_rows(plan: &LogicalPlan) -> Vec<EventStream> {
        let srcs = row_bindings(bindings(vec![("input", sample_events())]));
        let (roots, _) = execute_data(plan, srcs).unwrap();
        roots.into_iter().map(StreamData::into_stream).collect()
    }

    #[test]
    fn engine_layouts_agree_exactly() {
        let q = Query::new();
        let input = q.source("input", bt_schema());
        let clicks = input.clone().filter(col("StreamId").eq(lit(1)));
        let searches = input.filter(col("StreamId").eq(lit(2)));
        let out = clicks
            .union(searches)
            .group_apply(&["UserId", "KwAdId"], |g| g.window(100).count("N"));
        assert_layouts_agree(&q.build(vec![out]).unwrap());
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
        assert_layouts_agree(&q.build(vec![out]).unwrap());
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
        let (out, stats) = execute_data(&plan, srcs).unwrap();
        assert_eq!(stats.row_fallbacks, 1);
        let out: Vec<EventStream> = out.into_iter().map(StreamData::into_stream).collect();
        assert_eq!(out, on_rows(&plan));
    }

    /// `sample_events()` bound to `input` in either layout, plus a second
    /// handle to the same storage: what a caller that keeps its binding holds.
    fn shared_binding(as_batch: bool) -> (DataBindings, StreamData) {
        let data = match as_batch {
            true => StreamData::Batch(EventBatch::from_stream(&sample_events()).unwrap()),
            false => StreamData::Rows(sample_events()),
        };
        let mut srcs = DataBindings::default();
        srcs.insert("input".to_string(), data.clone());
        (srcs, data)
    }

    #[test]
    fn multicast_cache_moves_out_on_last_consumer() {
        // A diamond over one binding — `Source → {Filter → Shift, Filter} →
        // Union` — in both layouts, with the binding read through one
        // `Source` node (two consumers: the counting cache) and through two
        // (two references: the bindings map). Either way: the row-bound
        // run's events, cache and bindings left empty (every value moved out by
        // its last consumer), no transposition, and the storage the caller
        // still holds untouched although both branches mutate "their" input.
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
            for as_batch in [false, true] {
                let (srcs, kept) = shared_binding(as_batch);
                let mut exec = Executor::new(&plan, srcs);
                let result = exec.eval(&plan, plan.roots()[0]).unwrap();
                assert_eq!(matches!(result, StreamData::Batch(_)), as_batch);
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
        let (srcs, kept) = shared_binding(true);
        drop(kept);
        let mut exec = Executor::new(&plan, srcs);
        let mut take = |id: NodeId| match exec.eval(&plan, id).unwrap() {
            StreamData::Batch(b) => b,
            StreamData::Rows(_) => panic!("a batch binding stays a batch"),
        };
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
    /// a fragment that re-stamps lifetimes: `input` is pinned.
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
        // The sub-plan pin keeps the binding in the map, as rows: the
        // per-run operators slice it.
        let plan = pinned_plan();
        let reference = execute(&plan, &bindings(vec![("input", sample_events())])).unwrap();
        assert_eq!((reference[0].len(), reference[1].len()), (4, 3));
        for as_batch in [false, true] {
            let (srcs, kept) = shared_binding(as_batch);
            let (roots, stats) = execute_data(&plan, srcs).unwrap();
            let roots: Vec<_> = roots.into_iter().map(StreamData::into_stream).collect();
            assert_eq!(roots, reference);
            assert_eq!(kept.into_stream(), sample_events());
            // The per-run joins answer in columns (each point event meets
            // itself), and a batch binding is transposed for the pin.
            assert_eq!(stats.transposed_events, 4 + if as_batch { 4 } else { 0 });
        }
    }

    #[test]
    fn a_lifetime_moved_past_the_last_instant_fails_the_query_by_name() {
        // An interval event ending at the last instant, through the three
        // operators that used to panic, wrap into the past or drop it, and
        // a tumbling hop — at the top level and inside a GroupApply (where
        // the tumbling count is the pane kernel's shape), bound as rows and
        // as a batch.
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
                let on_rows = execute_data(&plan, row_bindings(srcs));
                assert_eq!(on_rows.map(|_| ()), Err(want.clone()));
            }
        }
    }

    #[test]
    fn the_binder_lays_out_what_has_a_column_form_and_no_sub_plan_reads() {
        // `input` is well-typed and read at the top level: a batch. `ill`
        // declares a Str its events hold an Int in: rows. A name the plan
        // never reads is not laid out.
        let ill = EventStream::new(
            bt_schema(),
            vec![Event::point(5, row![5i64, 1i32, 7i32, "adA"])],
        );
        let q = Query::new();
        let out = (q.source("input", bt_schema())).union(q.source("ill", bt_schema()));
        let plan = q.build(vec![out]).unwrap();
        let srcs = bindings(vec![
            ("input", sample_events()),
            ("ill", ill),
            ("unread", sample_events()),
        ]);
        let bound = data_bindings(&plan, srcs.clone());
        let is_batch = |name: &str| matches!(bound[name], StreamData::Batch(_));
        assert!(is_batch("input"));
        assert!(!is_batch("ill") && !is_batch("unread"));
        // Either way, the events are those of the row-bound run.
        let on_rows = execute_data(&plan, row_bindings(srcs.clone())).unwrap().0;
        let on_rows: Vec<_> = on_rows.into_iter().map(StreamData::into_stream).collect();
        assert_eq!(execute(&plan, &srcs).unwrap(), on_rows);
        // A binding a sub-plan reads stays rows, though well-typed.
        let plan = pinned_plan();
        let bound = data_bindings(&plan, bindings(vec![("input", sample_events())]));
        assert!(matches!(bound["input"], StreamData::Rows(_)));
    }
}
