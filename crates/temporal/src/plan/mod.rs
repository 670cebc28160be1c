//! Continuous-query plans.
//!
//! A [`LogicalPlan`] is a DAG of temporal operators stored in an arena.
//! Fan-out (one node feeding several parents) *is* the paper's Multicast
//! operator; fan-in operators (Union, TemporalJoin, AntiSemiJoin) take
//! multiple input edges. Plans are built with the fluent [`Query`] builder
//! (the LINQ analogue from paper §III-A step 1), validated and
//! schema-inferred once at construction, and then executed by
//! [`crate::exec`] (batch), [`crate::rt`] (incremental), or compiled onto
//! map-reduce by the `timr` crate.

mod builder;
mod display;
mod fuse;
mod pushdown;
mod share;

pub use builder::{Query, StreamHandle};
pub(crate) use display::step_desc;
pub use fuse::fuse_plan;
pub use pushdown::{push_down, validate_mapper_plan, MapperPlan, NoPartial, PushDown};
pub use share::{
    explain_shared, factor_windows, fingerprint, share_plans, subtree_canon, MultiQueryPlan,
    ShareStats,
};
pub(crate) use share::{hopping_aggregate, per_event_aggregate, PerEventAggregate};

use crate::agg::AggExpr;
use crate::error::{Result, TemporalError};
use crate::expr::Expr;
use crate::time::Duration;
use crate::udo::UdoRef;
use relation::{ColumnType, Field, Schema};
use std::sync::Arc;

/// Index of a node within a plan's arena.
pub type NodeId = usize;

/// Lifetime transformations (the AlterLifetime operator, paper §II-A.2).
#[derive(Debug, Clone, PartialEq)]
pub enum LifetimeOp {
    /// Sliding window: `RE = LE + w`. An event at `t` is active during
    /// `[t, t + w)`, so at any instant `s` the active set holds events with
    /// timestamps in `(s - w, s]`.
    Window(Duration),
    /// Hopping window: quantize lifetimes to a grid so snapshots change only
    /// at multiples of `hop`; the snapshot at grid instant `T` holds events
    /// with timestamps in `(T - width, T]`.
    Hop {
        /// Report period.
        hop: Duration,
        /// Window extent.
        width: Duration,
    },
    /// Shift the whole lifetime by `delta` (positive = later).
    Shift(Duration),
    /// Extend the lifetime backwards: `LE -= delta`, `RE` unchanged. Used to
    /// make click events cover the preceding `d` minutes when deriving
    /// non-clicks (paper Fig 12).
    ExtendBack(Duration),
    /// Collapse to a point event at `LE`.
    ToPoint,
}

/// One member of a [`Operator::FusedFragment`] chain: the stateless,
/// kernel-capable operators (and only those) in application order.
#[derive(Debug, Clone)]
pub enum FusedStep {
    /// Selection: narrows the fragment's live-row set.
    Filter {
        /// Boolean predicate over the current payload.
        predicate: Expr,
    },
    /// Payload recomputation: replaces the fragment's columns.
    Project {
        /// Output columns as `(name, expression)`.
        exprs: Vec<(String, Expr)>,
    },
    /// In-place lifetime rewrite.
    AlterLifetime {
        /// The transformation.
        op: LifetimeOp,
    },
}

impl FusedStep {
    /// The window extent this step imposes, if any (mirrors
    /// [`Operator::window_extent`] for the fused ops).
    pub fn window_extent(&self) -> Option<Duration> {
        match self {
            FusedStep::AlterLifetime {
                op: LifetimeOp::Window(w),
            } => Some(*w),
            FusedStep::AlterLifetime {
                op: LifetimeOp::Hop { hop, width },
            } => Some(width + hop),
            FusedStep::AlterLifetime {
                op: LifetimeOp::ExtendBack(d),
            } => Some(*d),
            _ => None,
        }
    }
}

/// One operator in the plan DAG. Input arity is enforced at build time.
#[derive(Debug, Clone)]
pub enum Operator {
    /// Named external input (leaf).
    Source {
        /// Dataset / stream name bound at execution time.
        name: String,
        /// Payload schema.
        schema: Schema,
    },
    /// The implicit per-group input inside a GroupApply sub-plan (leaf).
    GroupInput {
        /// Schema of the grouped stream.
        schema: Schema,
    },
    /// Select events satisfying a predicate (stateless).
    Filter {
        /// Boolean predicate over the payload.
        predicate: Expr,
    },
    /// Recompute the payload (stateless map).
    Project {
        /// Output columns as `(name, expression)`.
        exprs: Vec<(String, Expr)>,
    },
    /// Adjust event lifetimes.
    AlterLifetime {
        /// The transformation.
        op: LifetimeOp,
    },
    /// Snapshot aggregation: one result per maximal constant interval of
    /// the active-event set.
    Aggregate {
        /// Output columns as `(name, aggregate)`.
        aggs: Vec<(String, AggExpr)>,
    },
    /// Apply a sub-plan to each group (paper §II-A.2). Output rows are the
    /// grouping key columns followed by the sub-plan's output columns.
    GroupApply {
        /// Grouping key columns.
        keys: Vec<String>,
        /// Sub-plan with exactly one `GroupInput` leaf and one root.
        subplan: Arc<LogicalPlan>,
    },
    /// Bag union of same-schema inputs (arity ≥ 2).
    Union,
    /// Correlate two streams: equality keys plus optional residual
    /// predicate; output lifetime is the intersection of input lifetimes
    /// and output payload the concatenation of input payloads.
    TemporalJoin {
        /// Pairs of `(left column, right column)` equality keys.
        keys: Vec<(String, String)>,
        /// Optional extra predicate over the concatenated payload.
        residual: Option<Expr>,
    },
    /// Remove the portions of left events that intersect a matching right
    /// event (paper §II-A.2); for point-event left inputs this is exactly
    /// "drop covered points".
    AntiSemiJoin {
        /// Pairs of `(left column, right column)` equality keys.
        keys: Vec<(String, String)>,
    },
    /// User-defined operator over a hopping window; outputs are valid until
    /// the next hop (paper §IV-B.4).
    HopUdo {
        /// Recomputation period.
        hop: Duration,
        /// Window extent.
        width: Duration,
        /// The user code.
        udo: UdoRef,
    },
    /// A maximal exchange-free chain of stateless operators fused into one
    /// node (produced by [`fuse_plan`], which the executor applies to every
    /// plan): a single-pass columnar kernel over batch input, the in-place
    /// row operators in order over row input. Semantically identical to
    /// running the steps as individual operators.
    FusedFragment {
        /// The fused chain, in application order.
        steps: Vec<FusedStep>,
    },
    /// Re-expand grid-aligned interval events into per-cell points: an
    /// event with lifetime `[a, b)` emits one point event at every multiple
    /// of `grid` in `[a, b)`, payload unchanged. This inverts the interval
    /// coalescing the aggregate sweep performs over a `Hop{grid, grid}`
    /// factor window, letting factor-window partials be re-windowed under
    /// coarser harmonics (see [`factor_windows`]).
    SpreadGrid {
        /// The grid period (must be positive).
        grid: Duration,
    },
}

impl Operator {
    /// Human-readable operator name.
    pub fn name(&self) -> &'static str {
        match self {
            Operator::Source { .. } => "Source",
            Operator::GroupInput { .. } => "GroupInput",
            Operator::Filter { .. } => "Filter",
            Operator::Project { .. } => "Project",
            Operator::AlterLifetime { .. } => "AlterLifetime",
            Operator::Aggregate { .. } => "Aggregate",
            Operator::GroupApply { .. } => "GroupApply",
            Operator::Union => "Union",
            Operator::TemporalJoin { .. } => "TemporalJoin",
            Operator::AntiSemiJoin { .. } => "AntiSemiJoin",
            Operator::HopUdo { .. } => "HopUdo",
            Operator::FusedFragment { .. } => "FusedFragment",
            Operator::SpreadGrid { .. } => "SpreadGrid",
        }
    }

    /// Whether the operator is stateless (per-event).
    pub fn is_stateless(&self) -> bool {
        matches!(
            self,
            Operator::Filter { .. }
                | Operator::Project { .. }
                | Operator::AlterLifetime { .. }
                | Operator::Union
                | Operator::FusedFragment { .. }
                | Operator::SpreadGrid { .. }
        )
    }

    /// How the operator runs inside a GroupApply sub-plan — a function of
    /// its kind alone. `true`: a run-aware kernel passes once over all the
    /// groups (laid out as key-ordered runs). `false`: it has none, and is
    /// called once per run on that run's slice of its inputs.
    pub fn segmented(&self) -> bool {
        matches!(
            self,
            Operator::GroupInput { .. }
                | Operator::Filter { .. }
                | Operator::Project { .. }
                | Operator::AlterLifetime { .. }
                | Operator::FusedFragment { .. }
                | Operator::Aggregate { .. }
                | Operator::Union
        )
    }

    /// The window extent this operator imposes on its input, if any — used
    /// by TiMR's temporal partitioning to size span overlaps (paper §III-B).
    pub fn window_extent(&self) -> Option<Duration> {
        match self {
            Operator::AlterLifetime {
                op: LifetimeOp::Window(w),
            } => Some(*w),
            Operator::AlterLifetime {
                op: LifetimeOp::Hop { hop, width },
            } => Some(width + hop),
            Operator::AlterLifetime {
                op: LifetimeOp::ExtendBack(d),
            } => Some(*d),
            Operator::HopUdo { hop, width, .. } => Some(width + hop),
            // A fragment's extent is the max of its steps' extents; the
            // partitioning *sum* bound walks the steps itself (see
            // [`LogicalPlan::history_horizon`]).
            Operator::FusedFragment { steps } => {
                steps.iter().filter_map(FusedStep::window_extent).max()
            }
            _ => None,
        }
    }
}

/// One arena slot: an operator plus its input edges.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// The operator.
    pub op: Operator,
    /// Ids of input nodes, in operator-defined order (left first).
    pub inputs: Vec<NodeId>,
}

/// A validated CQ plan: an operator DAG with inferred per-node schemas.
#[derive(Debug, Clone)]
pub struct LogicalPlan {
    nodes: Vec<PlanNode>,
    roots: Vec<NodeId>,
    schemas: Vec<Schema>,
}

impl LogicalPlan {
    /// Validate a raw arena and infer schemas. Used by the builder and by
    /// frameworks (like TiMR's fragmenter) that rewrite plans structurally.
    pub fn from_parts(nodes: Vec<PlanNode>, roots: Vec<NodeId>) -> Result<Self> {
        if roots.is_empty() {
            return Err(TemporalError::Plan("plan has no outputs".into()));
        }
        let mut schemas: Vec<Option<Schema>> = vec![None; nodes.len()];
        for &root in &roots {
            infer_schema(&nodes, root, &mut schemas, 0)?;
        }
        // Nodes unreachable from any root indicate a builder bug; reject
        // them so fragmentation never silently drops work.
        for (id, s) in schemas.iter().enumerate() {
            if s.is_none() {
                return Err(TemporalError::Plan(format!(
                    "node {id} ({}) is not reachable from any plan output",
                    nodes[id].op.name()
                )));
            }
        }
        Ok(LogicalPlan {
            nodes,
            roots,
            schemas: schemas.into_iter().map(Option::unwrap).collect(),
        })
    }

    /// [`Self::from_parts`] after dropping the nodes unreachable from
    /// `roots` — what a structural rewrite leaves behind once it re-points
    /// the consumers of a node (a pushed prefix, a sunk `Hop`).
    pub(crate) fn from_reachable(nodes: Vec<PlanNode>, roots: &[NodeId]) -> Result<Self> {
        fn mark(nodes: &[PlanNode], id: NodeId, keep: &mut [bool]) {
            if keep[id] {
                return;
            }
            keep[id] = true;
            for &i in &nodes[id].inputs {
                mark(nodes, i, keep);
            }
        }
        let mut keep = vec![false; nodes.len()];
        for &r in roots {
            mark(&nodes, r, &mut keep);
        }
        let mut remap = vec![usize::MAX; nodes.len()];
        let mut out = Vec::with_capacity(nodes.len());
        for (id, n) in nodes.into_iter().enumerate() {
            if keep[id] {
                remap[id] = out.len();
                out.push(n);
            }
        }
        for n in &mut out {
            for i in &mut n.inputs {
                *i = remap[*i];
            }
        }
        LogicalPlan::from_parts(out, roots.iter().map(|&r| remap[r]).collect())
    }

    /// All nodes (arena order).
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// The node with id `id`.
    pub fn node(&self, id: NodeId) -> &PlanNode {
        &self.nodes[id]
    }

    /// Output node ids.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Inferred output schema of node `id`.
    pub fn schema_of(&self, id: NodeId) -> &Schema {
        &self.schemas[id]
    }

    /// Names and schemas of all `Source` leaves.
    pub fn sources(&self) -> Vec<(&str, &Schema)> {
        self.nodes
            .iter()
            .filter_map(|n| match &n.op {
                Operator::Source { name, schema } => Some((name.as_str(), schema)),
                _ => None,
            })
            .collect()
    }

    /// Ids of the nodes that consume node `id`'s output. A result with more
    /// than one element is an implicit Multicast.
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.inputs.contains(&id))
            .map(|(i, _)| i)
            .collect()
    }

    /// Consumers per node, **including plan roots**: input edges plus one
    /// per root reference, so a node that is both an output and an input —
    /// or the root of two identical queries — counts as shared.
    pub(crate) fn consumer_counts(&self) -> Vec<usize> {
        let mut counts = vec![0; self.nodes.len()];
        for node in &self.nodes {
            for &input in &node.inputs {
                counts[input] += 1;
            }
        }
        for &root in &self.roots {
            counts[root] += 1;
        }
        counts
    }

    /// Topological order (children before parents).
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut visited = vec![false; self.nodes.len()];
        fn visit(nodes: &[PlanNode], id: NodeId, visited: &mut [bool], order: &mut Vec<NodeId>) {
            if visited[id] {
                return;
            }
            visited[id] = true;
            for &input in &nodes[id].inputs {
                visit(nodes, input, visited, order);
            }
            order.push(id);
        }
        for &root in &self.roots {
            visit(&self.nodes, root, &mut visited, &mut order);
        }
        order
    }

    /// The maximum window extent of any operator in the plan (including
    /// GroupApply sub-plans) — the overlap TiMR's temporal partitioning
    /// needs between adjacent spans (paper §III-B).
    pub fn max_window_extent(&self) -> Duration {
        self.nodes
            .iter()
            .map(|n| match &n.op {
                Operator::GroupApply { subplan, .. } => subplan.max_window_extent(),
                op => op.window_extent().unwrap_or(0),
            })
            .max()
            .unwrap_or(0)
    }

    /// A conservative bound on how far back in application time input
    /// events can influence output: the sum of all window extents in the
    /// plan (covering chained windows). Used by the incremental executor to
    /// size its retention buffer and by TiMR's temporal partitioning to
    /// size span overlaps (paper §III-B).
    pub fn history_horizon(&self) -> Duration {
        self.nodes
            .iter()
            .map(|n| match &n.op {
                Operator::GroupApply { subplan, .. } => subplan.history_horizon(),
                // Chained windows inside one fragment still sum.
                Operator::FusedFragment { steps } => steps
                    .iter()
                    .filter_map(FusedStep::window_extent)
                    .sum::<Duration>(),
                op => op.window_extent().unwrap_or(0),
            })
            .sum::<Duration>()
            .max(1)
    }

    /// Number of operators, counting GroupApply sub-plans recursively.
    /// Used as the "number of temporal queries" proxy in the Fig 14
    /// development-effort comparison.
    pub fn operator_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match &n.op {
                Operator::GroupApply { subplan, .. } => 1 + subplan.operator_count(),
                // A fragment still *is* its member operators for the
                // development-effort proxy.
                Operator::FusedFragment { steps } => steps.len(),
                _ => 1,
            })
            .sum()
    }
}

const MAX_PLAN_DEPTH: usize = 10_000;

fn infer_schema(
    nodes: &[PlanNode],
    id: NodeId,
    out: &mut Vec<Option<Schema>>,
    depth: usize,
) -> Result<Schema> {
    if depth > MAX_PLAN_DEPTH {
        return Err(TemporalError::Plan("plan contains a cycle".into()));
    }
    if let Some(s) = &out[id] {
        return Ok(s.clone());
    }
    let node = &nodes[id];
    let mut input_schemas = Vec::with_capacity(node.inputs.len());
    for &input in &node.inputs {
        input_schemas.push(infer_schema(nodes, input, out, depth + 1)?);
    }
    let schema = infer_node_schema(&node.op, &input_schemas)?;
    out[id] = Some(schema.clone());
    Ok(schema)
}

fn expect_arity(op: &Operator, inputs: &[Schema], arity: usize) -> Result<()> {
    if inputs.len() != arity {
        return Err(TemporalError::Plan(format!(
            "{} expects {arity} input(s), got {}",
            op.name(),
            inputs.len()
        )));
    }
    Ok(())
}

fn filter_schema(predicate: &Expr, input: &Schema) -> Result<Schema> {
    let t = predicate.infer_type(input)?;
    if t != ColumnType::Bool {
        return Err(TemporalError::Plan(format!(
            "filter predicate has type {t}, expected bool"
        )));
    }
    Ok(input.clone())
}

fn project_schema(exprs: &[(String, Expr)], input: &Schema) -> Result<Schema> {
    let fields = exprs
        .iter()
        .map(|(name, e)| Ok(Field::new(name.clone(), e.infer_type(input)?)))
        .collect::<Result<Vec<_>>>()?;
    Ok(Schema::new(fields))
}

fn alter_lifetime_schema(lop: &LifetimeOp, input: &Schema) -> Result<Schema> {
    match lop {
        LifetimeOp::Window(w) if *w <= 0 => {
            return Err(TemporalError::Plan("window width must be positive".into()))
        }
        LifetimeOp::Hop { hop, width } if *hop <= 0 || *width <= 0 => {
            return Err(TemporalError::Plan("hop and width must be positive".into()))
        }
        LifetimeOp::ExtendBack(d) if *d < 0 => {
            return Err(TemporalError::Plan("extend-back must be ≥ 0".into()))
        }
        _ => {}
    }
    Ok(input.clone())
}

fn infer_node_schema(op: &Operator, inputs: &[Schema]) -> Result<Schema> {
    match op {
        Operator::Source { schema, .. } | Operator::GroupInput { schema } => {
            expect_arity(op, inputs, 0)?;
            Ok(schema.clone())
        }
        Operator::Filter { predicate } => {
            expect_arity(op, inputs, 1)?;
            filter_schema(predicate, &inputs[0])
        }
        Operator::Project { exprs } => {
            expect_arity(op, inputs, 1)?;
            project_schema(exprs, &inputs[0])
        }
        Operator::AlterLifetime { op: lop } => {
            expect_arity(op, inputs, 1)?;
            alter_lifetime_schema(lop, &inputs[0])
        }
        Operator::FusedFragment { steps } => {
            expect_arity(op, inputs, 1)?;
            if steps.is_empty() {
                return Err(TemporalError::Plan(
                    "fused fragment needs at least one step".into(),
                ));
            }
            // Fold each step's schema transform in application order — the
            // fragment's contract is "identical to running the steps as
            // individual operators".
            let mut schema = inputs[0].clone();
            for step in steps {
                schema = match step {
                    FusedStep::Filter { predicate } => filter_schema(predicate, &schema)?,
                    FusedStep::Project { exprs } => project_schema(exprs, &schema)?,
                    FusedStep::AlterLifetime { op } => alter_lifetime_schema(op, &schema)?,
                };
            }
            Ok(schema)
        }
        Operator::Aggregate { aggs } => {
            expect_arity(op, inputs, 1)?;
            if aggs.is_empty() {
                return Err(TemporalError::Plan(
                    "aggregate needs at least one agg".into(),
                ));
            }
            let fields = aggs
                .iter()
                .map(|(name, a)| Ok(Field::new(name.clone(), a.infer_type(&inputs[0])?)))
                .collect::<Result<Vec<_>>>()?;
            Ok(Schema::new(fields))
        }
        Operator::GroupApply { keys, subplan } => {
            expect_arity(op, inputs, 1)?;
            if keys.is_empty() {
                return Err(TemporalError::Plan("group-apply needs keys".into()));
            }
            if subplan.roots().len() != 1 {
                return Err(TemporalError::Plan(
                    "group-apply sub-plan must have exactly one output".into(),
                ));
            }
            let mut group_inputs = subplan
                .nodes()
                .iter()
                .filter(|n| matches!(n.op, Operator::GroupInput { .. }));
            let gi = group_inputs.next().ok_or_else(|| {
                TemporalError::Plan("group-apply sub-plan has no GroupInput".into())
            })?;
            if group_inputs.next().is_some() {
                return Err(TemporalError::Plan(
                    "group-apply sub-plan must have exactly one GroupInput".into(),
                ));
            }
            if let Operator::GroupInput { schema } = &gi.op {
                if schema != &inputs[0] {
                    return Err(TemporalError::Plan(format!(
                        "group-apply sub-plan expects input {schema}, got {}",
                        inputs[0]
                    )));
                }
            }
            let mut fields = Vec::new();
            for k in keys {
                fields.push(inputs[0].field(k)?.clone());
            }
            let sub_schema = subplan.schema_of(subplan.roots()[0]);
            for f in sub_schema.fields() {
                if keys.contains(&f.name) {
                    return Err(TemporalError::Plan(format!(
                        "group-apply sub-plan output column `{}` collides with a grouping key",
                        f.name
                    )));
                }
                fields.push(f.clone());
            }
            Ok(Schema::new(fields))
        }
        Operator::Union => {
            if inputs.len() < 2 {
                return Err(TemporalError::Plan(
                    "union needs at least two inputs".into(),
                ));
            }
            for s in &inputs[1..] {
                if s != &inputs[0] {
                    return Err(TemporalError::Plan(format!(
                        "union inputs must share a schema: {} vs {}",
                        inputs[0], s
                    )));
                }
            }
            Ok(inputs[0].clone())
        }
        Operator::TemporalJoin { keys, residual } => {
            expect_arity(op, inputs, 2)?;
            for (l, r) in keys {
                let lt = inputs[0].field(l)?.ty;
                let rt = inputs[1].field(r)?.ty;
                if lt != rt {
                    return Err(TemporalError::Plan(format!(
                        "join key types differ: {l}:{lt} vs {r}:{rt}"
                    )));
                }
            }
            let joined = inputs[0].join(&inputs[1]);
            if let Some(residual) = residual {
                let t = residual.infer_type(&joined)?;
                if t != ColumnType::Bool {
                    return Err(TemporalError::Plan(format!(
                        "join residual has type {t}, expected bool"
                    )));
                }
            }
            Ok(joined)
        }
        Operator::AntiSemiJoin { keys } => {
            expect_arity(op, inputs, 2)?;
            if keys.is_empty() {
                return Err(TemporalError::Plan("anti-semi-join needs keys".into()));
            }
            for (l, r) in keys {
                let lt = inputs[0].field(l)?.ty;
                let rt = inputs[1].field(r)?.ty;
                if lt != rt {
                    return Err(TemporalError::Plan(format!(
                        "anti-semi-join key types differ: {l}:{lt} vs {r}:{rt}"
                    )));
                }
            }
            Ok(inputs[0].clone())
        }
        Operator::HopUdo { hop, width, udo } => {
            expect_arity(op, inputs, 1)?;
            if *hop <= 0 || *width <= 0 {
                return Err(TemporalError::Plan("hop and width must be positive".into()));
            }
            udo.output_schema(&inputs[0])
        }
        Operator::SpreadGrid { grid } => {
            expect_arity(op, inputs, 1)?;
            if *grid <= 0 {
                return Err(TemporalError::Plan("spread grid must be positive".into()));
            }
            Ok(inputs[0].clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggExpr;
    use crate::expr::{col, lit};
    use crate::time::HOUR;
    use relation::schema::{ColumnType, Field};

    fn bt_schema() -> Schema {
        Schema::timestamped(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("UserId", ColumnType::Str),
            Field::new("KwAdId", ColumnType::Str),
        ])
    }

    #[test]
    fn build_and_infer_running_click_count() {
        // Example 1 (RunningClickCount): filter clicks, group by ad,
        // 6h window, count.
        let q = Query::new();
        let input = q.source("input", bt_schema());
        let out = input
            .filter(col("StreamId").eq(lit(1)))
            .group_apply(&["KwAdId"], |g| {
                g.window(6 * HOUR)
                    .aggregate(vec![("ClickCount".into(), AggExpr::Count)])
            });
        let plan = q.build(vec![out]).unwrap();
        let root = plan.roots()[0];
        assert_eq!(plan.schema_of(root).names(), vec!["KwAdId", "ClickCount"]);
        assert_eq!(plan.max_window_extent(), 6 * HOUR);
        assert!(plan.operator_count() >= 4);
    }

    #[test]
    fn multicast_is_dag_fanout() {
        let q = Query::new();
        let input = q.source("in", bt_schema());
        let clicks = input.clone().filter(col("StreamId").eq(lit(1)));
        let kws = input.filter(col("StreamId").eq(lit(2)));
        let union = clicks.union(kws);
        let plan = q.build(vec![union]).unwrap();
        // The source feeds two filters: an implicit multicast.
        let src = plan
            .nodes()
            .iter()
            .position(|n| matches!(n.op, Operator::Source { .. }))
            .unwrap();
        assert_eq!(plan.consumers(src).len(), 2);
    }

    #[test]
    fn union_schema_mismatch_rejected() {
        let q = Query::new();
        let a = q.source("a", bt_schema());
        let b = q.source(
            "b",
            Schema::timestamped(vec![Field::new("Other", ColumnType::Str)]),
        );
        let u = a.union(b);
        assert!(q.build(vec![u]).is_err());
    }

    #[test]
    fn filter_predicate_must_be_boolean() {
        let q = Query::new();
        let out = q
            .source("in", bt_schema())
            .filter(col("Time").add(lit(1i64)));
        assert!(q.build(vec![out]).is_err());
    }

    #[test]
    fn group_apply_key_collision_rejected() {
        let q = Query::new();
        let out = q.source("in", bt_schema()).group_apply(&["UserId"], |g| {
            g.project(vec![("UserId".into(), col("UserId"))])
        });
        assert!(q.build(vec![out]).is_err());
    }

    #[test]
    fn join_key_type_mismatch_rejected() {
        let q = Query::new();
        let a = q.source("a", bt_schema());
        let b = q.source("b", bt_schema());
        let j = a.temporal_join(b, &[("UserId", "StreamId")], None);
        assert!(q.build(vec![j]).is_err());
    }

    #[test]
    fn topo_order_children_first() {
        let q = Query::new();
        let input = q.source("in", bt_schema());
        let out = input
            .clone()
            .filter(col("StreamId").eq(lit(1)))
            .union(input.filter(col("StreamId").eq(lit(2))));
        let plan = q.build(vec![out]).unwrap();
        let order = plan.topo_order();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        for (id, node) in plan.nodes().iter().enumerate() {
            for &input in &node.inputs {
                assert!(pos(input) < pos(id));
            }
        }
    }

    #[test]
    fn window_extent_covers_hops_and_extends() {
        let q = Query::new();
        let out = q.source("in", bt_schema()).hop_window(900, 6 * HOUR);
        let plan = q.build(vec![out]).unwrap();
        assert_eq!(plan.max_window_extent(), 6 * HOUR + 900);
    }
}
