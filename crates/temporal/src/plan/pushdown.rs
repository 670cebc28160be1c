//! Map-side plan push-down: cut a CQ DAG at its first exchange.
//!
//! TiMR's map phase partitions raw events; every operator — including the
//! selections that discard most of the log — waits until after the
//! shuffle. [`push_down`] recovers the classic MapReduce
//! communication-reduction: for each source it finds the *exchange-free
//! prefix* (the maximal single-consumer chain of stateless operators that
//! preserves the partition key columns) and, when the operator straddling
//! the exchange is a hopping-window aggregation whose aggregates are all
//! [`AggExpr::combinable`], a *partial-aggregation* step — and splits the
//! plan into per-source **mapper plans** (run map-side, per input extent,
//! before partitioning) and a **residual plan** (run reduce-side, with the
//! pushed sources re-bound to the mapper output).
//!
//! ## Why the split is exact
//!
//! * Stateless operators commute with partitioning: they act per event, so
//!   applying them before or after the shuffle yields the same per-
//!   partition event multiset — provided routing is unchanged, which the
//!   key-preservation rule guarantees (a pushed `Project` must carry every
//!   partition key column through as a bare column reference).
//! * The partial aggregation is the factor-window algebra of
//!   [`factor_windows`] applied across *extents* instead of across
//!   queries: the mapper computes per-extent `Hop{g, g}` cell partials
//!   (`g = gcd(hop, width)`) and spreads them to per-cell points; the
//!   residual combines partials under the original `Hop{hop, width}` with
//!   the [`AggExpr::combining`] forms. Because `g | hop` and `g | width`,
//!   every raw event's cell reaches exactly the report instants it
//!   originally reached, and because the combining aggregates are
//!   associative and commutative over disjoint sub-multisets, the
//!   per-extent partial multiplicity is absorbed exactly — any way of
//!   slicing the input into extents combines to the same final values.
//! * The grouping keys contain the partition key columns, so all partials
//!   of a key land in the partition its raw events would have landed in.
//!
//! Downstream, the reducer's canonical encode (sort before write) turns
//! "same event multiset per partition" into byte-identical output, which
//! is what `tests/prop_pushdown.rs` asserts (push-down on vs off, and both
//! against the single-node reference) across chaos plans and spill budgets.
//!
//! [`factor_windows`]: super::factor_windows
//! [`AggExpr::combinable`]: crate::agg::AggExpr::combinable
//! [`AggExpr::combining`]: crate::agg::AggExpr::combining

use super::share::{gcd, hopping_aggregate};
use super::{FusedStep, LifetimeOp, LogicalPlan, NodeId, Operator, PlanNode};
use crate::agg::AggExpr;
use crate::error::{Result, TemporalError};
use crate::expr::Expr;
use crate::time::Duration;
use relation::{Field, Schema};
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// One map-side fragment produced by [`push_down`].
#[derive(Debug, Clone)]
pub struct MapperPlan {
    /// Source (input dataset) name this mapper consumes.
    pub source: String,
    /// The mapper plan: `Source → pushed prefix [→ partial GroupApply →
    /// SpreadGrid]`, single root. Runs per input extent, before
    /// partitioning.
    pub plan: LogicalPlan,
    /// Stateless operators pushed below the exchange.
    pub pushed_ops: usize,
    /// Whether a partial-aggregation step was pushed.
    pub partial_agg: bool,
}

/// Result of [`push_down`]: per-source mapper plans plus the residual
/// plan whose pushed sources now expect the mapper output (same source
/// name, mapper output schema).
#[derive(Debug, Clone)]
pub struct PushDown {
    /// Map-side fragments, one per pushed source, in source node order.
    pub mappers: Vec<MapperPlan>,
    /// The reduce-side plan (unchanged when nothing pushed).
    pub residual: LogicalPlan,
    /// Total stateless operators pushed across mappers.
    pub pushed_ops: usize,
    /// Partial-aggregation steps pushed across mappers.
    pub partials: usize,
}

impl PushDown {
    /// Whether any work moved map-side.
    pub fn any(&self) -> bool {
        !self.mappers.is_empty()
    }
}

/// Whether a pushed `Project` keeps every partition key column flowing
/// through unchanged — same name, bare [`Expr::Column`] reference — so
/// hashing the projected row routes identically to hashing the raw row.
fn project_preserves_keys(exprs: &[(String, Expr)], cols: &[String]) -> bool {
    cols.iter().all(|k| {
        exprs
            .iter()
            .any(|(name, e)| name == k && matches!(e, Expr::Column(c) if c == k))
    })
}

/// Whether `op` may run map-side under a `KeyHash` partitioner on
/// `partition_cols` (`None` = single-partition stage, no routing to
/// preserve). Multi-input operators are never pushable: a mapper sees one
/// input dataset.
fn pushable_stateless(op: &Operator, partition_cols: Option<&[String]>) -> bool {
    match op {
        Operator::Filter { .. } | Operator::AlterLifetime { .. } | Operator::SpreadGrid { .. } => {
            true
        }
        Operator::Project { exprs } => {
            partition_cols.is_none_or(|cols| project_preserves_keys(exprs, cols))
        }
        Operator::FusedFragment { steps } => steps.iter().all(|s| match s {
            FusedStep::Filter { .. } | FusedStep::AlterLifetime { .. } => true,
            FusedStep::Project { exprs } => {
                partition_cols.is_none_or(|cols| project_preserves_keys(exprs, cols))
            }
        }),
        _ => false,
    }
}

/// The `ExchangeKey`-style safety check on an emitted mapper plan: every
/// node must be the single source leaf, a key-preserving stateless
/// operator, or a combinable hopping-window partial aggregation keyed at
/// least as coarsely as the stage partitioner. Violations mean the split
/// crossed a stateful operator keyed more finely than the exchange —
/// exactly the rewrite that would silently change per-partition state.
pub fn validate_mapper_plan(plan: &LogicalPlan, partition_cols: Option<&[String]>) -> Result<()> {
    let mut sources = 0usize;
    for node in plan.nodes() {
        match &node.op {
            Operator::Source { .. } => sources += 1,
            Operator::GroupApply { keys, subplan } => {
                if let Some(cols) = partition_cols {
                    if let Some(missing) = cols.iter().find(|c| !keys.contains(c)) {
                        return Err(TemporalError::Plan(format!(
                            "push-down: mapper GroupApply keyed {keys:?} is finer than the \
                             stage partitioner (missing `{missing}`)"
                        )));
                    }
                }
                let Some((_, _, aggs)) = hopping_aggregate(subplan) else {
                    return Err(TemporalError::Plan(
                        "push-down: mapper GroupApply must be a hopping-window aggregate".into(),
                    ));
                };
                let in_schema = plan.schema_of(node.inputs[0]);
                if let Some((name, _)) = aggs.iter().find(|(_, a)| !a.combinable(in_schema)) {
                    return Err(TemporalError::Plan(format!(
                        "push-down: mapper aggregate `{name}` is not combinable"
                    )));
                }
            }
            op if op.is_stateless() => {
                if !pushable_stateless(op, partition_cols) {
                    return Err(TemporalError::Plan(format!(
                        "push-down: mapper {} does not preserve the partition key columns",
                        op.name()
                    )));
                }
            }
            op => {
                return Err(TemporalError::Plan(format!(
                    "push-down: stateful operator {} cannot run map-side",
                    op.name()
                )))
            }
        }
    }
    if sources != 1 {
        return Err(TemporalError::Plan(format!(
            "push-down: mapper plan has {sources} source leaves, expected exactly one"
        )));
    }
    Ok(())
}

/// A matched partial-aggregation opportunity at the cut point.
struct Partial {
    /// The `GroupApply` node in the original plan.
    ga: NodeId,
    keys: Vec<String>,
    hop: Duration,
    width: Duration,
    aggs: Vec<(String, AggExpr)>,
}

/// `GroupInput → Hop{hop, width} → Aggregate(aggs)` as a GroupApply
/// sub-plan (the construction [`factor_windows`] uses).
fn hopping_subplan(
    input: Schema,
    hop: Duration,
    width: Duration,
    aggs: Vec<(String, AggExpr)>,
) -> Result<LogicalPlan> {
    LogicalPlan::from_parts(
        vec![
            PlanNode {
                op: Operator::GroupInput { schema: input },
                inputs: vec![],
            },
            PlanNode {
                op: Operator::AlterLifetime {
                    op: LifetimeOp::Hop { hop, width },
                },
                inputs: vec![0],
            },
            PlanNode {
                op: Operator::Aggregate { aggs },
                inputs: vec![1],
            },
        ],
        vec![2],
    )
}

/// Drop nodes unreachable from the roots and rebuild the plan (the pushed
/// prefix becomes garbage once its cut point turns into a source leaf).
fn compact(nodes: Vec<PlanNode>, roots: &[NodeId]) -> Result<LogicalPlan> {
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

/// Split `plan` at its first exchange. `partition_cols` is the stage's
/// `KeyHash` column set (`None` for a single-partition stage); push-down
/// under content-insensitive partitioners (`Spread`, `BucketColumn`) must
/// not be attempted — changing the rows changes their routing.
///
/// Works on shared multi-root DAGs (PR 8): the chain only extends through
/// nodes with exactly one consumer and no root reference, so a Multicast
/// fan-out point or a query output is never swallowed into a mapper.
/// Sources whose name binds more than one `Source` node are skipped — a
/// mapper is a property of the input *dataset*, which must mean one thing
/// per stage.
pub fn push_down(plan: &LogicalPlan, partition_cols: Option<&[String]>) -> Result<PushDown> {
    // Effective consumer count: input edges plus root references. A node
    // may be removed into a mapper only while this is exactly 1.
    let mut eff = vec![0usize; plan.nodes().len()];
    for n in plan.nodes() {
        for &i in &n.inputs {
            eff[i] += 1;
        }
    }
    for &r in plan.roots() {
        eff[r] += 1;
    }
    let consumer_of =
        |id: NodeId| -> Option<NodeId> { plan.nodes().iter().position(|n| n.inputs.contains(&id)) };

    let mut source_names: FxHashMap<&str, usize> = FxHashMap::default();
    for n in plan.nodes() {
        if let Operator::Source { name, .. } = &n.op {
            *source_names.entry(name.as_str()).or_default() += 1;
        }
    }

    let mut nodes = plan.nodes().to_vec();
    let mut mappers = Vec::new();
    let mut pushed_ops = 0usize;
    let mut partials = 0usize;

    for (src, node) in plan.nodes().iter().enumerate() {
        let Operator::Source { name, schema } = &node.op else {
            continue;
        };
        if source_names[name.as_str()] > 1 {
            continue;
        }

        // Grow the exchange-free prefix. `chain` ends at the cut point;
        // everything before the cut moves map-side.
        let mut chain: Vec<NodeId> = vec![src];
        loop {
            let cur = *chain.last().expect("chain starts non-empty");
            if eff[cur] != 1 {
                break;
            }
            let Some(c) = consumer_of(cur) else { break };
            if plan.node(c).inputs != [cur] {
                break; // multi-input consumer (join/union): the exchange
            }
            if !pushable_stateless(&plan.node(c).op, partition_cols) {
                break;
            }
            chain.push(c);
        }
        let cut = *chain.last().expect("chain starts non-empty");

        // Partial aggregation across the exchange: the operator straddling
        // the cut must be a combinable hopping-window GroupApply keyed at
        // least as coarsely as the partitioner, and it must be the cut
        // point's only consumer (other consumers still need raw rows).
        let mut partial: Option<Partial> = None;
        if eff[cut] == 1 {
            if let Some(c) = consumer_of(cut) {
                if let Operator::GroupApply { keys, subplan } = &plan.node(c).op {
                    if let Some((hop, width, aggs)) = hopping_aggregate(subplan) {
                        let cut_schema = plan.schema_of(cut);
                        let combinable = aggs.iter().all(|(_, a)| a.combinable(cut_schema));
                        let keyed =
                            partition_cols.is_none_or(|cols| cols.iter().all(|k| keys.contains(k)));
                        if combinable && keyed {
                            partial = Some(Partial {
                                ga: c,
                                keys: keys.clone(),
                                hop,
                                width,
                                aggs: aggs.to_vec(),
                            });
                        }
                    }
                }
            }
        }

        if chain.len() == 1 && partial.is_none() {
            continue; // nothing below the exchange
        }

        // ---- mapper plan ----
        let cut_schema = plan.schema_of(cut).clone();
        let mut mnodes = vec![PlanNode {
            op: Operator::Source {
                name: name.clone(),
                schema: schema.clone(),
            },
            inputs: vec![],
        }];
        for &id in &chain[1..] {
            let prev = mnodes.len() - 1;
            mnodes.push(PlanNode {
                op: plan.node(id).op.clone(),
                inputs: vec![prev],
            });
        }
        let mut partial_schema = None;
        if let Some(p) = &partial {
            let g = gcd(p.hop, p.width);
            let prev = mnodes.len() - 1;
            mnodes.push(PlanNode {
                op: Operator::GroupApply {
                    keys: p.keys.clone(),
                    subplan: Arc::new(hopping_subplan(cut_schema.clone(), g, g, p.aggs.clone())?),
                },
                inputs: vec![prev],
            });
            mnodes.push(PlanNode {
                op: Operator::SpreadGrid { grid: g },
                inputs: vec![mnodes.len() - 1],
            });
            // Spread partial stream: key columns then one column per
            // aggregate — what the map-side GroupApply emits.
            let mut fields = Vec::with_capacity(p.keys.len() + p.aggs.len());
            for k in &p.keys {
                fields.push(cut_schema.field(k)?.clone());
            }
            for (agg_name, a) in &p.aggs {
                fields.push(Field::new(agg_name.clone(), a.infer_type(&cut_schema)?));
            }
            partial_schema = Some(Schema::new(fields));
        }
        let root = mnodes.len() - 1;
        let mplan = LogicalPlan::from_parts(mnodes, vec![root])?;
        validate_mapper_plan(&mplan, partition_cols)?;

        // ---- residual rewrite ----
        // The cut point becomes a source leaf bound to the mapper output;
        // a pushed GroupApply becomes its combining form over partials.
        match &partial {
            None => {
                nodes[cut] = PlanNode {
                    op: Operator::Source {
                        name: name.clone(),
                        schema: cut_schema,
                    },
                    inputs: vec![],
                };
            }
            Some(p) => {
                let pschema = partial_schema.clone().expect("set when partial matched");
                let combined = p
                    .aggs
                    .iter()
                    .map(|(agg_name, a)| {
                        (
                            agg_name.clone(),
                            a.combining(agg_name).expect("combinability checked above"),
                        )
                    })
                    .collect();
                nodes[p.ga] = PlanNode {
                    op: Operator::GroupApply {
                        keys: p.keys.clone(),
                        subplan: Arc::new(hopping_subplan(
                            pschema.clone(),
                            p.hop,
                            p.width,
                            combined,
                        )?),
                    },
                    inputs: vec![cut],
                };
                nodes[cut] = PlanNode {
                    op: Operator::Source {
                        name: name.clone(),
                        schema: pschema,
                    },
                    inputs: vec![],
                };
            }
        }

        pushed_ops += chain.len() - 1;
        if partial.is_some() {
            partials += 1;
        }
        mappers.push(MapperPlan {
            source: name.clone(),
            plan: mplan,
            pushed_ops: chain.len() - 1,
            partial_agg: partial.is_some(),
        });
    }

    if mappers.is_empty() {
        return Ok(PushDown {
            mappers,
            residual: plan.clone(),
            pushed_ops: 0,
            partials: 0,
        });
    }
    let residual = compact(nodes, plan.roots())?;
    Ok(PushDown {
        mappers,
        residual,
        pushed_ops,
        partials,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::exec::{bindings, execute};
    use crate::expr::{col, lit};
    use crate::plan::Query;
    use crate::stream::EventStream;
    use relation::schema::{ColumnType, Field};
    use relation::{row, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("UserId", ColumnType::Str),
            Field::new("V", ColumnType::Long),
        ])
    }

    fn events() -> Vec<Event> {
        let mut out = Vec::new();
        for i in 0..40i64 {
            out.push(Event::point(
                i * 3 + 1,
                row![(i % 3) as i32, format!("u{}", i % 5), i * 7 % 13],
            ));
        }
        out
    }

    /// Execute `plan` the pushed way: mappers per extent, outputs
    /// concatenated in extent order, residual over the concatenation —
    /// exactly the dataflow the cluster runs — and compare with direct
    /// execution.
    fn assert_split_equivalent(plan: &LogicalPlan, cols: Option<&[String]>, extents: usize) {
        let pd = push_down(plan, cols).unwrap();
        assert!(pd.any(), "expected a split for:\n{plan}");
        let evs = events();
        let direct = execute(
            plan,
            &bindings(vec![("in", EventStream::new(schema(), evs.clone()))]),
        )
        .unwrap();

        let mapper = &pd.mappers[0];
        let mut mapped: Vec<Event> = Vec::new();
        let mut mapped_schema = None;
        for chunk in evs.chunks(evs.len().div_ceil(extents)) {
            let out = execute(
                &mapper.plan,
                &bindings(vec![("in", EventStream::new(schema(), chunk.to_vec()))]),
            )
            .unwrap()
            .remove(0);
            mapped_schema = Some(out.schema().clone());
            mapped.extend(out.events().iter().cloned());
        }
        let residual_in = EventStream::new(mapped_schema.unwrap(), mapped);
        let split = execute(&pd.residual, &bindings(vec![("in", residual_in)])).unwrap();
        assert_eq!(direct.len(), split.len());
        for (d, s) in direct.iter().zip(&split) {
            assert_eq!(d.normalize(), s.normalize(), "split output diverged");
        }
    }

    #[test]
    fn stateless_prefix_pushes_and_matches() {
        let q = Query::new();
        let out = q
            .source("in", schema())
            .filter(col("StreamId").eq(lit(1)))
            .project(vec![
                ("UserId".to_string(), col("UserId")),
                ("V2".to_string(), col("V").mul(lit(2i64))),
            ])
            .group_apply(&["UserId"], |g| {
                g.window(20)
                    .aggregate(vec![("A".to_string(), AggExpr::Avg(col("V2")))])
            });
        let plan = q.build(vec![out]).unwrap();
        let cols = vec!["UserId".to_string()];
        let pd = push_down(&plan, Some(&cols)).unwrap();
        // Avg is not combinable, so only the stateless prefix moves.
        assert_eq!(pd.pushed_ops, 2);
        assert_eq!(pd.partials, 0);
        for extents in [1, 3] {
            assert_split_equivalent(&plan, Some(&cols), extents);
        }
    }

    #[test]
    fn combinable_hop_aggregate_pushes_partials() {
        let q = Query::new();
        let out = q
            .source("in", schema())
            .filter(col("StreamId").eq(lit(1)))
            .group_apply(&["UserId"], |g| {
                g.hop_window(4, 12).aggregate(vec![
                    ("N".to_string(), AggExpr::Count),
                    ("S".to_string(), AggExpr::Sum(col("V"))),
                    ("Hi".to_string(), AggExpr::Max(col("V"))),
                ])
            })
            .filter(col("N").gt(lit(0i64)));
        let plan = q.build(vec![out]).unwrap();
        let cols = vec!["UserId".to_string()];
        let pd = push_down(&plan, Some(&cols)).unwrap();
        assert_eq!(pd.partials, 1);
        assert!(pd.mappers[0].partial_agg);
        // Mapper ends in SpreadGrid over the GCD cell.
        assert!(matches!(
            pd.mappers[0].plan.node(pd.mappers[0].plan.roots()[0]).op,
            Operator::SpreadGrid { grid: 4 }
        ));
        for extents in [1, 2, 5] {
            assert_split_equivalent(&plan, Some(&cols), extents);
        }
    }

    #[test]
    fn partial_push_composes_with_factor_windows() {
        // Two harmonic dashboards over a shared filtered stream: after
        // factor_windows, push-down moves the factor aggregation map-side.
        let q = Query::new();
        let filtered = q.source("in", schema()).filter(col("StreamId").eq(lit(1)));
        let outs: Vec<_> = [(4i64, 8i64), (8, 16)]
            .iter()
            .map(|&(hop, width)| {
                filtered.clone().group_apply(&["UserId"], move |g| {
                    g.hop_window(hop, width)
                        .aggregate(vec![("N".to_string(), AggExpr::Count)])
                })
            })
            .collect();
        let plan = q.build(outs).unwrap();
        let (factored, groups) = crate::plan::factor_windows(&plan).unwrap();
        assert_eq!(groups, 1);
        let cols = vec!["UserId".to_string()];
        let pd = push_down(&factored, Some(&cols)).unwrap();
        assert_eq!(pd.partials, 1, "factor GroupApply should push partials");

        let evs = events();
        let direct = execute(
            &factored,
            &bindings(vec![("in", EventStream::new(schema(), evs.clone()))]),
        )
        .unwrap();
        let mapper = &pd.mappers[0];
        let mut mapped: Vec<Event> = Vec::new();
        let mut mapped_schema = None;
        for chunk in evs.chunks(14) {
            let out = execute(
                &mapper.plan,
                &bindings(vec![("in", EventStream::new(schema(), chunk.to_vec()))]),
            )
            .unwrap()
            .remove(0);
            mapped_schema = Some(out.schema().clone());
            mapped.extend(out.events().iter().cloned());
        }
        let split = execute(
            &pd.residual,
            &bindings(vec![(
                "in",
                EventStream::new(mapped_schema.unwrap(), mapped),
            )]),
        )
        .unwrap();
        assert_eq!(direct.len(), split.len());
        for (d, s) in direct.iter().zip(&split) {
            assert_eq!(d.normalize(), s.normalize());
        }
    }

    #[test]
    fn key_renaming_project_blocks_the_push() {
        let q = Query::new();
        let out = q
            .source("in", schema())
            .project(vec![
                ("Who".to_string(), col("UserId")),
                ("V".to_string(), col("V")),
            ])
            .group_apply(&["Who"], |g| {
                g.hop_window(4, 8)
                    .aggregate(vec![("N".to_string(), AggExpr::Count)])
            });
        let plan = q.build(vec![out]).unwrap();
        // Partitioned on UserId: the rename drops the key column, so
        // neither the project nor the partial may push.
        let cols = vec!["UserId".to_string()];
        let pd = push_down(&plan, Some(&cols)).unwrap();
        assert!(!pd.any(), "rename must block push-down");
        // Single-partition stages have no routing to preserve.
        let pd = push_down(&plan, None).unwrap();
        assert_eq!(pd.pushed_ops, 1);
    }

    #[test]
    fn finer_keyed_group_apply_keeps_partials_reduce_side() {
        // Partitioner on (UserId, StreamId) but GroupApply keyed UserId
        // only: keys ⊉ partition columns, so no partial.
        let q = Query::new();
        let out = q
            .source("in", schema())
            .filter(col("V").gt(lit(0i64)))
            .group_apply(&["UserId"], |g| {
                g.hop_window(4, 8)
                    .aggregate(vec![("N".to_string(), AggExpr::Count)])
            });
        let plan = q.build(vec![out]).unwrap();
        let cols = vec!["UserId".to_string(), "StreamId".to_string()];
        let pd = push_down(&plan, Some(&cols)).unwrap();
        assert_eq!(pd.partials, 0);
        assert_eq!(pd.pushed_ops, 1, "the filter still pushes");
    }

    #[test]
    fn multicast_fanout_stops_the_chain() {
        // The source feeds two filters (bot-elim shape): nothing pushes.
        let q = Query::new();
        let input = q.source("in", schema());
        let a = input.clone().filter(col("StreamId").eq(lit(1)));
        let b = input.filter(col("StreamId").eq(lit(2)));
        let plan = q.build(vec![a.union(b)]).unwrap();
        let pd = push_down(&plan, None).unwrap();
        assert!(!pd.any());
        assert_eq!(pd.residual.nodes().len(), plan.nodes().len());
    }

    #[test]
    fn validate_rejects_stateful_and_finer_keyed_mappers() {
        let q = Query::new();
        let out = q.source("in", schema()).group_apply(&["UserId"], |g| {
            g.hop_window(4, 8)
                .aggregate(vec![("A".to_string(), AggExpr::Avg(col("V")))])
        });
        let plan = q.build(vec![out]).unwrap();
        let err = validate_mapper_plan(&plan, None).unwrap_err();
        assert!(err.to_string().contains("not combinable"), "{err}");

        let cols = vec!["UserId".to_string(), "KwAdId".to_string()];
        let q = Query::new();
        let out = q.source("in", schema()).group_apply(&["UserId"], |g| {
            g.hop_window(4, 8)
                .aggregate(vec![("N".to_string(), AggExpr::Count)])
        });
        let plan = q.build(vec![out]).unwrap();
        let err = validate_mapper_plan(&plan, Some(&cols)).unwrap_err();
        assert!(err.to_string().contains("finer"), "{err}");

        let q = Query::new();
        let a = q.source("a", schema());
        let b = q.source("b", schema());
        let plan = q
            .build(vec![a.temporal_join(b, &[("UserId", "UserId")], None)])
            .unwrap();
        let err = validate_mapper_plan(&plan, None).unwrap_err();
        assert!(err.to_string().contains("stateful"), "{err}");
    }
}
