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
//! ## One shape, wherever the `Hop` is written
//!
//! The paper draws a windowed count as `hop_window(h, w).group_apply(keys,
//! aggregate)` — the `Hop` *above* the GroupApply, where it would push as
//! one more stateless operator and hide the aggregation behind it.
//! [`push_down`] therefore starts from the planner's normal form
//! (`share::sink_hops`: a single-consumer `Hop` belongs to the sub-plan
//! below it), so `share::hopping_aggregate` stays the one test for "is a
//! partial possible here". When the answer is no, the reason is recorded per
//! source ([`NoPartial`]) and printed by the compiled job.
//!
//! Downstream, the reducer's canonical encode (sort before write) turns
//! "same event multiset per partition" into byte-identical output, which
//! is what `tests/prop_pushdown.rs` asserts (push-down on vs off, and both
//! against the oracle) across chaos plans and spill budgets.
//!
//! [`factor_windows`]: super::factor_windows
//! [`AggExpr::combinable`]: crate::agg::AggExpr::combinable
//! [`AggExpr::combining`]: crate::agg::AggExpr::combining

use super::share::{
    combining_aggs, gcd, hopping_aggregate, hopping_subplan, partial_schema, sink_hops,
};
use super::{FusedStep, LogicalPlan, NodeId, Operator, PlanNode};
use crate::agg::AggExpr;
use crate::error::{Result, TemporalError};
use crate::expr::Expr;
use crate::time::Duration;
use rustc_hash::FxHashMap;
use std::fmt;
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
    /// The reduce-side plan (the plan itself, in normal form, when nothing
    /// pushed).
    pub residual: LogicalPlan,
    /// Total stateless operators pushed across mappers.
    pub pushed_ops: usize,
    /// Partial-aggregation steps pushed across mappers.
    pub partials: usize,
    /// Per source that got no partial-aggregation step, in source node
    /// order: why not (sources whose stateless prefix did push included).
    pub no_partial: Vec<(String, NoPartial)>,
}

/// Why [`push_down`] pushed no partial aggregation for a source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NoPartial {
    /// The name binds more than one `Source` node: nothing of it is pushed.
    SourceBoundTwice,
    /// The end of the source's exchange-free prefix feeds more than one
    /// consumer (or is a plan output): the others still need raw rows.
    SharedCutPoint,
    /// The operator across the exchange is not a `GroupApply` over
    /// `GroupInput → Hop → Aggregate`.
    NotHoppingAggregate,
    /// The named aggregate has no partial-combining form.
    NotCombinable(String),
    /// The GroupApply keys lack the named partition column, so a key's
    /// partials could land in different partitions.
    KeysFinerThanPartitioner(String),
}

impl fmt::Display for NoPartial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoPartial::SourceBoundTwice => f.write_str("source bound twice"),
            NoPartial::SharedCutPoint => f.write_str("cut point has other consumers"),
            NoPartial::NotHoppingAggregate => f.write_str("not a hopping aggregate"),
            NoPartial::NotCombinable(agg) => write!(f, "aggregate `{agg}` not combinable"),
            NoPartial::KeysFinerThanPartitioner(col) => {
                write!(f, "keys finer than the partitioner (missing `{col}`)")
            }
        }
    }
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
                let Some(shape) = hopping_aggregate(subplan) else {
                    return Err(TemporalError::Plan(
                        "push-down: mapper GroupApply must be a hopping-window aggregate".into(),
                    ));
                };
                if let Some(name) = shape.not_combinable() {
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

/// The partial-aggregation opportunity across the exchange at `cut`, or
/// why there is none: the operator straddling the cut must be a combinable
/// hopping-window GroupApply keyed at least as coarsely as the
/// partitioner, and it must be the cut point's only consumer.
fn partial_at(
    plan: &LogicalPlan,
    cut: NodeId,
    consumers: &[usize],
    partition_cols: Option<&[String]>,
) -> std::result::Result<Partial, NoPartial> {
    // One consumer counting plan outputs, and that one is an operator.
    let (1, Some(&ga)) = (consumers[cut], plan.consumers(cut).first()) else {
        return Err(NoPartial::SharedCutPoint);
    };
    let Operator::GroupApply { keys, subplan } = &plan.node(ga).op else {
        return Err(NoPartial::NotHoppingAggregate);
    };
    let shape = hopping_aggregate(subplan).ok_or(NoPartial::NotHoppingAggregate)?;
    if let Some(agg) = shape.not_combinable() {
        return Err(NoPartial::NotCombinable(agg.to_string()));
    }
    if let Some(missing) = partition_cols
        .unwrap_or_default()
        .iter()
        .find(|c| !keys.contains(c))
    {
        return Err(NoPartial::KeysFinerThanPartitioner(missing.clone()));
    }
    Ok(Partial {
        ga,
        keys: keys.clone(),
        hop: shape.hop,
        width: shape.width,
        aggs: shape.aggs.to_vec(),
    })
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
    // A `Hop` above a GroupApply would push as a stateless operator and
    // hide the hopping aggregate behind it: normalise first.
    let plan = &*sink_hops(plan)?;
    // Effective consumer count: input edges plus root references. A node
    // may be removed into a mapper only while this is exactly 1.
    let eff = plan.consumer_counts();

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
    let mut no_partial = Vec::new();

    for (src, node) in plan.nodes().iter().enumerate() {
        let Operator::Source { name, schema } = &node.op else {
            continue;
        };
        if source_names[name.as_str()] > 1 {
            no_partial.push((name.clone(), NoPartial::SourceBoundTwice));
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
            let Some(&c) = plan.consumers(cur).first() else {
                break;
            };
            if plan.node(c).inputs != [cur] {
                break; // multi-input consumer (join/union): the exchange
            }
            if !pushable_stateless(&plan.node(c).op, partition_cols) {
                break;
            }
            chain.push(c);
        }
        let cut = *chain.last().expect("chain starts non-empty");

        let partial = match partial_at(plan, cut, &eff, partition_cols) {
            Ok(p) => Some(p),
            Err(why) => {
                no_partial.push((name.clone(), why));
                None
            }
        };
        if chain.len() == 1 && partial.is_none() {
            continue; // nothing below the exchange
        }

        // ---- mapper plan ----
        let cut_schema = plan.schema_of(cut);
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
        }
        let root = mnodes.len() - 1;
        let mplan = LogicalPlan::from_parts(mnodes, vec![root])?;
        validate_mapper_plan(&mplan, partition_cols)?;

        // ---- residual rewrite ----
        // The cut point becomes a source leaf bound to the mapper output;
        // a pushed GroupApply becomes its combining form over partials.
        let residual_schema = match &partial {
            None => cut_schema.clone(),
            Some(p) => {
                let pschema = partial_schema(cut_schema, &p.keys, &p.aggs)?;
                nodes[p.ga] = PlanNode {
                    op: Operator::GroupApply {
                        keys: p.keys.clone(),
                        subplan: Arc::new(hopping_subplan(
                            pschema.clone(),
                            p.hop,
                            p.width,
                            combining_aggs(&p.aggs),
                        )?),
                    },
                    inputs: vec![cut],
                };
                pschema
            }
        };
        nodes[cut] = PlanNode {
            op: Operator::Source {
                name: name.clone(),
                schema: residual_schema,
            },
            inputs: vec![],
        };

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

    let residual = if mappers.is_empty() {
        plan.clone()
    } else {
        LogicalPlan::from_reachable(nodes, plan.roots())?
    };
    Ok(PushDown {
        mappers,
        residual,
        pushed_ops,
        partials,
        no_partial,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::EventBatch;
    use crate::event::Event;
    use crate::exec::execute;
    use crate::expr::{col, lit};
    use crate::plan::Query;
    use crate::stream::EventStream;
    use relation::schema::{ColumnType, Field};
    use relation::{row, Schema};

    /// `plan` over `stream` bound to `in`, laid out as a batch: every root,
    /// as a stream.
    fn run(plan: &LogicalPlan, stream: EventStream) -> Vec<EventStream> {
        let bound = [("in".to_string(), EventBatch::from_stream(&stream).unwrap())];
        let (roots, _) = execute(plan, bound.into_iter().collect()).unwrap();
        roots.into_iter().map(EventBatch::into_stream).collect()
    }

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
        let direct = run(plan, EventStream::new(schema(), evs.clone()));

        let mapper = &pd.mappers[0];
        let mut mapped: Vec<Event> = Vec::new();
        let mut mapped_schema = None;
        for chunk in evs.chunks(evs.len().div_ceil(extents)) {
            let out = run(&mapper.plan, EventStream::new(schema(), chunk.to_vec())).remove(0);
            mapped_schema = Some(out.schema().clone());
            mapped.extend(out.events().iter().cloned());
        }
        let residual_in = EventStream::new(mapped_schema.unwrap(), mapped);
        let split = run(&pd.residual, residual_in);
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

    /// `Hop → GroupApply{Aggregate}` — the way the paper draws it.
    fn hop_outside(hop: i64, width: i64, aggs: Vec<(String, AggExpr)>) -> LogicalPlan {
        let q = Query::new();
        let out = q
            .source("in", schema())
            .filter(col("StreamId").eq(lit(1)))
            .hop_window(hop, width)
            .group_apply(&["UserId"], |g| g.aggregate(aggs));
        q.build(vec![out]).unwrap()
    }

    #[test]
    fn a_hop_above_the_group_apply_pushes_partials_too() {
        let aggs = vec![
            ("N".to_string(), AggExpr::Count),
            ("S".to_string(), AggExpr::Sum(col("V"))),
        ];
        let plan = hop_outside(4, 12, aggs.clone());
        let cols = vec!["UserId".to_string()];
        let pd = push_down(&plan, Some(&cols)).unwrap();
        // The hop is part of the aggregation, not a pushed stateless op.
        assert_eq!((pd.pushed_ops, pd.partials), (1, 1));
        assert!(pd.no_partial.is_empty());
        // Same split, node for node, as the hop written inside.
        let q = Query::new();
        let out = q
            .source("in", schema())
            .filter(col("StreamId").eq(lit(1)))
            .group_apply(&["UserId"], |g| g.hop_window(4, 12).aggregate(aggs));
        let inside = push_down(&q.build(vec![out]).unwrap(), Some(&cols)).unwrap();
        assert_eq!(
            pd.mappers[0].plan.to_string(),
            inside.mappers[0].plan.to_string()
        );
        assert_eq!(pd.residual.to_string(), inside.residual.to_string());
        for extents in [1, 2, 5] {
            assert_split_equivalent(&plan, Some(&cols), extents);
        }
        // Tumbling (the BT feature-selection shape): g = hop = width.
        assert_split_equivalent(
            &hop_outside(8, 8, vec![("N".into(), AggExpr::Count)]),
            None,
            3,
        );
    }

    #[test]
    fn only_a_single_consumer_hop_sinks() {
        let count = || vec![("N".to_string(), AggExpr::Count)];
        // A second consumer still needs the hopped stream.
        let q = Query::new();
        let hopped = q.source("in", schema()).hop_window(4, 8);
        let counts = hopped
            .clone()
            .group_apply(&["UserId"], |g| g.aggregate(count()));
        let plan = q.build(vec![counts, hopped]).unwrap();
        assert!(matches!(
            sink_hops(&plan).unwrap(),
            std::borrow::Cow::Borrowed(_)
        ));
        let pd = push_down(&plan, None).unwrap();
        assert_eq!((pd.pushed_ops, pd.partials), (1, 0));
        assert_eq!(
            pd.no_partial,
            [("in".to_string(), NoPartial::SharedCutPoint)]
        );

        // Any other lifetime operator stays above the GroupApply, and ships
        // as the stateless operator it is.
        let q = Query::new();
        let out = q
            .source("in", schema())
            .window(8)
            .group_apply(&["UserId"], |g| g.aggregate(count()));
        let plan = q.build(vec![out]).unwrap();
        assert!(matches!(
            sink_hops(&plan).unwrap(),
            std::borrow::Cow::Borrowed(_)
        ));
        let pd = push_down(&plan, None).unwrap();
        assert_eq!((pd.pushed_ops, pd.partials), (1, 0));
        assert_eq!(
            pd.no_partial,
            [("in".to_string(), NoPartial::NotHoppingAggregate)]
        );
    }

    #[test]
    fn every_refusal_names_its_rule() {
        let refusal = |plan: &LogicalPlan, cols: Option<&[String]>| {
            let pd = push_down(plan, cols).unwrap();
            assert_eq!(pd.partials, 0);
            pd.no_partial
        };
        let by_user = vec!["UserId".to_string()];
        let avg = hop_outside(4, 8, vec![("A".into(), AggExpr::Avg(col("V")))]);
        assert_eq!(
            refusal(&avg, Some(&by_user)),
            [("in".to_string(), NoPartial::NotCombinable("A".into()))]
        );
        let finer = vec!["UserId".to_string(), "StreamId".to_string()];
        let count = hop_outside(4, 8, vec![("N".into(), AggExpr::Count)]);
        assert_eq!(
            refusal(&count, Some(&finer)),
            [(
                "in".to_string(),
                NoPartial::KeysFinerThanPartitioner("StreamId".into())
            )]
        );
        // Bound twice: nothing of the source is looked at.
        let q = Query::new();
        let a = q.source("in", schema()).filter(col("StreamId").eq(lit(1)));
        let b = q.source("in", schema()).filter(col("StreamId").eq(lit(2)));
        let twice = q.build(vec![a.union(b)]).unwrap();
        assert_eq!(
            refusal(&twice, None),
            [
                ("in".to_string(), NoPartial::SourceBoundTwice),
                ("in".to_string(), NoPartial::SourceBoundTwice)
            ]
        );
        for (why, text) in [
            (NoPartial::SourceBoundTwice, "source bound twice"),
            (NoPartial::SharedCutPoint, "cut point has other consumers"),
            (NoPartial::NotHoppingAggregate, "not a hopping aggregate"),
            (
                NoPartial::NotCombinable("A".into()),
                "aggregate `A` not combinable",
            ),
            (
                NoPartial::KeysFinerThanPartitioner("StreamId".into()),
                "keys finer than the partitioner (missing `StreamId`)",
            ),
        ] {
            assert_eq!(why.to_string(), text);
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
        let direct = run(&factored, EventStream::new(schema(), evs.clone()));
        let mapper = &pd.mappers[0];
        let mut mapped: Vec<Event> = Vec::new();
        let mut mapped_schema = None;
        for chunk in evs.chunks(14) {
            let out = run(&mapper.plan, EventStream::new(schema(), chunk.to_vec())).remove(0);
            mapped_schema = Some(out.schema().clone());
            mapped.extend(out.events().iter().cloned());
        }
        let split = run(
            &pd.residual,
            EventStream::new(mapped_schema.unwrap(), mapped),
        );
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
