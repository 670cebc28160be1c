//! Multi-query sharing: common-prefix merging and factor-window rewrites.
//!
//! Production behavioral targeting runs hundreds of advertiser CQs over the
//! *same* log, most of them correlated hopping-window aggregates. Two
//! rewrites recover the redundancy:
//!
//! 1. **Common-prefix sharing** ([`share_plans`]): N independent plans are
//!    merged into one DAG, deduplicating structurally identical subtrees
//!    (source scan, bot-elimination chain, shared projections). Fan-out at
//!    a merge point *is* the paper's Multicast, so the log is scanned and
//!    bot-eliminated once per job instead of N times.
//! 2. **Factor windows** ([`factor_windows`], after Wu et al., PAPERS.md):
//!    sibling hopping-window aggregates over the same keyed stream whose
//!    `(hop, width)` are harmonically related are rewritten to aggregate
//!    the GCD-hop *factor* window once; each query's wider window is then
//!    derived by combining per-cell partials (COUNT/integer-SUM/MIN/MAX —
//!    see [`AggExpr::combinable`]). Non-combinable aggregates keep their
//!    private windows.
//!
//! This module also owns the shape both this rewrite and map-side push-down
//! ([`super::push_down`]) look for — [`HoppingAggregate`], with its one
//! recogniser and one constructor — and the normal form that brings plans
//! into it ([`sink_hops`]); and the wider shape of per-event steps ending in
//! one Aggregate ([`PerEventAggregate`]), which the real-time session and
//! GroupApply's columnar path look for.
//!
//! Both rewrites preserve per-query output byte-for-byte: sharing only
//! deduplicates identical computations, and the factor algebra is exact
//! for the combinable aggregates (`Hop{g, g}` drops nothing, each raw
//! event's cell re-windows to exactly the instants the raw event would
//! have reached, and cell partials combine losslessly).

use super::{FusedStep, LifetimeOp, LogicalPlan, NodeId, Operator, PlanNode};
use crate::agg::AggExpr;
use crate::error::{Result, TemporalError};
use crate::time::Duration;
use relation::{Field, Schema};
use rustc_hash::{FxHashMap, FxHasher};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Canonical description of one operator, or `None` if the node must never
/// be merged across queries: `HopUdo` wraps opaque user code whose `Debug`
/// form is not guaranteed to describe its behaviour, so two textually
/// identical UDO nodes may still compute different things.
fn shareable_canon(op: &Operator) -> Option<String> {
    match op {
        Operator::HopUdo { .. } => None,
        Operator::GroupApply { subplan, .. } if contains_udo(subplan) => None,
        op => Some(format!("{op:?}")),
    }
}

fn contains_udo(plan: &LogicalPlan) -> bool {
    plan.nodes().iter().any(|n| match &n.op {
        Operator::HopUdo { .. } => true,
        Operator::GroupApply { subplan, .. } => contains_udo(subplan),
        _ => false,
    })
}

/// Collision-safe canonical string for the subtree rooted at `id`: two
/// subtrees (possibly in different plans) produce the same string iff they
/// are structurally identical — same operators with the same parameters
/// wired the same way. This is the equality witness backing
/// [`fingerprint`]; the sharing planner itself merges on canonical strings
/// (per node, with already-merged child ids), never on hashes, so a hash
/// collision can never merge distinct computations.
pub fn subtree_canon(plan: &LogicalPlan, id: NodeId) -> String {
    let node = plan.node(id);
    let mut s = format!("{:?}(", node.op);
    for (i, &input) in node.inputs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&subtree_canon(plan, input));
    }
    s.push(')');
    s
}

/// Canonical fingerprint of the subtree rooted at `id`: equal for
/// structurally identical subtrees. Used for the `shared@<id>` markers in
/// [`explain_shared`]; the planner merges on [`subtree_canon`] strings, so
/// fingerprints are display-only and collisions are cosmetic.
pub fn fingerprint(plan: &LogicalPlan, id: NodeId) -> u64 {
    let mut h = FxHasher::default();
    subtree_canon(plan, id).hash(&mut h);
    h.finish()
}

/// Statistics from a [`share_plans`] merge.
#[derive(Debug, Clone, Default)]
pub struct ShareStats {
    /// Total operator nodes across the input plans.
    pub input_nodes: usize,
    /// Nodes in the merged DAG.
    pub merged_nodes: usize,
    /// Merged nodes with more than one consumer (Multicast fan-out points).
    pub shared_nodes: usize,
}

/// N independent CQ plans merged into one DAG: root `i` of [`plan`] is
/// query `i`'s output (two end-to-end identical queries share one root id,
/// listed twice).
///
/// [`plan`]: MultiQueryPlan::plan
#[derive(Debug, Clone)]
pub struct MultiQueryPlan {
    /// The merged plan, one root per input query, in input order.
    pub plan: LogicalPlan,
    /// Merge statistics.
    pub stats: ShareStats,
}

impl MultiQueryPlan {
    /// Render the merged DAG with `shared@<fingerprint>` markers on every
    /// multi-consumer node (the EXPLAIN output).
    pub fn explain(&self) -> String {
        explain_shared(&self.plan)
    }
}

/// Merge N single-output plans into one DAG, deduplicating structurally
/// identical prefixes. Walks each plan bottom-up and reuses an existing
/// merged node whenever the operator's canonical form *and* its (already
/// merged) input ids match; [`Operator::HopUdo`] nodes are never merged.
pub fn share_plans(plans: &[LogicalPlan]) -> Result<MultiQueryPlan> {
    if plans.is_empty() {
        return Err(TemporalError::Plan(
            "share_plans needs at least one query".into(),
        ));
    }
    let mut nodes: Vec<PlanNode> = Vec::new();
    let mut dedup: FxHashMap<(String, Vec<NodeId>), NodeId> = FxHashMap::default();
    let mut roots = Vec::with_capacity(plans.len());
    let mut input_nodes = 0usize;
    for (qi, plan) in plans.iter().enumerate() {
        if plan.roots().len() != 1 {
            return Err(TemporalError::Plan(format!(
                "share_plans: query {qi} has {} outputs, expected exactly one",
                plan.roots().len()
            )));
        }
        input_nodes += plan.nodes().len();
        let mut map: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        for id in plan.topo_order() {
            let node = plan.node(id);
            let inputs: Vec<NodeId> = node.inputs.iter().map(|i| map[i]).collect();
            let merged = match shareable_canon(&node.op) {
                Some(canon) => {
                    let key = (canon, inputs.clone());
                    if let Some(&existing) = dedup.get(&key) {
                        existing
                    } else {
                        nodes.push(PlanNode {
                            op: node.op.clone(),
                            inputs,
                        });
                        dedup.insert(key, nodes.len() - 1);
                        nodes.len() - 1
                    }
                }
                None => {
                    nodes.push(PlanNode {
                        op: node.op.clone(),
                        inputs,
                    });
                    nodes.len() - 1
                }
            };
            map.insert(id, merged);
        }
        roots.push(map[&plan.roots()[0]]);
    }
    let merged_nodes = nodes.len();
    let plan = LogicalPlan::from_parts(nodes, roots)?;
    let shared_nodes = plan.consumer_counts().iter().filter(|&&c| c > 1).count();
    Ok(MultiQueryPlan {
        plan,
        stats: ShareStats {
            input_nodes,
            merged_nodes,
            shared_nodes,
        },
    })
}

/// Render a (typically merged) plan with `shared@<fingerprint>` markers on
/// every node consumed by more than one path. The second and later visits
/// of a shared node print a back-reference instead of re-expanding it.
pub fn explain_shared(plan: &LogicalPlan) -> String {
    let consumers = plan.consumer_counts();
    let mut printed = vec![false; plan.nodes().len()];
    let mut out = String::new();
    for (qi, &root) in plan.roots().iter().enumerate() {
        let _ = writeln!(out, "query {qi}:");
        render(plan, root, 1, &consumers, &mut printed, &mut out);
    }
    out
}

fn render(
    plan: &LogicalPlan,
    id: NodeId,
    indent: usize,
    consumers: &[usize],
    printed: &mut [bool],
    out: &mut String,
) {
    let pad = "  ".repeat(indent);
    let name = plan.node(id).op.name();
    if consumers[id] > 1 {
        let fp = fingerprint(plan, id);
        if printed[id] {
            let _ = writeln!(out, "{pad}{name} shared@{fp:016x} (see above)");
            return;
        }
        let _ = writeln!(out, "{pad}{name} shared@{fp:016x}");
    } else {
        let _ = writeln!(out, "{pad}{name}");
    }
    printed[id] = true;
    for &input in &plan.node(id).inputs {
        render(plan, input, indent + 1, consumers, printed, out);
    }
}

pub(crate) fn gcd(mut a: Duration, mut b: Duration) -> Duration {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// One factor-window candidate: a `GroupApply` whose sub-plan is a
/// [`HoppingAggregate`].
struct Candidate {
    node: NodeId,
    hop: Duration,
    width: Duration,
}

/// A GroupApply sub-plan of exactly `GroupInput → Hop{hop, width} →
/// Aggregate(aggs)`: the shape the factor-window algebra applies to.
/// [`hopping_aggregate`] is its only recogniser and [`hopping_subplan`] its
/// only constructor; [`factor_windows`], [`push_down`],
/// [`validate_mapper_plan`], the plan display and GroupApply's kernel choice
/// all go through them, after [`sink_hops`] has put every plan that spells
/// the same computation with the `Hop` outside into this form.
///
/// [`push_down`]: super::push_down
/// [`validate_mapper_plan`]: super::validate_mapper_plan
pub(crate) struct HoppingAggregate<'a> {
    pub(crate) hop: Duration,
    pub(crate) width: Duration,
    pub(crate) aggs: &'a [(String, AggExpr)],
    /// Schema of the grouped stream (the `GroupInput` leaf).
    pub(crate) input: &'a Schema,
}

impl HoppingAggregate<'_> {
    /// Name of the first aggregate with no partial-combining form
    /// ([`AggExpr::combinable`]), if any.
    pub(crate) fn not_combinable(&self) -> Option<&str> {
        self.aggs
            .iter()
            .find(|(_, a)| !a.combinable(self.input))
            .map(|(name, _)| name.as_str())
    }

    /// The cell size when this sub-plan is a *pane* aggregate: tumbling
    /// cells (`hop == width`, so every event lives in exactly one cell and
    /// no two cells of a group overlap) of combinable aggregates — exactly
    /// what [`factor_windows`] and [`push_down`] emit as their partial
    /// step, and what GroupApply runs as one hash aggregation instead of
    /// an endpoint sweep (DESIGN.md, "Hopping aggregates").
    ///
    /// [`push_down`]: super::push_down
    pub(crate) fn pane_grid(&self) -> Option<Duration> {
        (self.hop == self.width && self.not_combinable().is_none()).then_some(self.hop)
    }
}

pub(crate) fn hopping_aggregate(subplan: &LogicalPlan) -> Option<HoppingAggregate<'_>> {
    if subplan.nodes().len() != 3 || subplan.roots().len() != 1 {
        return None;
    }
    let root = subplan.node(subplan.roots()[0]);
    let Operator::Aggregate { aggs } = &root.op else {
        return None;
    };
    let mid = subplan.node(root.inputs[0]);
    let (hop, width) = match &mid.op {
        Operator::AlterLifetime {
            op: LifetimeOp::Hop { hop, width },
        } => (*hop, *width),
        // The same chain as `fuse_plan` leaves it.
        Operator::FusedFragment { steps } => match steps.as_slice() {
            [FusedStep::AlterLifetime {
                op: LifetimeOp::Hop { hop, width },
            }] => (*hop, *width),
            _ => return None,
        },
        _ => return None,
    };
    let Operator::GroupInput { schema } = &subplan.node(mid.inputs[0]).op else {
        return None;
    };
    Some(HoppingAggregate {
        hop,
        width,
        aggs,
        input: schema,
    })
}

/// `GroupInput → Hop{hop, width} → Aggregate(aggs)` as a GroupApply
/// sub-plan: what [`hopping_aggregate`] recognises.
pub(crate) fn hopping_subplan(
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

/// A (fused) GroupApply sub-plan that is per-event steps ending in one
/// Aggregate: `GroupInput → FusedFragment* → Aggregate(aggs)`. Every event
/// reaches the aggregate on its own, so the sub-plan needs no runs before
/// the sweep. [`per_event_aggregate`] is its only recogniser; the real-time
/// session's stateful aggregate and GroupApply's columnar path both ask it.
pub(crate) struct PerEventAggregate<'p> {
    /// The fragments' steps, in evaluation order.
    pub(crate) steps: Vec<FusedStep>,
    /// What the steps produce: the aggregate's input.
    pub(crate) input: &'p Schema,
    pub(crate) aggs: &'p [(String, AggExpr)],
}

/// `subplan` as per-event steps ending in one Aggregate, or why it is not.
pub(crate) fn per_event_aggregate(
    subplan: &LogicalPlan,
) -> std::result::Result<PerEventAggregate<'_>, String> {
    let root = subplan.node(subplan.roots()[0]);
    let Operator::Aggregate { aggs } = &root.op else {
        return Err(format!(
            "GroupApply sub-plan ends in {}, not an Aggregate",
            root.op.name()
        ));
    };
    let mut steps = Vec::new();
    let mut id = root.inputs[0];
    loop {
        let node = subplan.node(id);
        match &node.op {
            Operator::GroupInput { .. } => break,
            Operator::FusedFragment { steps: s } => steps.splice(0..0, s.iter().cloned()),
            op => {
                return Err(format!(
                    "{} inside a GroupApply has no stateful form",
                    op.name()
                ))
            }
        };
        id = node.inputs[0];
    }
    Ok(PerEventAggregate {
        steps,
        input: subplan.schema_of(root.inputs[0]),
        aggs,
    })
}

/// Schema of a partial stream: the key columns, then one column per
/// aggregate — what a `GroupApply(keys)` over [`hopping_subplan`] emits.
pub(crate) fn partial_schema(
    input: &Schema,
    keys: &[String],
    aggs: &[(String, AggExpr)],
) -> Result<Schema> {
    let mut fields = Vec::with_capacity(keys.len() + aggs.len());
    for k in keys {
        fields.push(input.field(k)?.clone());
    }
    for (name, a) in aggs {
        fields.push(Field::new(name.clone(), a.infer_type(input)?));
    }
    Ok(Schema::new(fields))
}

/// The aggregates that combine the partials of `aggs` (all
/// [`AggExpr::combinable`]), column for column under the same names.
pub(crate) fn combining_aggs(aggs: &[(String, AggExpr)]) -> Vec<(String, AggExpr)> {
    aggs.iter()
        .map(|(name, a)| {
            let combined = a.combining(name).expect("callers check combinability");
            (name.clone(), combined)
        })
        .collect()
}

/// The planner's normal form for a windowed GroupApply: a `Hop` sits
/// *inside* the sub-plan. `AlterLifetime` acts per event and touches no
/// payload, so it commutes with grouping:
///
/// ```text
/// x → AlterLifetime{Hop} → GroupApply(K){sub}
///   ≡ x → GroupApply(K){GroupInput → AlterLifetime{Hop} → sub}
/// ```
///
/// byte for byte (a group whose events the hop drops is formed and yields
/// nothing, where it was never formed). The paper draws
/// `hop_window(h, w).group_apply(keys, aggregate)`; sinking the `Hop` makes
/// that the [`HoppingAggregate`] shape, so [`hopping_aggregate`] stays the
/// single shape test. [`factor_windows`], [`push_down`] and [`fuse_plan`]
/// (hence every executed plan) call this before they look at a plan.
///
/// Only a `Hop` whose single consumer is the GroupApply sinks; one that
/// another operator or a plan output also reads stays where it is, and so
/// does every other lifetime operator. A plan with nothing to sink comes
/// back borrowed.
///
/// [`push_down`]: super::push_down
/// [`fuse_plan`]: super::fuse_plan
pub(crate) fn sink_hops(plan: &LogicalPlan) -> Result<Cow<'_, LogicalPlan>> {
    let consumers = plan.consumer_counts();
    let mut nodes: Option<Vec<PlanNode>> = None;
    for (id, node) in plan.nodes().iter().enumerate() {
        let Operator::GroupApply { keys, subplan } = &node.op else {
            continue;
        };
        let above = node.inputs[0];
        let Operator::AlterLifetime {
            op: hop @ LifetimeOp::Hop { .. },
        } = &plan.node(above).op
        else {
            continue;
        };
        if consumers[above] != 1 {
            continue;
        }
        nodes.get_or_insert_with(|| plan.nodes().to_vec())[id] = PlanNode {
            op: Operator::GroupApply {
                keys: keys.clone(),
                subplan: Arc::new(hop_first(subplan, hop)?),
            },
            inputs: plan.node(above).inputs.clone(),
        };
    }
    match nodes {
        None => Ok(Cow::Borrowed(plan)),
        // The bypassed `Hop` nodes are unreachable now.
        Some(nodes) => LogicalPlan::from_reachable(nodes, plan.roots()).map(Cow::Owned),
    }
}

/// `subplan` with `AlterLifetime{hop}` spliced in right above its
/// `GroupInput`.
fn hop_first(subplan: &LogicalPlan, hop: &LifetimeOp) -> Result<LogicalPlan> {
    let mut nodes = subplan.nodes().to_vec();
    let leaf = nodes
        .iter()
        .position(|n| matches!(n.op, Operator::GroupInput { .. }))
        .expect("plan validation admits exactly one GroupInput per sub-plan");
    let spliced = nodes.len();
    let repoint = |id: &mut NodeId| {
        if *id == leaf {
            *id = spliced;
        }
    };
    nodes
        .iter_mut()
        .flat_map(|n| &mut n.inputs)
        .for_each(repoint);
    let mut roots = subplan.roots().to_vec();
    roots.iter_mut().for_each(repoint);
    nodes.push(PlanNode {
        op: Operator::AlterLifetime { op: hop.clone() },
        inputs: vec![leaf],
    });
    LogicalPlan::from_parts(nodes, roots)
}

/// Rewrite groups of harmonically related hopping-window aggregates to
/// share a GCD-hop factor window. Returns the rewritten plan and the
/// number of groups factored (0 leaves the plan unchanged).
///
/// A group is a set of ≥ 2 `GroupApply` siblings over the same input node
/// with identical keys and identical aggregate lists, each of shape
/// `GroupInput → Hop{hᵢ, wᵢ} → Aggregate`, where every aggregate is
/// [`AggExpr::combinable`]. With `g = gcd(hᵢ, wᵢ)` the rewrite inserts
///
/// ```text
/// input → GroupApply(keys){ Hop{g, g} → Aggregate(aggs) } → SpreadGrid{g}
/// ```
///
/// and re-points each member at the spread stream with a derived sub-plan
/// `GroupInput → Hop{hᵢ, wᵢ} → Aggregate(combine(aggs))`. The rewrite is
/// exact: `Hop{g, g}` drops no event, every raw event in cell `T` reaches
/// exactly the report instants its original `Hop{hᵢ, wᵢ}` lifetime reached
/// (because `g | hᵢ` and `g | wᵢ`), and the combining aggregates are
/// lossless for the combinable set — so per-query output is byte-identical
/// to the unfactored plan.
///
/// Groups are only rewritten when the expected work shrinks: with hops
/// `hᵢ`, the direct plan re-windows the raw stream `Σᵢ 1` times while the
/// factored plan windows it once at grid `g` and re-windows the (much
/// smaller) partial stream — worthwhile when `Σᵢ g/hᵢ > 1`, i.e. the
/// factor pass costs less than the per-query passes it replaces.
pub fn factor_windows(plan: &LogicalPlan) -> Result<(LogicalPlan, usize)> {
    let plan = sink_hops(plan)?;
    // Group candidates by (input node, keys, aggregate list).
    let mut groups: FxHashMap<(NodeId, String), Vec<Candidate>> = FxHashMap::default();
    for (id, node) in plan.nodes().iter().enumerate() {
        let Operator::GroupApply { keys, subplan } = &node.op else {
            continue;
        };
        let Some(shape) = hopping_aggregate(subplan) else {
            continue;
        };
        let input = node.inputs[0];
        // Never re-factor an already-factored group (its input is the
        // spread stream): keeps the pass idempotent.
        if matches!(plan.node(input).op, Operator::SpreadGrid { .. }) {
            continue;
        }
        if shape.not_combinable().is_some() {
            continue;
        }
        let key = (input, format!("{keys:?}|{:?}", shape.aggs));
        groups.entry(key).or_default().push(Candidate {
            node: id,
            hop: shape.hop,
            width: shape.width,
        });
    }

    let mut selected: Vec<((NodeId, String), Vec<Candidate>)> = groups
        .into_iter()
        .filter(|(_, members)| {
            if members.len() < 2 {
                return false;
            }
            let g = members
                .iter()
                .fold(0, |acc, m| gcd(gcd(acc, m.hop), m.width));
            debug_assert!(g > 0, "hop/width are validated positive");
            // Benefit check: the factor pass adds one windowing of the raw
            // stream at grid g; it must replace more than one query-hop's
            // worth of raw-stream work.
            members.iter().map(|m| g as f64 / m.hop as f64).sum::<f64>() > 1.0
        })
        .collect();
    if selected.is_empty() {
        return Ok((plan.into_owned(), 0));
    }
    // Deterministic rewrite order regardless of hash-map iteration.
    selected.sort_by(|a, b| a.1[0].node.cmp(&b.1[0].node));

    let mut nodes: Vec<PlanNode> = plan.nodes().to_vec();
    let factored_groups = selected.len();
    for ((input, _), members) in selected {
        let g = members
            .iter()
            .fold(0, |acc, m| gcd(gcd(acc, m.hop), m.width));
        let Operator::GroupApply { keys, subplan } = &plan.node(members[0].node).op else {
            unreachable!("candidates are GroupApply nodes");
        };
        let aggs = hopping_aggregate(subplan)
            .expect("candidate shape just matched")
            .aggs;
        let in_schema = plan.schema_of(input);

        // The shared factor window: per-cell partials of the group's
        // aggregates, computed once over the raw stream.
        nodes.push(PlanNode {
            op: Operator::GroupApply {
                keys: keys.clone(),
                subplan: Arc::new(hopping_subplan(in_schema.clone(), g, g, aggs.to_vec())?),
            },
            inputs: vec![input],
        });
        let factor_id = nodes.len() - 1;
        nodes.push(PlanNode {
            op: Operator::SpreadGrid { grid: g },
            inputs: vec![factor_id],
        });
        let spread_id = nodes.len() - 1;
        let spread_schema = partial_schema(in_schema, keys, aggs)?;

        // Re-point each member at the spread stream, combining partials
        // under its original (hᵢ, wᵢ) window.
        for m in &members {
            let derived =
                hopping_subplan(spread_schema.clone(), m.hop, m.width, combining_aggs(aggs))?;
            nodes[m.node] = PlanNode {
                op: Operator::GroupApply {
                    keys: keys.clone(),
                    subplan: Arc::new(derived),
                },
                inputs: vec![spread_id],
            };
        }
    }
    let rewritten = LogicalPlan::from_parts(nodes, plan.roots().to_vec())?;
    Ok((rewritten, factored_groups))
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
            Field::new("UserId", ColumnType::Str),
            Field::new("V", ColumnType::Long),
        ])
    }

    fn events() -> EventStream {
        EventStream::new(
            schema(),
            vec![
                Event::point(1, row!["u1", 10i64]),
                Event::point(3, row!["u1", 7i64]),
                Event::point(5, row!["u2", 1i64]),
                Event::point(6, row!["u1", 4i64]),
                Event::point(11, row!["u2", 9i64]),
                Event::point(14, row!["u1", 2i64]),
            ],
        )
    }

    fn filter_chain(preds: &[i64]) -> LogicalPlan {
        let q = Query::new();
        let mut h = q.source("in", schema());
        for &p in preds {
            h = h.filter(col("V").gt(lit(p)));
        }
        q.build(vec![h]).unwrap()
    }

    #[test]
    fn fingerprint_separates_commuted_plans() {
        // Filter(>1) → Filter(>2) vs Filter(>2) → Filter(>1): same
        // operator multiset, different structure.
        let a = filter_chain(&[1, 2]);
        let b = filter_chain(&[2, 1]);
        let c = filter_chain(&[1, 2]);
        assert_ne!(
            subtree_canon(&a, a.roots()[0]),
            subtree_canon(&b, b.roots()[0])
        );
        assert_ne!(fingerprint(&a, a.roots()[0]), fingerprint(&b, b.roots()[0]));
        assert_eq!(
            subtree_canon(&a, a.roots()[0]),
            subtree_canon(&c, c.roots()[0])
        );
        assert_eq!(fingerprint(&a, a.roots()[0]), fingerprint(&c, c.roots()[0]));
    }

    #[test]
    fn share_merges_common_prefix_only() {
        // Both queries: source → filter(>1), then diverge.
        let mk = |threshold: i64| {
            let q = Query::new();
            let out = q
                .source("in", schema())
                .filter(col("V").gt(lit(1i64)))
                .filter(col("V").lt(lit(threshold)));
            q.build(vec![out]).unwrap()
        };
        let shared = share_plans(&[mk(10), mk(20)]).unwrap();
        // source + shared filter + 2 divergent filters = 4 merged nodes
        // out of 6 input nodes.
        assert_eq!(shared.stats.input_nodes, 6);
        assert_eq!(shared.stats.merged_nodes, 4);
        assert!(shared.stats.shared_nodes >= 1);
        assert_eq!(shared.plan.roots().len(), 2);
        let explain = shared.explain();
        assert!(explain.contains("shared@"), "no marker in:\n{explain}");
        assert!(explain.contains("(see above)"), "no backref in:\n{explain}");
    }

    #[test]
    fn identical_queries_share_one_root() {
        let shared = share_plans(&[filter_chain(&[1]), filter_chain(&[1])]).unwrap();
        assert_eq!(shared.plan.roots()[0], shared.plan.roots()[1]);
        assert_eq!(shared.stats.merged_nodes, 2);
        // Both query outputs still materialize.
        let out = execute(&shared.plan, &bindings(vec![("in", events())])).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].normalize(), out[1].normalize());
    }

    #[test]
    fn udo_nodes_never_merge() {
        use crate::udo::WindowCountUdo;
        let mk = || {
            let q = Query::new();
            // Two Arc::new(WindowCountUdo) instances have identical Debug
            // text — exactly the case the planner must refuse to merge.
            let out = q
                .source("in", schema())
                .hop_udo(4, 8, Arc::new(WindowCountUdo));
            q.build(vec![out]).unwrap()
        };
        let shared = share_plans(&[mk(), mk()]).unwrap();
        let udos = shared
            .plan
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Operator::HopUdo { .. }))
            .count();
        assert_eq!(udos, 2, "textually identical UDOs must stay separate");
    }

    fn harmonic_plan(windows: &[(i64, i64)], agg_v: bool) -> LogicalPlan {
        let q = Query::new();
        let input = q.source("in", schema());
        let outs: Vec<_> = windows
            .iter()
            .map(|&(hop, width)| {
                input.clone().group_apply(&["UserId"], move |g| {
                    let aggs = if agg_v {
                        vec![
                            ("N".to_string(), AggExpr::Count),
                            ("S".to_string(), AggExpr::Sum(col("V"))),
                            ("Lo".to_string(), AggExpr::Min(col("V"))),
                            ("Hi".to_string(), AggExpr::Max(col("V"))),
                        ]
                    } else {
                        vec![("A".to_string(), AggExpr::Avg(col("V")))]
                    };
                    g.hop_window(hop, width).aggregate(aggs)
                })
            })
            .collect();
        q.build(outs).unwrap()
    }

    #[test]
    fn factor_rewrite_is_byte_identical() {
        // Harmonic group: hops {2, 4, 6}, widths multiples of 2 → g = 2.
        let plan = harmonic_plan(&[(2, 4), (4, 8), (6, 6)], true);
        let (factored, n) = factor_windows(&plan).unwrap();
        assert_eq!(n, 1);
        assert!(
            factored
                .nodes()
                .iter()
                .any(|nd| matches!(nd.op, Operator::SpreadGrid { grid: 2 })),
            "missing SpreadGrid in:\n{factored}"
        );
        let direct = execute(&plan, &bindings(vec![("in", events())])).unwrap();
        let shared = execute(&factored, &bindings(vec![("in", events())])).unwrap();
        assert_eq!(direct.len(), shared.len());
        for (d, s) in direct.iter().zip(&shared) {
            assert_eq!(d.normalize(), s.normalize());
        }
    }

    #[test]
    fn factor_rewrite_sees_hops_written_outside() {
        // The same harmonic group with each `Hop` above its GroupApply.
        let q = Query::new();
        let input = q.source("in", schema());
        let outs: Vec<_> = [(2, 4), (4, 8), (6, 6)]
            .iter()
            .map(|&(hop, width)| {
                input
                    .clone()
                    .hop_window(hop, width)
                    .group_apply(&["UserId"], |g| g.count("N"))
            })
            .collect();
        let plan = q.build(outs).unwrap();
        let (factored, n) = factor_windows(&plan).unwrap();
        assert_eq!(n, 1);
        let direct = execute(&plan, &bindings(vec![("in", events())])).unwrap();
        let shared = execute(&factored, &bindings(vec![("in", events())])).unwrap();
        for (d, s) in direct.iter().zip(&shared) {
            assert_eq!(d.normalize(), s.normalize());
        }
    }

    #[test]
    fn sinking_a_hop_keeps_every_other_sub_plan_node() {
        // Two branches off the GroupInput (the BotElim shape): both read
        // the hopped stream afterwards.
        let q = Query::new();
        let out = q
            .source("in", schema())
            .hop_window(2, 6)
            .group_apply(&["UserId"], |g| {
                let big = g.clone().filter(col("V").gt(lit(5i64))).count("N");
                big.union(g.filter(col("V").le(lit(5i64))).count("N"))
            });
        let plan = q.build(vec![out]).unwrap();
        let sunk = sink_hops(&plan).unwrap();
        assert_eq!(sunk.nodes().len(), plan.nodes().len() - 1);
        assert_eq!(sunk.operator_count(), plan.operator_count());
        assert_eq!(sunk.max_window_extent(), plan.max_window_extent());
        let Operator::GroupApply { subplan, .. } = &sunk.node(sunk.roots()[0]).op else {
            panic!("root stays the GroupApply:\n{sunk}");
        };
        let leaf = subplan
            .nodes()
            .iter()
            .position(|n| matches!(n.op, Operator::GroupInput { .. }))
            .unwrap();
        let [hop] = subplan.consumers(leaf)[..] else {
            panic!("the hop is the leaf's only consumer:\n{sunk}");
        };
        assert!(matches!(
            subplan.node(hop).op,
            Operator::AlterLifetime { .. }
        ));
        assert_eq!(subplan.consumers(hop).len(), 2);
        let srcs = bindings(vec![("in", events())]);
        assert_eq!(
            crate::exec::execute_reference(&plan, &srcs).unwrap(),
            crate::exec::execute_reference(&sunk, &srcs).unwrap()
        );
    }

    #[test]
    fn factor_rewrite_is_idempotent() {
        let plan = harmonic_plan(&[(2, 4), (4, 8)], true);
        let (once, n1) = factor_windows(&plan).unwrap();
        assert_eq!(n1, 1);
        let (twice, n2) = factor_windows(&once).unwrap();
        assert_eq!(n2, 0, "second pass must not re-factor");
        assert_eq!(once.nodes().len(), twice.nodes().len());
    }

    #[test]
    fn unprofitable_and_noncombinable_groups_stay_private() {
        // gcd(3, 6, 5, 10) = 1 and 1/3 + 1/5 < 1: no benefit.
        let (out, n) = factor_windows(&harmonic_plan(&[(3, 6), (5, 10)], true)).unwrap();
        assert_eq!(n, 0);
        assert!(!out
            .nodes()
            .iter()
            .any(|nd| matches!(nd.op, Operator::SpreadGrid { .. })));
        // AVG is not combinable: harmonic windows but private per query.
        let (_, n) = factor_windows(&harmonic_plan(&[(2, 4), (4, 8)], false)).unwrap();
        assert_eq!(n, 0);
        // A single harmonic query has nothing to share with.
        let (_, n) = factor_windows(&harmonic_plan(&[(2, 4)], true)).unwrap();
        assert_eq!(n, 0);
    }
}
