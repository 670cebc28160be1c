//! Fragment fusion: group maximal exchange-free stateless chains into
//! single [`Operator::FusedFragment`] nodes.
//!
//! The fusion planner walks a plan and greedily absorbs runs of
//! kernel-capable operators — Filter, Project, AlterLifetime — into one
//! fragment per chain, recursing into GroupApply sub-plans. A chain
//! extends from a node to its consumer only when the node has exactly one
//! consumer and is not a plan output: multicast fan-out and observable
//! outputs are exchange points, so they end the fragment. Singleton runs
//! are wrapped too, so after the pass no bare stateless operator remains —
//! the executor ([`crate::exec`]) runs every plan through it on entry and
//! dispatches on fragments only; a filter→project→… chain of any length
//! always becomes exactly one fragment.
//!
//! Before fusing, a `Hop` whose only consumer is a GroupApply is sunk into
//! that sub-plan ([`sink_hops`], the planner's normal form for windowed
//! GroupApply), so the executor sees the hopping aggregate the paper's
//! `hop_window(h, w).group_apply(keys, aggregate)` denotes and can pick its
//! kernel from the sub-plan alone.
//!
//! The pass is idempotent (a `FusedFragment` is never absorbed into
//! another fragment) and a no-op costs nothing: a plan with no bare
//! stateless operator left is returned borrowed, before any clone. It is
//! schema-preserving: the rewritten plan re-infers schemas through
//! [`LogicalPlan::from_parts`], and the fragment's inferred schema equals
//! the original chain tail's by construction.

use super::share::sink_hops;
use super::{FusedStep, LogicalPlan, NodeId, Operator, PlanNode};
use crate::error::Result;
use std::borrow::Cow;
use std::sync::Arc;

/// Whether `op` may join a fused chain.
fn fusable(op: &Operator) -> bool {
    matches!(
        op,
        Operator::Filter { .. } | Operator::Project { .. } | Operator::AlterLifetime { .. }
    )
}

fn step_of(op: &Operator) -> FusedStep {
    match op {
        Operator::Filter { predicate } => FusedStep::Filter {
            predicate: predicate.clone(),
        },
        Operator::Project { exprs } => FusedStep::Project {
            exprs: exprs.clone(),
        },
        Operator::AlterLifetime { op } => FusedStep::AlterLifetime { op: op.clone() },
        other => unreachable!("{} is not fusable", other.name()),
    }
}

/// Whether `plan` or any GroupApply sub-plan still holds a bare stateless
/// operator for [`fuse_plan`] to wrap.
fn needs_fusion(plan: &LogicalPlan) -> bool {
    plan.nodes().iter().any(|n| match &n.op {
        Operator::GroupApply { subplan, .. } => needs_fusion(subplan),
        op => fusable(op),
    })
}

/// Rewrite `plan` with every maximal stateless chain (including chains
/// inside GroupApply sub-plans) collapsed into a [`Operator::FusedFragment`].
/// Returns a plan with identical observable semantics; an already-fused
/// plan comes back borrowed, untouched.
pub fn fuse_plan(plan: &LogicalPlan) -> Result<Cow<'_, LogicalPlan>> {
    if !needs_fusion(plan) {
        return Ok(Cow::Borrowed(plan));
    }
    // A `Hop` right above a GroupApply belongs to the sub-plan (the
    // planner's normal form); only a bare operator can be one, so a fused
    // plan has none left and the early return above stays exact.
    let plan = &*sink_hops(plan)?;
    // Recurse into GroupApply sub-plans first, so nested chains fuse too.
    let mut nodes: Vec<PlanNode> = plan.nodes().to_vec();
    for node in &mut nodes {
        if let Operator::GroupApply { subplan, .. } = &mut node.op {
            if let Cow::Owned(fused) = fuse_plan(subplan)? {
                *subplan = Arc::new(fused);
            }
        }
    }

    // Consumer edge counts; roots are observable and therefore never
    // absorbed as chain interiors.
    let mut consumers = vec![0usize; nodes.len()];
    for n in &nodes {
        for &i in &n.inputs {
            consumers[i] += 1;
        }
    }
    let mut is_root = vec![false; nodes.len()];
    for &r in plan.roots() {
        is_root[r] = true;
    }

    // Collect maximal chains. A fusable node starts a chain unless its
    // (single) input would chain into it; from a start we extend while the
    // current tail has exactly one consumer, is not a root, and that
    // consumer is fusable.
    let chains_into_consumer =
        |id: NodeId| -> bool { fusable(&nodes[id].op) && consumers[id] == 1 && !is_root[id] };
    let mut chain_of: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut chains: Vec<Vec<NodeId>> = Vec::new();
    for id in 0..nodes.len() {
        if !fusable(&nodes[id].op) {
            continue;
        }
        let input = nodes[id].inputs[0];
        if chains_into_consumer(input) {
            continue; // absorbed when its chain start is visited
        }
        let mut chain = vec![id];
        let mut cur = id;
        while chains_into_consumer(cur) {
            let next = nodes
                .iter()
                .position(|n| n.inputs.contains(&cur))
                .expect("node with a consumer edge has a consumer");
            if !fusable(&nodes[next].op) {
                break;
            }
            chain.push(next);
            cur = next;
        }
        for &m in &chain {
            chain_of[m] = Some(chains.len());
        }
        chains.push(chain);
    }

    if chains.is_empty() {
        // Only sub-plans changed.
        return LogicalPlan::from_parts(nodes, plan.roots().to_vec()).map(Cow::Owned);
    }

    // Rebuild the arena in topological order: a chain is emitted as one
    // FusedFragment when its start is reached; every member maps to the
    // fragment's id so downstream edges (and roots) re-target it.
    let mut new_nodes: Vec<PlanNode> = Vec::with_capacity(nodes.len());
    let mut map = vec![usize::MAX; nodes.len()];
    for id in plan.topo_order() {
        match chain_of[id] {
            Some(c) if chains[c][0] == id => {
                let steps = chains[c].iter().map(|&m| step_of(&nodes[m].op)).collect();
                let inputs = nodes[id].inputs.iter().map(|&i| map[i]).collect();
                new_nodes.push(PlanNode {
                    op: Operator::FusedFragment { steps },
                    inputs,
                });
                let nid = new_nodes.len() - 1;
                for &m in &chains[c] {
                    map[m] = nid;
                }
            }
            Some(_) => {} // interior/tail: emitted with its chain start
            None => {
                let inputs = nodes[id].inputs.iter().map(|&i| map[i]).collect();
                new_nodes.push(PlanNode {
                    op: nodes[id].op.clone(),
                    inputs,
                });
                map[id] = new_nodes.len() - 1;
            }
        }
    }
    let roots = plan.roots().iter().map(|&r| map[r]).collect();
    LogicalPlan::from_parts(new_nodes, roots).map(Cow::Owned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggExpr;
    use crate::expr::{col, lit};
    use crate::plan::Query;
    use relation::schema::{ColumnType, Field, Schema};

    fn schema() -> Schema {
        Schema::timestamped(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("UserId", ColumnType::Str),
        ])
    }

    fn fragment_count(plan: &LogicalPlan) -> usize {
        plan.nodes()
            .iter()
            .filter(|n| matches!(n.op, Operator::FusedFragment { .. }))
            .count()
    }

    #[test]
    fn chain_of_three_becomes_one_fragment() {
        let q = Query::new();
        let out = q
            .source("in", schema())
            .filter(col("StreamId").eq(lit(1)))
            .project(vec![
                ("UserId".into(), col("UserId")),
                ("Time".into(), col("Time")),
            ])
            .window(100);
        let plan = q.build(vec![out]).unwrap();
        let fused = fuse_plan(&plan).unwrap();
        assert_eq!(fragment_count(&fused), 1, "one fragment:\n{fused}");
        assert_eq!(fused.nodes().len(), 2, "source + fragment:\n{fused}");
        let frag = &fused.nodes()[fused.roots()[0]];
        match &frag.op {
            Operator::FusedFragment { steps } => assert_eq!(steps.len(), 3),
            other => panic!("root is {}", other.name()),
        }
        // Schema is preserved end to end.
        assert_eq!(
            fused.schema_of(fused.roots()[0]),
            plan.schema_of(plan.roots()[0])
        );
        // The plan display names the fragment (the annotation contract).
        assert!(format!("{fused}").contains("FusedFragment"), "{fused}");
    }

    #[test]
    fn refusing_a_fused_plan_returns_it_borrowed() {
        // Top-level chain plus a chain inside a GroupApply sub-plan: the
        // early return must see through both levels.
        let q = Query::new();
        let out = q
            .source("in", schema())
            .filter(col("StreamId").eq(lit(1)))
            .window(100)
            .group_apply(&["UserId"], |g| {
                g.filter(col("StreamId").eq(lit(1)))
                    .aggregate(vec![("N".into(), AggExpr::Count)])
            });
        let plan = q.build(vec![out]).unwrap();
        let once = fuse_plan(&plan).unwrap();
        assert!(matches!(once, Cow::Owned(_)));
        assert_eq!(fragment_count(&once), 1);
        let twice = fuse_plan(&once).unwrap();
        // No clone, no new FusedFragment: the very same plan comes back.
        assert!(matches!(twice, Cow::Borrowed(_)));
        assert!(std::ptr::eq(&*twice, &*once));
        assert_eq!(twice.nodes().len(), once.nodes().len());
        for (a, b) in twice.nodes().iter().zip(once.nodes()) {
            if let (Operator::FusedFragment { steps: sa }, Operator::FusedFragment { steps: sb }) =
                (&a.op, &b.op)
            {
                assert!(std::ptr::eq(sa.as_ptr(), sb.as_ptr()));
            }
        }
    }

    #[test]
    fn plans_without_stateless_operators_are_never_cloned() {
        let q = Query::new();
        let out = q.source("in", schema()).count("N");
        let plan = q.build(vec![out]).unwrap();
        assert!(matches!(fuse_plan(&plan).unwrap(), Cow::Borrowed(_)));
    }

    #[test]
    fn multicast_fanout_breaks_the_chain() {
        let q = Query::new();
        let filtered = q.source("in", schema()).filter(col("StreamId").eq(lit(1)));
        // The filter output fans out to two projects: it cannot be fused
        // into either consumer.
        let a = filtered
            .clone()
            .project(vec![("UserId".into(), col("UserId"))]);
        let b = filtered.project(vec![("UserId".into(), col("UserId"))]);
        let plan = q.build(vec![a.union(b)]).unwrap();
        let fused = fuse_plan(&plan).unwrap();
        // Three singleton fragments: the shared filter and both projects.
        assert_eq!(fragment_count(&fused), 3, "{fused}");
    }

    #[test]
    fn chains_inside_group_apply_fuse() {
        let q = Query::new();
        let out = q.source("in", schema()).group_apply(&["UserId"], |g| {
            g.filter(col("StreamId").eq(lit(1)))
                .window(100)
                .aggregate(vec![("N".into(), AggExpr::Count)])
        });
        let plan = q.build(vec![out]).unwrap();
        let fused = fuse_plan(&plan).unwrap();
        let ga = fused
            .nodes()
            .iter()
            .find_map(|n| match &n.op {
                Operator::GroupApply { subplan, .. } => Some(subplan),
                _ => None,
            })
            .expect("group apply survives fusion");
        assert_eq!(fragment_count(ga), 1, "{ga}");
        let frag = ga
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Operator::FusedFragment { .. }))
            .unwrap();
        match &frag.op {
            Operator::FusedFragment { steps } => assert_eq!(steps.len(), 2),
            _ => unreachable!(),
        }
    }

    #[test]
    fn a_hop_above_a_group_apply_fuses_inside_it() {
        let q = Query::new();
        let out = q
            .source("in", schema())
            .filter(col("StreamId").eq(lit(1)))
            .hop_window(10, 10)
            .group_apply(&["UserId"], |g| g.count("N"));
        let plan = q.build(vec![out]).unwrap();
        let fused = fuse_plan(&plan).unwrap();
        // Outside: the filter alone. Inside: the hopping aggregate, which
        // the shape test still sees through its one-step fragment.
        let text = fused.to_string();
        assert!(
            text.contains("FusedFragment [Filter (StreamId = 1)]\n"),
            "{text}"
        );
        let ga = fused.nodes().iter().find_map(|n| match &n.op {
            Operator::GroupApply { subplan, .. } => Some(subplan),
            _ => None,
        });
        let shape = crate::plan::hopping_aggregate(ga.unwrap()).expect("still the shape");
        assert_eq!((shape.hop, shape.width), (10, 10));
        assert_eq!(shape.pane_grid(), Some(10));
        assert_eq!(fused.operator_count(), plan.operator_count());
        assert!(matches!(fuse_plan(&fused).unwrap(), Cow::Borrowed(_)));
    }

    #[test]
    fn window_extent_and_horizon_survive_fusion() {
        let q = Query::new();
        let out = q
            .source("in", schema())
            .filter(col("StreamId").eq(lit(1)))
            .window(100)
            .hop_window(10, 50);
        let plan = q.build(vec![out]).unwrap();
        let fused = fuse_plan(&plan).unwrap();
        assert_eq!(fused.max_window_extent(), plan.max_window_extent());
        assert_eq!(fused.history_horizon(), plan.history_horizon());
        assert_eq!(fused.operator_count(), plan.operator_count());
    }
}
