//! Fragment extraction: cutting an annotated plan into `{fragment, key}`
//! pairs (paper §III-A step 3).
//!
//! Starting from each plan output, a top-down traversal collects operators
//! until it encounters an exchange along every path; the operators collected
//! form one *fragment*, parallelizable by the key of the encountered
//! exchanges (which must all agree — paper footnote 1). The traversal then
//! repeats below each exchange until the leaves.
//!
//! Each fragment compiles to one map-reduce stage (see [`crate::compile`]):
//! its inputs are raw source datasets and/or intermediate datasets written
//! by producer fragments; its map phase partitions those inputs by the
//! fragment key; its reducer runs the fragment's sub-plan in the embedded
//! DSMS.

use crate::annotate::{join_right_column, required_key_superset, Annotation, ExchangeKey};
use crate::error::{Result, TimrError};
use rustc_hash::{FxHashMap, FxHashSet};
use temporal::plan::{LogicalPlan, NodeId, Operator, PlanNode};

/// One input of a fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FragmentInput {
    /// A raw source dataset (the plan's `Source` leaf).
    SourceDataset {
        /// Dataset name.
        name: String,
    },
    /// The materialized output of another fragment.
    Intermediate {
        /// Root node (in the original plan) of the producer fragment.
        producer_root: NodeId,
    },
}

impl FragmentInput {
    /// DFS dataset name this input reads, given a job-unique prefix for
    /// intermediates.
    pub fn dataset_name(&self, job_prefix: &str) -> String {
        match self {
            FragmentInput::SourceDataset { name } => name.clone(),
            FragmentInput::Intermediate { producer_root } => {
                format!("{job_prefix}__f{producer_root}")
            }
        }
    }
}

/// One extracted fragment.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// Root node id in the *original* plan (a shared multi-query DAG, which
    /// compiles as one fragment: its first root).
    pub root: NodeId,
    /// Parallelization key: that of the exchanges below the fragment or,
    /// with none, `Spread` if every operator is stateless and `Single` if not.
    pub key: ExchangeKey,
    /// The fragment's own executable plan: interior operators with cut
    /// edges replaced by `Source` leaves. One root, or one per query of a
    /// shared multi-query DAG.
    pub plan: LogicalPlan,
    /// Inputs in the order of the fragment plan's `Source` leaves; the
    /// `String` is the source name used inside `plan`.
    pub inputs: Vec<(String, FragmentInput)>,
    /// Whether this fragment produces a plan output (vs. an intermediate).
    pub is_final: bool,
}

/// Cut `plan` into fragments per `annotation`. Producers precede consumers
/// in the returned order. Errors if the annotation violates the structural
/// rules (mismatched keys within a fragment, shared interior nodes,
/// operators incompatible with the fragment key).
pub fn fragment(plan: &LogicalPlan, annotation: &Annotation) -> Result<Vec<Fragment>> {
    if plan.roots().len() != 1 {
        return Err(TimrError::Compile(
            "TiMR jobs require a single-output plan; split multi-output queries into one job per output".into(),
        ));
    }

    // Fragment roots: the plan output plus every exchanged edge's child
    // that is an operator (exchanged Sources are read directly as raw
    // datasets by the consuming stage).
    let mut roots: Vec<NodeId> = vec![plan.roots()[0]];
    for &(consumer, input_idx) in annotation.exchanges().keys() {
        let node = plan
            .nodes()
            .get(consumer)
            .ok_or_else(|| TimrError::Annotation(format!("no node {consumer}")))?;
        let &child = node.inputs.get(input_idx).ok_or_else(|| {
            TimrError::Annotation(format!(
                "node {consumer} ({}) has no input {input_idx}",
                node.op.name()
            ))
        })?;
        if !matches!(plan.node(child).op, Operator::Source { .. }) && !roots.contains(&child) {
            roots.push(child);
        }
    }

    // Collect each fragment's interior nodes and bottom cut edges.
    struct RawFragment {
        root: NodeId,
        interior: Vec<NodeId>,
        /// (child node, exchange key if explicitly exchanged)
        cuts: Vec<(NodeId, Option<ExchangeKey>)>,
    }

    let root_set: FxHashSet<NodeId> = roots.iter().copied().collect();
    let mut owner: FxHashMap<NodeId, NodeId> = FxHashMap::default(); // node -> fragment root
    let mut raw_fragments = Vec::with_capacity(roots.len());

    for &froot in &roots {
        let mut interior = Vec::new();
        let mut cuts = Vec::new();
        let mut stack = vec![froot];
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue; // in-fragment multicast: visit once
            }
            if let Some(&other) = owner.get(&id) {
                if other != froot {
                    return Err(TimrError::Annotation(format!(
                        "node {id} ({}) is shared by two fragments without an exchange; \
                         materialize it by exchanging all of its outgoing edges",
                        plan.node(id).op.name()
                    )));
                }
            }
            owner.insert(id, froot);
            interior.push(id);
            for (idx, &child) in plan.node(id).inputs.iter().enumerate() {
                match annotation.on_edge(id, idx) {
                    Some(key) => cuts.push((child, Some(key.clone()))),
                    None => {
                        if matches!(plan.node(child).op, Operator::Source { .. }) {
                            // Raw dataset read without explicit exchange:
                            // partitioned by the fragment key implicitly.
                            cuts.push((child, None));
                        } else if root_set.contains(&child) {
                            return Err(TimrError::Annotation(format!(
                                "node {child} is a fragment root but edge ({id}, {idx}) \
                                 reading it carries no exchange",
                            )));
                        } else {
                            stack.push(child);
                        }
                    }
                }
            }
        }
        raw_fragments.push(RawFragment {
            root: froot,
            interior,
            cuts,
        });
    }

    // Resolve keys and build executable fragment plans.
    let mut fragments = Vec::with_capacity(raw_fragments.len());
    for raw in &raw_fragments {
        let key = resolve_key(plan, raw.root, &raw.interior, &raw.cuts)?;
        check_key_compatibility(raw.interior.iter().map(|&id| &plan.node(id).op), &key)?;
        let (frag_plan, inputs) = build_fragment_plan(plan, raw.root, &raw.interior, &raw.cuts)?;
        fragments.push(Fragment {
            root: raw.root,
            key,
            plan: frag_plan,
            inputs,
            is_final: raw.root == plan.roots()[0],
        });
    }

    // Producers before consumers: order by dependency (a fragment depends
    // on fragments named by its Intermediate inputs).
    let index_of: FxHashMap<NodeId, usize> = fragments
        .iter()
        .enumerate()
        .map(|(i, f)| (f.root, i))
        .collect();
    let mut order: Vec<usize> = Vec::with_capacity(fragments.len());
    let mut visited = vec![false; fragments.len()];
    fn visit(
        i: usize,
        fragments: &[Fragment],
        index_of: &FxHashMap<NodeId, usize>,
        visited: &mut [bool],
        order: &mut Vec<usize>,
    ) {
        if visited[i] {
            return;
        }
        visited[i] = true;
        for (_, input) in &fragments[i].inputs {
            if let FragmentInput::Intermediate { producer_root } = input {
                visit(index_of[producer_root], fragments, index_of, visited, order);
            }
        }
        order.push(i);
    }
    for i in 0..fragments.len() {
        visit(i, &fragments, &index_of, &mut visited, &mut order);
    }
    let mut by_order: Vec<Fragment> = Vec::with_capacity(fragments.len());
    let mut taken: Vec<Option<Fragment>> = fragments.into_iter().map(Some).collect();
    for i in order {
        by_order.push(taken[i].take().expect("each fragment ordered once"));
    }
    Ok(by_order)
}

/// Determine a fragment's key from its bottom cut edges.
fn resolve_key(
    plan: &LogicalPlan,
    root: NodeId,
    interior: &[NodeId],
    cuts: &[(NodeId, Option<ExchangeKey>)],
) -> Result<ExchangeKey> {
    let explicit: Vec<&ExchangeKey> = cuts.iter().filter_map(|(_, k)| k.as_ref()).collect();
    let Some(&first) = explicit.first() else {
        // No exchange below this fragment: stateless fragments may spread,
        // stateful ones (those with a key requirement) must run on a single
        // partition.
        let all_stateless =
            (interior.iter()).all(|&id| required_key_superset(&plan.node(id).op).is_none());
        return Ok(if all_stateless {
            ExchangeKey::Spread
        } else {
            ExchangeKey::Single
        });
    };
    if let Some(k) = explicit.iter().find(|&&k| k != first) {
        return Err(TimrError::Annotation(format!(
            "fragment rooted at node {root} has mismatched exchange keys {first} and {k}; \
             all inputs of one fragment must share a partitioning key"
        )));
    }
    Ok(first.clone())
}

/// The one key rule, for a TiMR fragment's interior and a shared
/// multi-query DAG alike: every operator must tolerate the partitioning
/// (paper §VI: a GroupApply keyed by X may be partitioned by any P ⊆ X,
/// joins by any subset of their equality columns, stateless operators by
/// anything; global aggregates/UDOs only by ⊤). A `Source` read inside a
/// GroupApply sub-plan, at any depth, is read whole by every group, so only
/// ⊤ can run it.
pub(crate) fn check_key_compatibility<'a>(
    ops: impl IntoIterator<Item = &'a Operator>,
    key: &ExchangeKey,
) -> Result<()> {
    if *key == ExchangeKey::Single {
        return Ok(()); // one partition: always correct
    }
    for op in ops {
        if let Some(source) = subplan_sources(op).first() {
            return Err(TimrError::Annotation(format!(
                "a GroupApply sub-plan reads source `{source}` whole; only a single-partition \
                 (⊤) fragment can run it, not {key}"
            )));
        }
        // Outside sub-plans the operators with a key requirement are exactly
        // the stateful ones.
        let Some(superset) = required_key_superset(op) else {
            continue;
        };
        let ExchangeKey::Keys(cols) = key else {
            return Err(TimrError::Annotation(format!(
                "randomly-spread fragment contains stateful operator {}",
                op.name()
            )));
        };
        if let Some(c) = cols.iter().find(|c| !superset.contains(c)) {
            return Err(TimrError::Annotation(format!(
                "operator {} cannot run under partitioning key {{{}}}: \
                 `{c}` is not one of its keys",
                op.name(),
                cols.join(", "),
            )));
        }
        // Joins additionally need the key columns to be named the same on
        // both inputs, since one hash function partitions both.
        let is_join = matches!(
            op,
            Operator::TemporalJoin { .. } | Operator::AntiSemiJoin { .. }
        );
        if let Some(c) = cols
            .iter()
            .find(|c| is_join && join_right_column(op, c) != Some(c.as_str()))
        {
            return Err(TimrError::Annotation(format!(
                "join partitioning column `{c}` must pair with an identically-named right column"
            )));
        }
    }
    Ok(())
}

/// The `Source` leaves `op` reads inside its GroupApply sub-plans, at any
/// depth.
pub(crate) fn subplan_sources(op: &Operator) -> Vec<&str> {
    let Operator::GroupApply { subplan, .. } = op else {
        return Vec::new();
    };
    (subplan.nodes().iter())
        .flat_map(|n| match &n.op {
            Operator::Source { name, .. } => vec![name.as_str()],
            op => subplan_sources(op),
        })
        .collect()
}

/// Copy the interior nodes into a standalone plan, replacing each cut child
/// with a `Source` leaf.
fn build_fragment_plan(
    plan: &LogicalPlan,
    root: NodeId,
    interior: &[NodeId],
    cuts: &[(NodeId, Option<ExchangeKey>)],
) -> Result<(LogicalPlan, Vec<(String, FragmentInput)>)> {
    let interior_set: FxHashSet<NodeId> = interior.iter().copied().collect();
    let mut nodes: Vec<PlanNode> = Vec::new();
    let mut remap: FxHashMap<NodeId, usize> = FxHashMap::default();
    let mut inputs: Vec<(String, FragmentInput)> = Vec::new();

    // Children-first over interior nodes (original arena order is already
    // children-first for builder-produced plans, but don't rely on it).
    let mut ordered: Vec<NodeId> = Vec::new();
    let mut seen: FxHashSet<NodeId> = FxHashSet::default();
    fn dfs(
        plan: &LogicalPlan,
        id: NodeId,
        interior: &FxHashSet<NodeId>,
        seen: &mut FxHashSet<NodeId>,
        out: &mut Vec<NodeId>,
    ) {
        if !interior.contains(&id) || !seen.insert(id) {
            return;
        }
        for &c in &plan.node(id).inputs {
            dfs(plan, c, interior, seen, out);
        }
        out.push(id);
    }
    dfs(plan, root, &interior_set, &mut seen, &mut ordered);

    let cut_map: FxHashMap<NodeId, &(NodeId, Option<ExchangeKey>)> =
        cuts.iter().map(|c| (c.0, c)).collect();

    for &id in &ordered {
        let node = plan.node(id);
        let mut new_inputs = Vec::with_capacity(node.inputs.len());
        for &child in &node.inputs {
            if interior_set.contains(&child) {
                new_inputs.push(remap[&child]);
                continue;
            }
            // Cut edge: materialize a Source leaf for it (once per child).
            let (name, input) = match &plan.node(child).op {
                Operator::Source { name, schema: _ } => (
                    name.clone(),
                    FragmentInput::SourceDataset { name: name.clone() },
                ),
                _ => {
                    debug_assert!(cut_map.contains_key(&child), "cut edge is annotated");
                    (
                        format!("__f{child}"),
                        FragmentInput::Intermediate {
                            producer_root: child,
                        },
                    )
                }
            };
            let existing = nodes
                .iter()
                .position(|n| matches!(&n.op, Operator::Source { name: n2, .. } if *n2 == name));
            let src_id = match existing {
                Some(i) => i,
                None => {
                    nodes.push(PlanNode {
                        op: Operator::Source {
                            name: name.clone(),
                            schema: plan.schema_of(child).clone(),
                        },
                        inputs: vec![],
                    });
                    inputs.push((name, input));
                    nodes.len() - 1
                }
            };
            new_inputs.push(src_id);
        }
        remap.insert(id, nodes.len());
        nodes.push(PlanNode {
            op: node.op.clone(),
            inputs: new_inputs,
        });
    }

    let frag_plan = LogicalPlan::from_parts(nodes, vec![remap[&root]])?;
    Ok((frag_plan, inputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::ExchangeKey;
    use relation::schema::{ColumnType, Field};
    use relation::Schema;
    use temporal::expr::{col, lit};
    use temporal::plan::Query;

    fn bt_payload() -> Schema {
        Schema::new(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("UserId", ColumnType::Str),
            Field::new("KwAdId", ColumnType::Str),
        ])
    }

    /// RunningClickCount with its Fig 7 annotation.
    fn click_count() -> (LogicalPlan, NodeId) {
        let q = Query::new();
        let out = q
            .source("input", bt_payload())
            .filter(col("StreamId").eq(lit(1)))
            .group_apply(&["KwAdId"], |g| g.window(100).count("N"));
        let plan = q.build(vec![out]).unwrap();
        let filter = plan
            .nodes()
            .iter()
            .position(|n| matches!(n.op, Operator::Filter { .. }))
            .unwrap();
        (plan, filter)
    }

    #[test]
    fn single_fragment_like_fig7() {
        // Exchange directly above the source (below the Filter) — Fig 7.
        let (plan, filter) = click_count();
        let ann = Annotation::none().exchange(filter, 0, ExchangeKey::keys(&["KwAdId"]));
        let frags = fragment(&plan, &ann).unwrap();
        assert_eq!(frags.len(), 1);
        let f = &frags[0];
        assert_eq!(f.key, ExchangeKey::keys(&["KwAdId"]));
        assert!(f.is_final);
        assert_eq!(
            f.inputs,
            vec![(
                "input".to_string(),
                FragmentInput::SourceDataset {
                    name: "input".into()
                }
            )]
        );
    }

    #[test]
    fn no_annotation_yields_single_partition_fragment() {
        let (plan, _) = click_count();
        let frags = fragment(&plan, &Annotation::none()).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].key, ExchangeKey::Single);
    }

    #[test]
    fn mid_plan_exchange_makes_two_fragments() {
        // Exchange above the GroupApply output: filter+source fragment
        // below (spread-able), final gather above.
        let q = Query::new();
        let grouped = q
            .source("input", bt_payload())
            .filter(col("StreamId").eq(lit(1)))
            .group_apply(&["KwAdId"], |g| g.window(100).count("N"));
        let gather = grouped.clone().select(&["KwAdId", "N"]);
        let plan = q.build(vec![gather]).unwrap();
        let select = plan.roots()[0];
        let ga = plan
            .nodes()
            .iter()
            .position(|n| matches!(n.op, Operator::GroupApply { .. }))
            .unwrap();
        let filter = plan
            .nodes()
            .iter()
            .position(|n| matches!(n.op, Operator::Filter { .. }))
            .unwrap();
        let ann = Annotation::none()
            .exchange(filter, 0, ExchangeKey::keys(&["KwAdId"]))
            .exchange(select, 0, ExchangeKey::Single);
        let frags = fragment(&plan, &ann).unwrap();
        assert_eq!(frags.len(), 2);
        // Producer first.
        assert_eq!(frags[0].root, ga);
        assert_eq!(frags[0].key, ExchangeKey::keys(&["KwAdId"]));
        assert!(!frags[0].is_final);
        assert_eq!(frags[1].key, ExchangeKey::Single);
        assert!(frags[1].is_final);
        assert_eq!(
            frags[1].inputs,
            vec![(
                format!("__f{ga}"),
                FragmentInput::Intermediate { producer_root: ga }
            )]
        );
    }

    #[test]
    fn incompatible_key_rejected() {
        // Partitioning by UserId under a GroupApply(KwAdId) is invalid.
        let (plan, filter) = click_count();
        let ann = Annotation::none().exchange(filter, 0, ExchangeKey::keys(&["UserId"]));
        let err = fragment(&plan, &ann).unwrap_err();
        assert!(err.to_string().contains("cannot run under partitioning"));
    }

    #[test]
    fn mismatched_fragment_keys_rejected() {
        // A join whose two inputs are exchanged with different keys.
        let q = Query::new();
        let a = q.source("a", bt_payload());
        let b = q.source("b", bt_payload());
        let j = a.temporal_join(b, &[("UserId", "UserId")], None);
        let plan = q.build(vec![j]).unwrap();
        let join = plan.roots()[0];
        let ann = Annotation::none()
            .exchange(join, 0, ExchangeKey::keys(&["UserId"]))
            .exchange(join, 1, ExchangeKey::Single);
        assert!(fragment(&plan, &ann)
            .unwrap_err()
            .to_string()
            .contains("mismatched"));
    }

    #[test]
    fn subset_key_is_accepted_for_group_apply() {
        // GroupApply on {UserId, KwAdId} partitioned by {UserId} alone —
        // the Example 3 optimization.
        let q = Query::new();
        let out = q
            .source("input", bt_payload())
            .group_apply(&["UserId", "KwAdId"], |g| g.window(10).count("N"));
        let plan = q.build(vec![out]).unwrap();
        let ga = plan.roots()[0];
        let ann = Annotation::none().exchange(ga, 0, ExchangeKey::keys(&["UserId"]));
        let frags = fragment(&plan, &ann).unwrap();
        assert_eq!(frags[0].key, ExchangeKey::keys(&["UserId"]));
    }

    #[test]
    fn global_aggregate_requires_single_partition() {
        let q = Query::new();
        let out = q.source("input", bt_payload()).window(10).count("N");
        let plan = q.build(vec![out]).unwrap();
        // Keyed exchange under a global aggregate must be rejected.
        let agg = plan.roots()[0];
        let window = plan.node(agg).inputs[0];
        let ann = Annotation::none().exchange(window, 0, ExchangeKey::keys(&["UserId"]));
        assert!(fragment(&plan, &ann).is_err());
        // ⊤ is fine.
        let ann = Annotation::none().exchange(window, 0, ExchangeKey::Single);
        assert_eq!(fragment(&plan, &ann).unwrap()[0].key, ExchangeKey::Single);
    }
}
