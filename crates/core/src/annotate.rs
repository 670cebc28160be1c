//! Plan annotation: adding data-parallel semantics with logical exchange
//! operators (paper §III-A step 2).
//!
//! An exchange on edge `(consumer, input index)` declares that the stream
//! flowing along that edge is repartitioned before the consumer reads it.
//! A stream is partitioned on key `X` when events agreeing on `X` land on
//! the same machine; exchanges are the only operators that change this
//! property.
//!
//! Annotations can come from user hints (this module's builder API) or from
//! the cost-based optimizer ([`crate::optimizer`]). Either way,
//! [`Annotation::validate`] enforces the structural rules the fragmenter
//! needs:
//!
//! - every exchange key must consist of columns present in the producer's
//!   output schema;
//! - all exchange edges feeding one fragment must carry the same key
//!   (paper footnote 1: multi-input operators have identically partitioned
//!   inputs);
//! - a node shared by several fragments must be a fragment boundary on all
//!   its outgoing edges (its output is materialized once in the DFS and
//!   re-mapped by each consuming stage).
//! - the partitioning key must be *compatible* with every operator in the
//!   fragment: a GroupApply (or join) may only be keyed by a subset of its
//!   grouping (join) columns, per the property rules of paper §VI;
//! - a `Source` read inside a GroupApply sub-plan, at any depth, is read
//!   whole by every group, so only a single-partition (⊤) fragment may
//!   contain it.
//!
//! The last two are the one key rule
//! ([`crate::fragment::check_key_compatibility`]), which a shared
//! multi-query DAG passes too.

use crate::error::{Result, TimrError};
use std::collections::BTreeMap;
use temporal::plan::{LogicalPlan, NodeId, Operator};

/// The partitioning key carried by an exchange.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExchangeKey {
    /// Repartition by `hash(columns) mod machines` (paper §III-C.3).
    Keys(Vec<String>),
    /// Gather everything onto a single partition.
    Single,
    /// Deterministic spread with no key (the ⊥ "randomly partitioned"
    /// stream of §VI); only valid below all-stateless fragments.
    Spread,
}

impl ExchangeKey {
    /// Build a key exchange from column names.
    pub fn keys(columns: &[&str]) -> Self {
        ExchangeKey::Keys(columns.iter().map(|c| c.to_string()).collect())
    }

    /// The key columns (empty for `Single`/`Spread`).
    pub fn columns(&self) -> &[String] {
        match self {
            ExchangeKey::Keys(c) => c,
            ExchangeKey::Single | ExchangeKey::Spread => &[],
        }
    }
}

impl std::fmt::Display for ExchangeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeKey::Keys(c) => write!(f, "E({})", c.join(", ")),
            ExchangeKey::Single => write!(f, "E(⊤)"),
            ExchangeKey::Spread => write!(f, "E(⊥)"),
        }
    }
}

/// An edge in the plan DAG: `(consumer node, input index)`.
pub type Edge = (NodeId, usize);

/// A set of exchange placements over a plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Annotation {
    exchanges: BTreeMap<Edge, ExchangeKey>,
}

impl Annotation {
    /// No exchanges: the whole plan runs as one single-partition fragment.
    pub fn none() -> Self {
        Annotation::default()
    }

    /// Add an exchange below input `input_idx` of `consumer`.
    pub fn exchange(mut self, consumer: NodeId, input_idx: usize, key: ExchangeKey) -> Self {
        self.exchanges.insert((consumer, input_idx), key);
        self
    }

    /// All exchange placements.
    pub fn exchanges(&self) -> &BTreeMap<Edge, ExchangeKey> {
        &self.exchanges
    }

    /// The exchange on an edge, if any.
    pub fn on_edge(&self, consumer: NodeId, input_idx: usize) -> Option<&ExchangeKey> {
        self.exchanges.get(&(consumer, input_idx))
    }

    /// Number of exchanges (repartitioning steps).
    pub fn len(&self) -> usize {
        self.exchanges.len()
    }

    /// True when no exchanges are placed.
    pub fn is_empty(&self) -> bool {
        self.exchanges.is_empty()
    }

    /// Render the plan with exchange markers on annotated edges, in the
    /// style of paper Fig 7.
    pub fn display_over(&self, plan: &LogicalPlan) -> String {
        let mut out = String::new();
        for (i, &root) in plan.roots().iter().enumerate() {
            out.push_str(&format!("output {i}:\n"));
            self.fmt_node(plan, root, 1, &mut out);
        }
        out
    }

    fn fmt_node(&self, plan: &LogicalPlan, id: NodeId, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        let node = plan.node(id);
        match &node.op {
            Operator::Source { name, .. } => out.push_str(&format!("{pad}Source `{name}`\n")),
            Operator::GroupApply { keys, .. } => {
                out.push_str(&format!("{pad}GroupApply ({})\n", keys.join(", ")))
            }
            op => out.push_str(&format!("{pad}{}\n", op.name())),
        }
        for (idx, &child) in node.inputs.iter().enumerate() {
            if let Some(key) = self.on_edge(id, idx) {
                out.push_str(&format!("{}  {key}\n", "  ".repeat(indent)));
            }
            self.fmt_node(plan, child, indent + 1, out);
        }
    }

    /// Check structural validity against `plan` (see module docs).
    /// Fragment-level checks (key agreement, interior sharing, operator
    /// compatibility) run during fragmentation, which this calls.
    pub fn validate(&self, plan: &LogicalPlan) -> Result<()> {
        for (&(consumer, input_idx), key) in &self.exchanges {
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
            let child_schema = plan.schema_of(child);
            for c in key.columns() {
                if !child_schema.contains(c) {
                    return Err(TimrError::Annotation(format!(
                        "exchange key column `{c}` not in producer schema {child_schema}"
                    )));
                }
            }
        }
        crate::fragment::fragment(plan, self).map(|_| ())
    }
}

/// The partitioning keys an operator can accept for its input streams,
/// used to check annotation compatibility and to drive the optimizer
/// (paper §VI "Deriving Required Properties for CQ Operators").
///
/// Returns `None` when the operator imposes no constraint (stateless
/// operators can run under any partitioning); `Some(cols)` means the
/// input's partitioning key must be a subset of `cols`.
pub fn required_key_superset(op: &Operator) -> Option<Vec<String>> {
    match op {
        Operator::GroupApply { keys, .. } => Some(keys.clone()),
        // For joins the constraint applies to both inputs pairwise; the
        // left-column names name the partitioning (right side must use the
        // paired columns — handled by `join_key_pairs`).
        Operator::TemporalJoin { keys, .. } | Operator::AntiSemiJoin { keys } => {
            Some(keys.iter().map(|(l, _)| l.clone()).collect())
        }
        // Aggregate / HopUdo over the whole stream require a single
        // partition (or temporal partitioning, chosen explicitly).
        Operator::Aggregate { .. } | Operator::HopUdo { .. } => Some(vec![]),
        _ => None,
    }
}

/// For a join-like operator, map a left-side partitioning column to its
/// right-side pair.
pub fn join_right_column<'a>(op: &'a Operator, left_col: &str) -> Option<&'a str> {
    match op {
        Operator::TemporalJoin { keys, .. } | Operator::AntiSemiJoin { keys } => keys
            .iter()
            .find(|(l, _)| l == left_col)
            .map(|(_, r)| r.as_str()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn click_count_plan() -> (LogicalPlan, NodeId) {
        let q = Query::new();
        let out = q
            .source("input", bt_payload())
            .filter(col("StreamId").eq(lit(1)))
            .group_apply(&["KwAdId"], |g| g.window(100).count("N"));
        let plan = q.build(vec![out]).unwrap();
        let ga = plan
            .nodes()
            .iter()
            .position(|n| matches!(n.op, Operator::GroupApply { .. }))
            .unwrap();
        (plan, ga)
    }

    #[test]
    fn valid_annotation_passes() {
        let (plan, ga) = click_count_plan();
        let ann = Annotation::none().exchange(ga, 0, ExchangeKey::keys(&["KwAdId"]));
        ann.validate(&plan).unwrap();
        assert_eq!(ann.len(), 1);
    }

    #[test]
    fn unknown_key_column_rejected() {
        let (plan, ga) = click_count_plan();
        let ann = Annotation::none().exchange(ga, 0, ExchangeKey::keys(&["Nope"]));
        assert!(ann.validate(&plan).is_err());
    }

    #[test]
    fn bad_edge_rejected() {
        let (plan, ga) = click_count_plan();
        let ann = Annotation::none().exchange(ga, 5, ExchangeKey::keys(&["KwAdId"]));
        assert!(ann.validate(&plan).is_err());
        let ann = Annotation::none().exchange(999, 0, ExchangeKey::Single);
        assert!(ann.validate(&plan).is_err());
    }

    #[test]
    fn display_shows_exchanges_at_edges() {
        let (plan, ga) = click_count_plan();
        let ann = Annotation::none().exchange(ga, 0, ExchangeKey::keys(&["KwAdId"]));
        let text = ann.display_over(&plan);
        // Fig 7 shape: the exchange sits between GroupApply and its input.
        let ga_pos = text.find("GroupApply (KwAdId)").unwrap();
        let ex_pos = text.find("E(KwAdId)").unwrap();
        let src_pos = text.find("Source `input`").unwrap();
        assert!(ga_pos < ex_pos && ex_pos < src_pos, "layout:\n{text}");
    }

    #[test]
    fn required_keys_reflect_operator_semantics() {
        let (plan, ga) = click_count_plan();
        let req = required_key_superset(&plan.node(ga).op);
        assert_eq!(req, Some(vec!["KwAdId".to_string()]));
        // A filter imposes no requirement.
        let filter = plan
            .nodes()
            .iter()
            .position(|n| matches!(n.op, Operator::Filter { .. }))
            .unwrap();
        assert_eq!(required_key_superset(&plan.node(filter).op), None);
    }
}
