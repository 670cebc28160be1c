//! Cost-based plan annotation (paper §VI, Algorithm 1).
//!
//! A transformation-based top-down search in the style of Cascades:
//! `optimize_node(node, required)` finds the cheapest way to compute a
//! node's output such that the output's partitioning discipline satisfies
//! `required`, memoizing on `(node, required)`. At every edge the search
//! considers (1) asking the child to deliver the requirement natively and
//! (2) inserting an exchange below the consumer — exactly the two
//! alternatives of §VI — and propagates *required properties* downward
//! while checking the *delivered properties* upward.
//!
//! Requirements are concrete partitioning disciplines rather than subset
//! constraints: candidate key sets for a GroupApply on `X` are `X` itself,
//! each singleton of `X`, and ⊤ (single partition), which covers the
//! paper's `P ⊆ X` rule for the key sizes that occur in practice (the BT
//! queries use one- and two-column keys). Partitioning by `P ⊆ X` implies
//! partitioning by `X`, which is how the optimizer discovers Example 3:
//! partitioning GenTrainData once by `{UserId}` serves both the
//! `{UserId, Keyword}` GroupApply and the downstream `{UserId}` join.
//!
//! Nodes consumed by more than one parent (multicast across fragments) are
//! materialization boundaries: they are optimized once with no requirement
//! and every consuming edge pays an exchange.

pub mod cost;

use crate::annotate::{Annotation, ExchangeKey};
use crate::error::{Result, TimrError};
use cost::{estimate_plan, Estimate};
use relation::DatasetStats;
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use temporal::plan::{LogicalPlan, NodeId, Operator};

/// Optimizer tuning knobs.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Reduce-partition count for keyed fragments.
    pub machines: usize,
    /// CPU cost per row processed by an operator.
    pub cpu_cost_per_row: f64,
    /// Cost per byte crossing an exchange (disk write + network + read,
    /// paper §VI "Cost Estimation").
    pub exchange_cost_per_byte: f64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            machines: 8,
            cpu_cost_per_row: 1.0,
            exchange_cost_per_byte: 0.08,
        }
    }
}

/// A partitioning discipline required of (or delivered by) a stream.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Discipline {
    /// No constraint (random placement acceptable).
    Any,
    /// Hash-partitioned on exactly these columns (sorted).
    Keys(Vec<String>),
    /// Single partition.
    Single,
}

impl Discipline {
    fn keys(mut cols: Vec<String>) -> Self {
        cols.sort();
        cols.dedup();
        Discipline::Keys(cols)
    }

    fn to_exchange_key(&self) -> ExchangeKey {
        match self {
            Discipline::Keys(c) => ExchangeKey::Keys(c.clone()),
            Discipline::Single => ExchangeKey::Single,
            // Exchanging into "any" means a deterministic spread.
            Discipline::Any => ExchangeKey::Spread,
        }
    }
}

#[derive(Debug, Clone)]
struct Choice {
    cost: f64,
    exchanges: Vec<((NodeId, usize), ExchangeKey)>,
}

/// Result of optimization.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The chosen annotation.
    pub annotation: Annotation,
    /// Its estimated cost (arbitrary units; comparable across annotations
    /// of the same plan).
    pub cost: f64,
}

/// Estimate the cost of a *given* annotation (used to compare hinted plans,
/// e.g. the two GenTrainData variants of Example 3/§V-B).
pub fn annotation_cost(
    plan: &LogicalPlan,
    annotation: &Annotation,
    source_stats: &BTreeMap<String, DatasetStats>,
    config: &OptimizerConfig,
) -> Result<f64> {
    let est = estimate_plan(plan, source_stats);
    let fragments = crate::fragment::fragment(plan, annotation)?;
    let mut total = 0.0;
    for frag in &fragments {
        // Exchange cost: all stage inputs are shuffled.
        for (_, input) in &frag.inputs {
            let bytes = match input {
                crate::fragment::FragmentInput::SourceDataset { name } => source_stats
                    .get(name)
                    .map(|s| s.rows as f64 * s.avg_row_width.max(1.0))
                    .unwrap_or(64_000.0),
                crate::fragment::FragmentInput::Intermediate { producer_root } => {
                    est[producer_root].bytes()
                }
            };
            total += bytes * config.exchange_cost_per_byte;
        }
        // CPU cost of interior operators divided by fragment parallelism.
        let parallelism = match &frag.key {
            ExchangeKey::Single => 1.0,
            ExchangeKey::Spread => config.machines as f64,
            ExchangeKey::Keys(cols) => {
                // Bound parallelism by the key's distinct count at the
                // fragment's dominant input.
                let mut d = f64::INFINITY;
                for (_, input) in &frag.inputs {
                    if let crate::fragment::FragmentInput::Intermediate { producer_root } = input {
                        d = d.min(est[producer_root].key_distinct(cols));
                    }
                }
                if d.is_infinite() {
                    // Source-only fragment: use the fragment root estimate.
                    d = est[&frag.root].key_distinct(cols);
                }
                (config.machines as f64).min(d.max(1.0))
            }
        };
        // Interior node ids in the original plan are not tracked on the
        // Fragment; approximate CPU with the fragment root's estimate.
        let cpu =
            est[&frag.root].rows * config.cpu_cost_per_row * frag.plan.operator_count() as f64;
        total += cpu / parallelism;
    }
    Ok(total)
}

/// Find a low-cost annotation for `plan`.
pub fn optimize(
    plan: &LogicalPlan,
    source_stats: &BTreeMap<String, DatasetStats>,
    config: &OptimizerConfig,
) -> Result<Optimized> {
    let est = estimate_plan(plan, source_stats);
    if plan.roots().len() != 1 {
        return Err(TimrError::Annotation(
            "optimizer requires a single-output plan".into(),
        ));
    }

    // Materialization boundaries: operator nodes with several consumers.
    let mut shared: Vec<NodeId> = plan
        .nodes()
        .iter()
        .enumerate()
        .filter(|(id, n)| !matches!(n.op, Operator::Source { .. }) && plan.consumers(*id).len() > 1)
        .map(|(id, _)| id)
        .collect();
    shared.sort_unstable();

    let mut search = Search {
        plan,
        est: &est,
        config,
        shared: &shared,
        memo: FxHashMap::default(),
    };

    let mut exchanges: Vec<((NodeId, usize), ExchangeKey)> = Vec::new();
    let mut total_cost = 0.0;

    // Optimize shared sub-DAGs bottom-up (topo order ensures children of a
    // shared node that are themselves shared are already fixed).
    for &s in &shared {
        let choice = search
            .optimize_node(s, &Discipline::Any)
            .ok_or_else(|| TimrError::Annotation("no feasible plan for shared node".into()))?;
        total_cost += choice.cost;
        exchanges.extend(choice.exchanges);
    }

    let root_choice = search
        .optimize_node(plan.roots()[0], &Discipline::Any)
        .ok_or_else(|| TimrError::Annotation("no feasible plan".into()))?;
    total_cost += root_choice.cost;
    exchanges.extend(root_choice.exchanges);

    let mut annotation = Annotation::none();
    for ((consumer, idx), key) in exchanges {
        annotation = annotation.exchange(consumer, idx, key);
    }
    annotation.validate(plan)?;
    Ok(Optimized {
        annotation,
        cost: total_cost,
    })
}

struct Search<'a> {
    plan: &'a LogicalPlan,
    est: &'a FxHashMap<NodeId, Estimate>,
    config: &'a OptimizerConfig,
    shared: &'a [NodeId],
    memo: FxHashMap<(NodeId, Discipline), Option<Choice>>,
}

impl<'a> Search<'a> {
    fn parallelism(&self, discipline: &Discipline, at: NodeId) -> f64 {
        match discipline {
            Discipline::Any => self.config.machines as f64,
            Discipline::Single => 1.0,
            Discipline::Keys(cols) => {
                (self.config.machines as f64).min(self.est[&at].key_distinct(cols).max(1.0))
            }
        }
    }

    fn op_cost(&self, id: NodeId) -> f64 {
        let node = self.plan.node(id);
        let out_rows = self.est[&id].rows;
        let in_rows: f64 = node.inputs.iter().map(|i| self.est[i].rows).sum();
        let factor = match &node.op {
            Operator::GroupApply { subplan, .. } => 1.0 + subplan.operator_count() as f64 * 0.5,
            Operator::TemporalJoin { .. } => 2.0,
            Operator::HopUdo { .. } => 4.0,
            _ => 1.0,
        };
        (in_rows + out_rows) * self.config.cpu_cost_per_row * factor
    }

    fn exchange_cost(&self, producer: NodeId) -> f64 {
        self.est[&producer].bytes() * self.config.exchange_cost_per_byte
    }

    /// Candidate concrete disciplines for a "subset of X" requirement.
    fn candidates(cols: &[String]) -> Vec<Discipline> {
        let mut out = Vec::new();
        if !cols.is_empty() {
            out.push(Discipline::keys(cols.to_vec()));
            if cols.len() > 1 {
                for c in cols {
                    out.push(Discipline::keys(vec![c.clone()]));
                }
            }
        }
        out.push(Discipline::Single);
        out
    }

    /// Cheapest way to satisfy `req` on the edge into `child`.
    fn optimize_edge(
        &mut self,
        child: NodeId,
        consumer: NodeId,
        input_idx: usize,
        req: &Discipline,
    ) -> Option<Choice> {
        if self.shared.contains(&child) {
            // Materialization boundary: always exchange; the child's own
            // cost is accounted once at top level.
            return Some(Choice {
                cost: self.exchange_cost(child),
                exchanges: vec![((consumer, input_idx), req.to_exchange_key())],
            });
        }
        let mut best: Option<Choice> = None;
        // (a) child delivers the requirement natively.
        if let Some(c) = self.optimize_node(child, req) {
            best = Some(c);
        }
        // (b) exchange on this edge.
        if *req != Discipline::Any {
            if let Some(mut c) = self.optimize_node(child, &Discipline::Any) {
                c.cost += self.exchange_cost(child);
                c.exchanges
                    .push(((consumer, input_idx), req.to_exchange_key()));
                if best.as_ref().is_none_or(|b| c.cost < b.cost) {
                    best = Some(c);
                }
            }
        }
        best
    }

    /// Cheapest way to compute `id` delivering discipline `req`.
    fn optimize_node(&mut self, id: NodeId, req: &Discipline) -> Option<Choice> {
        let memo_key = (id, req.clone());
        if let Some(hit) = self.memo.get(&memo_key) {
            return hit.clone();
        }
        let result = self.optimize_node_inner(id, req);
        self.memo.insert(memo_key, result.clone());
        result
    }

    fn optimize_node_inner(&mut self, id: NodeId, req: &Discipline) -> Option<Choice> {
        let node = self.plan.node(id);
        // A keyed requirement is only deliverable if the columns exist in
        // this node's output.
        if let Discipline::Keys(cols) = req {
            let schema = self.plan.schema_of(id);
            if cols.iter().any(|c| !schema.contains(c)) {
                return None;
            }
        }
        match &node.op {
            Operator::Source { .. } => {
                // Raw datasets are randomly placed.
                (*req == Discipline::Any).then_some(Choice {
                    cost: 0.0,
                    exchanges: vec![],
                })
            }
            Operator::GroupInput { .. } => Some(Choice {
                cost: 0.0,
                exchanges: vec![],
            }),
            // Stateless unary operators: partitioning passes through.
            Operator::Filter { .. }
            | Operator::Project { .. }
            | Operator::AlterLifetime { .. }
            | Operator::FusedFragment { .. }
            | Operator::SpreadGrid { .. } => {
                let child = node.inputs[0];
                let mut c = self.optimize_edge(child, id, 0, req)?;
                c.cost += self.op_cost(id) / self.parallelism(req, id);
                Some(c)
            }
            Operator::Union => {
                let mut cost = self.op_cost(id) / self.parallelism(req, id);
                let mut exchanges = Vec::new();
                for (idx, &child) in node.inputs.clone().iter().enumerate() {
                    let c = self.optimize_edge(child, id, idx, req)?;
                    cost += c.cost;
                    exchanges.extend(c.exchanges);
                }
                Some(Choice { cost, exchanges })
            }
            Operator::GroupApply { keys, .. } => {
                let child = node.inputs[0];
                let child_reqs: Vec<Discipline> = match req {
                    Discipline::Any => Self::candidates(keys),
                    Discipline::Keys(p) => {
                        if p.iter().all(|c| keys.contains(c)) {
                            vec![req.clone()]
                        } else {
                            return None; // needs an exchange above
                        }
                    }
                    Discipline::Single => vec![Discipline::Single],
                };
                let mut best: Option<Choice> = None;
                for child_req in child_reqs {
                    if let Some(mut c) = self.optimize_edge(child, id, 0, &child_req) {
                        c.cost += self.op_cost(id) / self.parallelism(&child_req, id);
                        if best.as_ref().is_none_or(|b| c.cost < b.cost) {
                            best = Some(c);
                        }
                    }
                }
                best
            }
            Operator::Aggregate { .. } | Operator::HopUdo { .. } => {
                // Global operators: input gathered to one partition; the
                // single-partition output satisfies any requirement.
                let child = node.inputs[0];
                let mut c = self.optimize_edge(child, id, 0, &Discipline::Single)?;
                c.cost += self.op_cost(id);
                Some(c)
            }
            Operator::TemporalJoin { keys, .. } | Operator::AntiSemiJoin { keys } => {
                // Partitionable only on identically-named key pairs.
                let shared_cols: Vec<String> = keys
                    .iter()
                    .filter(|(l, r)| l == r)
                    .map(|(l, _)| l.clone())
                    .collect();
                let options: Vec<Discipline> = match req {
                    Discipline::Any => Self::candidates(&shared_cols),
                    Discipline::Keys(p) => {
                        if p.iter().all(|c| shared_cols.contains(c)) {
                            vec![req.clone()]
                        } else {
                            return None;
                        }
                    }
                    Discipline::Single => vec![Discipline::Single],
                };
                let (left, right) = (node.inputs[0], node.inputs[1]);
                let mut best: Option<Choice> = None;
                for p in options {
                    let Some(lc) = self.optimize_edge(left, id, 0, &p) else {
                        continue;
                    };
                    let Some(rc) = self.optimize_edge(right, id, 1, &p) else {
                        continue;
                    };
                    let cost = lc.cost + rc.cost + self.op_cost(id) / self.parallelism(&p, id);
                    if best.as_ref().is_none_or(|b| cost < b.cost) {
                        let mut exchanges = lc.exchanges;
                        exchanges.extend(rc.exchanges);
                        best = Some(Choice { cost, exchanges });
                    }
                }
                best
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::row;
    use relation::schema::{ColumnType, Field};
    use relation::{Row, Schema};
    use temporal::expr::{col, lit};
    use temporal::plan::Query;

    fn payload() -> Schema {
        Schema::new(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("UserId", ColumnType::Str),
            Field::new("Keyword", ColumnType::Str),
        ])
    }

    fn stats(rows: usize, users: usize, kws: usize) -> BTreeMap<String, DatasetStats> {
        let rows: Vec<Row> = (0..rows)
            .map(|i| {
                row![
                    (i % 3) as i32,
                    format!("u{}", i % users),
                    format!("k{}", i % kws)
                ]
            })
            .collect();
        let mut m = BTreeMap::new();
        m.insert("logs".to_string(), DatasetStats::compute(&payload(), &rows));
        m
    }

    #[test]
    fn simple_group_apply_gets_keyed_exchange() {
        // RunningClickCount: the optimizer should partition by the group key.
        let q = Query::new();
        let out = q
            .source("logs", payload())
            .filter(col("StreamId").eq(lit(1)))
            .group_apply(&["Keyword"], |g| g.window(100).count("N"));
        let plan = q.build(vec![out]).unwrap();
        let opt = optimize(&plan, &stats(5000, 200, 50), &OptimizerConfig::default()).unwrap();
        assert_eq!(opt.annotation.len(), 1);
        let (_, key) = opt.annotation.exchanges().iter().next().unwrap();
        assert_eq!(key, &ExchangeKey::keys(&["Keyword"]));
    }

    /// Example 3 / §V-B "Fragment Optimization": a GroupApply on
    /// {UserId, Keyword} feeding a TemporalJoin on UserId should be
    /// partitioned ONCE by {UserId}, not by {UserId, Keyword} and then
    /// repartitioned.
    #[test]
    fn example3_partitions_once_by_userid() {
        let q = Query::new();
        let input = q.source("logs", payload());
        let profiles = input
            .clone()
            .filter(col("StreamId").eq(lit(2)))
            .group_apply(&["UserId", "Keyword"], |g| g.window(100).count("N"));
        let clicks = input.filter(col("StreamId").eq(lit(1)));
        let joined = clicks.temporal_join(profiles, &[("UserId", "UserId")], None);
        let plan = q.build(vec![joined]).unwrap();

        let opt = optimize(&plan, &stats(20_000, 500, 200), &OptimizerConfig::default()).unwrap();
        // Every exchange the optimizer placed must be keyed by {UserId}
        // alone — one partitioning pass serves both operators.
        assert!(!opt.annotation.is_empty());
        for key in opt.annotation.exchanges().values() {
            assert_eq!(
                key,
                &ExchangeKey::keys(&["UserId"]),
                "expected a single-key {{UserId}} partitioning, got {key}"
            );
        }
        // And the fragmentation must contain exactly one keyed fragment —
        // a single {UserId} repartitioning — with any remaining fragments
        // being embarrassingly-parallel stateless spreads (the optimizer
        // legitimately pushes filters below the shuffle to move less data).
        let frags = crate::fragment::fragment(&plan, &opt.annotation).unwrap();
        let keyed: Vec<_> = frags
            .iter()
            .filter(|f| matches!(f.key, ExchangeKey::Keys(_)))
            .collect();
        assert_eq!(keyed.len(), 1, "expected exactly one keyed fragment");
        assert_eq!(keyed[0].key, ExchangeKey::keys(&["UserId"]));
        assert!(frags.iter().all(|f| !matches!(f.key, ExchangeKey::Single)));
    }

    #[test]
    fn optimizer_beats_naive_annotation_on_example3() {
        let q = Query::new();
        let input = q.source("logs", payload());
        let profiles = input
            .clone()
            .filter(col("StreamId").eq(lit(2)))
            .group_apply(&["UserId", "Keyword"], |g| g.window(100).count("N"));
        let clicks = input.filter(col("StreamId").eq(lit(1)));
        let joined = clicks
            .clone()
            .temporal_join(profiles.clone(), &[("UserId", "UserId")], None);
        let plan = q.build(vec![joined]).unwrap();

        let join_id = plan.roots()[0];
        let ga_id = plan
            .nodes()
            .iter()
            .position(|n| matches!(n.op, Operator::GroupApply { .. }))
            .unwrap();
        let filter_under_ga = plan.node(ga_id).inputs[0];

        // Naive: partition UBP generation by {UserId, Keyword}, then
        // repartition by {UserId} for the join.
        let naive = Annotation::none()
            .exchange(
                filter_under_ga,
                0,
                ExchangeKey::keys(&["UserId", "Keyword"]),
            )
            .exchange(join_id, 0, ExchangeKey::keys(&["UserId"]))
            .exchange(join_id, 1, ExchangeKey::keys(&["UserId"]));
        // (The filter edge exchange keys the bottom fragment.)
        let s = stats(20_000, 500, 200);
        let cfg = OptimizerConfig::default();
        let naive_cost = annotation_cost(&plan, &naive, &s, &cfg).unwrap();
        let opt = optimize(&plan, &s, &cfg).unwrap();
        assert!(
            opt.cost < naive_cost,
            "optimized {} should beat naive {naive_cost}",
            opt.cost
        );
    }

    #[test]
    fn global_aggregate_forces_single_gather() {
        let q = Query::new();
        let out = q.source("logs", payload()).window(10).count("N");
        let plan = q.build(vec![out]).unwrap();
        let opt = optimize(&plan, &stats(1000, 10, 10), &OptimizerConfig::default()).unwrap();
        let frags = crate::fragment::fragment(&plan, &opt.annotation).unwrap();
        assert!(frags.iter().any(|f| f.key == ExchangeKey::Single));
    }
}
