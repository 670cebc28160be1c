//! Shared multi-query execution: N advertiser CQs in one TiMR job.
//!
//! The paper's BT pipeline (§IV) runs a handful of structurally similar
//! queries — same log scan, same bot elimination, different per-advertiser
//! windows and filters. Run independently, each query pays the dominant
//! costs (scan + bot elimination + shuffle) again. This module runs the
//! whole set as *one* map-reduce job:
//!
//! 1. [`share_plans`] canonicalizes the N single-output plans and merges
//!    equal operator subtrees into one DAG with Multicast fan-out — the
//!    common prefix (scan, bot elimination) executes once per partition.
//! 2. [`factor_windows`] rewrites groups of harmonically related hopping
//!    windows over the same keyed stream to aggregate a GCD-hop factor
//!    window once and derive each query's window from the partials.
//! 3. The merged DAG compiles into a *single* stage whose reducer embeds
//!    one DSMS over all roots ([`DsmsReducer`]) and routes query `i`'s
//!    rows to sink `i` (the multi-sink shuffle contract of
//!    [`mapreduce::Stage::aux_outputs`]).
//!
//! Per-query outputs are byte-identical to N independent runs: sharing
//! only merges structurally equal subtrees, the factor rewrite is an
//! algebraic identity over combinable aggregates, and partitioning is
//! unchanged (one exchange key for the whole set, validated against every
//! stateful operator in the merged DAG).

use crate::annotate::{join_right_column, required_key_superset, ExchangeKey};
use crate::bridge::EventEncoding;
use crate::compile::{
    map_side_report, partial_refusals, DsmsReducer, InputBinding, PartialRefusal,
};
use crate::error::{Result, TimrError};
use crate::mapper::{DsmsMapper, MapperUnit};
use mapreduce::{Cluster, Dfs, JobStats, Partitioner, Stage};
use relation::Schema;
use std::collections::BTreeMap;
use std::sync::Arc;
use temporal::plan::{
    factor_windows, fuse_plan, push_down, share_plans, LogicalPlan, Operator, PushDown, ShareStats,
};
use temporal::EventStream;

/// A set of single-output temporal CQs executed as one TiMR job.
#[derive(Debug, Clone)]
pub struct MultiTimrJob {
    /// Job name (prefixes the per-query output dataset names).
    pub name: String,
    /// The queries, each with exactly one output.
    pub queries: Vec<LogicalPlan>,
    /// The one partitioning applied below the whole shared DAG. Must be
    /// compatible with every stateful operator in every query.
    pub key: ExchangeKey,
    /// Reduce partition count for keyed execution.
    pub machines: usize,
    /// Lifetime encoding per raw source dataset (default Point).
    pub source_encodings: BTreeMap<String, EventEncoding>,
    /// Apply the factor-window rewrite after prefix sharing (default on).
    pub factor: bool,
    /// Split the shared DAG at the exchange and run the exchange-free
    /// prefix (plus combinable partial aggregations) map-side (default
    /// on; off is the reduce-only baseline for benchmarks).
    pub push_down: bool,
}

/// A compiled multi-query job: one stage, one output dataset per query.
#[derive(Debug, Clone)]
pub struct CompiledMultiJob {
    /// The single shared stage.
    pub stage: Stage,
    /// DFS output dataset per query, in query order.
    pub outputs: Vec<String>,
    /// Payload schema per query, in query order.
    pub payloads: Vec<Schema>,
    /// Lifetime encoding of every output dataset.
    pub output_encoding: EventEncoding,
    /// The shared DAG the stage executes (post factor/fuse rewrites).
    pub plan: LogicalPlan,
    /// Prefix-sharing statistics.
    pub shared: ShareStats,
    /// Number of window groups collapsed by the factor rewrite.
    pub factored_groups: usize,
    /// Stateless operators moved map-side by plan push-down.
    pub pushed_ops: usize,
    /// Partial-aggregation steps moved map-side.
    pub pushed_partials: usize,
    /// Per source that push-down looked at and gave no partial aggregate:
    /// why not.
    pub partial_refusals: Vec<PartialRefusal>,
}

/// Result of running a multi-query job.
#[derive(Debug)]
pub struct MultiTimrOutput {
    /// DFS name of each query's output dataset, in query order.
    pub datasets: Vec<String>,
    /// Payload schema of each query's output.
    pub payloads: Vec<Schema>,
    /// Lifetime encoding of the output datasets.
    pub encoding: EventEncoding,
    /// Map-reduce execution statistics (one stage).
    pub stats: JobStats,
    /// Prefix-sharing statistics.
    pub shared: ShareStats,
    /// Number of window groups collapsed by the factor rewrite.
    pub factored_groups: usize,
    /// Stateless operators moved map-side by plan push-down.
    pub pushed_ops: usize,
    /// Partial-aggregation steps moved map-side.
    pub pushed_partials: usize,
}

impl MultiTimrJob {
    /// Build a job with default settings (single partition, 4 machines,
    /// factor rewrite on).
    pub fn new(name: impl Into<String>, queries: Vec<LogicalPlan>) -> Self {
        MultiTimrJob {
            name: name.into(),
            queries,
            key: ExchangeKey::Single,
            machines: 4,
            source_encodings: BTreeMap::new(),
            factor: true,
            push_down: true,
        }
    }

    /// Set the shared partitioning key.
    pub fn with_key(mut self, key: ExchangeKey) -> Self {
        self.key = key;
        self
    }

    /// Set the machine (reduce partition) count.
    pub fn with_machines(mut self, machines: usize) -> Self {
        self.machines = machines;
        self
    }

    /// Enable or disable the factor-window rewrite.
    pub fn with_factor(mut self, factor: bool) -> Self {
        self.factor = factor;
        self
    }

    /// Enable or disable map-side plan push-down.
    pub fn with_push_down(mut self, push_down: bool) -> Self {
        self.push_down = push_down;
        self
    }

    /// Declare a source dataset's lifetime encoding.
    pub fn with_source_encoding(mut self, source: &str, encoding: EventEncoding) -> Self {
        self.source_encodings.insert(source.to_string(), encoding);
        self
    }

    /// Render the shared DAG with `shared@<fingerprint>` markers on
    /// multi-consumer nodes (the EXPLAIN view of what merged), followed by
    /// the map side: push-down counts and each source that got no partial
    /// aggregate, with the reason.
    pub fn explain(&self) -> Result<String> {
        let compiled = self.compile()?;
        let mut text = temporal::plan::explain_shared(&compiled.plan);
        text.push_str(&map_side_report(
            compiled.pushed_ops,
            compiled.pushed_partials,
            &compiled.partial_refusals,
        ));
        Ok(text)
    }

    /// Compile to a single multi-sink map-reduce stage without running.
    pub fn compile(&self) -> Result<CompiledMultiJob> {
        if self.machines == 0 {
            return Err(TimrError::Compile("machines must be positive".into()));
        }
        if self.queries.is_empty() {
            return Err(TimrError::Compile(
                "multi-query job needs at least one query".into(),
            ));
        }
        for (i, q) in self.queries.iter().enumerate() {
            if q.roots().len() != 1 {
                return Err(TimrError::Compile(format!(
                    "query {i} has {} outputs; multi-query jobs take single-output queries",
                    q.roots().len()
                )));
            }
        }

        // 1. Merge common prefixes, then collapse harmonic window groups.
        let shared = share_plans(&self.queries).map_err(TimrError::Temporal)?;
        let stats = shared.stats;
        let (plan, factored_groups) = if self.factor {
            factor_windows(&shared.plan).map_err(TimrError::Temporal)?
        } else {
            (shared.plan, 0)
        };

        // 2. The whole DAG runs under one partitioning; check it against
        //    every operator (the per-fragment rule of paper §VI, applied
        //    to the merged plan).
        self.validate_key(&plan)?;
        let (partitioner, partitions) = match &self.key {
            ExchangeKey::Keys(cols) => (
                Partitioner::KeyHash {
                    columns: cols.clone(),
                },
                self.machines,
            ),
            ExchangeKey::Single => (Partitioner::Single, 1),
            ExchangeKey::Spread => (Partitioner::Spread, self.machines),
        };

        // 2½. Split the shared DAG at the exchange: exchange-free prefixes
        // (and combinable partial aggregations) of each source run
        // map-side. `Spread` routes on the whole row, so push-down is
        // never attempted there.
        let partition_cols = match &self.key {
            ExchangeKey::Keys(cols) => Some(Some(cols.as_slice())),
            ExchangeKey::Single => Some(None),
            ExchangeKey::Spread => None,
        };
        // `None`: not attempted. A split that moved nothing has no mappers
        // and the plan itself as its residual.
        let pd: Option<PushDown> = match partition_cols {
            Some(cols) if self.push_down => {
                Some(push_down(&plan, cols).map_err(TimrError::Temporal)?)
            }
            _ => None,
        };
        let raw_sources: Vec<(String, Schema)> = plan
            .sources()
            .iter()
            .map(|(n, s)| (n.to_string(), (*s).clone()))
            .collect();
        let plan = pd.as_ref().map(|p| p.residual.clone()).unwrap_or(plan);
        // Fusion runs *after* sharing, factoring, and the push-down split
        // so fused fragments never hide a mergeable prefix or straddle the
        // exchange; the per-reduce executor's fuse-on-entry returns the
        // result untouched, and mapper plans fuse independently.
        let plan = fuse_plan(&plan).map_err(TimrError::Temporal)?.into_owned();

        // 3. One stage input per distinct source leaf of the merged DAG.
        //    Pushed inputs arrive at the reducer post-mapper: interval-
        //    framed rows carrying the residual source leaf's schema.
        let mut input_names: Vec<String> = Vec::new();
        let mut bindings: Vec<InputBinding> = Vec::new();
        let mut units: Vec<Option<MapperUnit>> = Vec::new();
        for (name, payload) in plan.sources() {
            if let Some(prev) = bindings.iter().find(|b| b.source_name == name) {
                if &prev.payload != payload {
                    return Err(TimrError::Compile(format!(
                        "source `{name}` bound with two different schemas"
                    )));
                }
                continue;
            }
            let raw_encoding = self
                .source_encodings
                .get(name)
                .copied()
                .unwrap_or(EventEncoding::Point);
            for c in self.key.columns() {
                if !payload.contains(c) {
                    return Err(TimrError::Compile(format!(
                        "partition key column `{c}` not in source `{name}` schema {payload}"
                    )));
                }
            }
            let mapper_plan = pd
                .as_ref()
                .and_then(|p| p.mappers.iter().find(|m| m.source == name));
            input_names.push(name.to_string());
            match mapper_plan {
                Some(mp) => {
                    let raw_payload = raw_sources
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, s)| s.clone())
                        .expect("pushed source exists in the pre-split DAG");
                    units.push(Some(MapperUnit::new(
                        mp,
                        InputBinding {
                            source_name: name.to_string(),
                            encoding: raw_encoding,
                            payload: raw_payload,
                        },
                    )?));
                    bindings.push(InputBinding {
                        source_name: name.to_string(),
                        encoding: EventEncoding::Interval,
                        payload: payload.clone(),
                    });
                }
                None => {
                    units.push(None);
                    bindings.push(InputBinding {
                        source_name: name.to_string(),
                        encoding: raw_encoding,
                        payload: payload.clone(),
                    });
                }
            }
        }

        let output_encoding = EventEncoding::Interval;
        let outputs: Vec<String> = (0..self.queries.len())
            .map(|i| format!("{}__q{i}", self.name))
            .collect();
        let payloads: Vec<Schema> = plan
            .roots()
            .iter()
            .map(|&r| plan.schema_of(r).clone())
            .collect();

        let reducer = DsmsReducer {
            plan: plan.clone(),
            inputs: bindings,
            output_encoding,
        };
        let stage_name = format!("{}/shared", self.name);
        // A source leaf is read from the same-named dataset.
        let partial_refusals = pd.as_ref().map_or_else(Vec::new, |pd| {
            partial_refusals(&stage_name, pd, str::to_string)
        });
        let mut stage = Stage::new(
            stage_name,
            input_names,
            outputs[0].clone(),
            partitioner,
            partitions,
            Arc::new(reducer),
        )
        .map_err(TimrError::from)?
        .with_aux_outputs(outputs[1..].to_vec());
        if units.iter().any(Option::is_some) {
            stage = stage.with_mapper(Arc::new(DsmsMapper::new(units)));
        }

        Ok(CompiledMultiJob {
            stage,
            outputs,
            payloads,
            output_encoding,
            plan,
            shared: stats,
            factored_groups,
            pushed_ops: pd.as_ref().map_or(0, |p| p.pushed_ops),
            pushed_partials: pd.as_ref().map_or(0, |p| p.partials),
            partial_refusals,
        })
    }

    /// Compile and run on `cluster` against `dfs`. Source leaves of the
    /// merged plan are read from same-named DFS datasets.
    pub fn run(&self, dfs: &Dfs, cluster: &Cluster) -> Result<MultiTimrOutput> {
        let compiled = self.compile()?;
        let stats = cluster.run_job(dfs, std::slice::from_ref(&compiled.stage))?;
        Ok(MultiTimrOutput {
            datasets: compiled.outputs,
            payloads: compiled.payloads,
            encoding: compiled.output_encoding,
            stats,
            shared: compiled.shared,
            factored_groups: compiled.factored_groups,
            pushed_ops: compiled.pushed_ops,
            pushed_partials: compiled.pushed_partials,
        })
    }

    /// Check the shared partitioning against every operator of the merged
    /// DAG (one fragment ⇒ the fragment rules apply plan-wide).
    fn validate_key(&self, plan: &LogicalPlan) -> Result<()> {
        match &self.key {
            ExchangeKey::Single => Ok(()),
            ExchangeKey::Spread => {
                for node in plan.nodes() {
                    let stateless =
                        matches!(node.op, Operator::Source { .. }) || node.op.is_stateless();
                    if !stateless {
                        return Err(TimrError::Compile(format!(
                            "spread partitioning is only valid for stateless plans; `{}` is stateful",
                            node.op.name()
                        )));
                    }
                }
                Ok(())
            }
            ExchangeKey::Keys(cols) => {
                for node in plan.nodes() {
                    let Some(superset) = required_key_superset(&node.op) else {
                        continue;
                    };
                    for c in cols {
                        if !superset.contains(c) {
                            return Err(TimrError::Compile(format!(
                                "partition key column `{c}` is not in the key columns of `{}` \
                                 (requires a subset of {superset:?})",
                                node.op.name()
                            )));
                        }
                        // Joins: one partitioning covers both sides, so the
                        // right-side pair of each key column must be the
                        // column itself.
                        if matches!(
                            node.op,
                            Operator::TemporalJoin { .. } | Operator::AntiSemiJoin { .. }
                        ) && join_right_column(&node.op, c) != Some(c.as_str())
                        {
                            return Err(TimrError::Compile(format!(
                                "partition key column `{c}` pairs with a differently named \
                                 right-side column in `{}`; a shared job needs matching names",
                                node.op.name()
                            )));
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

impl MultiTimrOutput {
    /// Decode query `i`'s output dataset back into an event stream.
    pub fn stream(&self, i: usize, dfs: &Dfs) -> Result<EventStream> {
        let dataset = dfs.get(&self.datasets[i])?;
        let stream = self
            .encoding
            .decode_stream(dataset.iter(), &self.payloads[i])?;
        Ok(stream.normalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::Dataset;
    use relation::schema::{ColumnType, Field};
    use relation::{row, Row};
    use temporal::exec::{bindings, execute_reference};
    use temporal::expr::{col, lit};
    use temporal::plan::Query;

    fn bt_payload() -> Schema {
        Schema::new(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("UserId", ColumnType::Str),
            Field::new("KwAdId", ColumnType::Str),
        ])
    }

    fn dataset_rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                row![
                    i * 7 % 1000,
                    (1 + i % 2) as i32,
                    format!("u{}", i % 13),
                    format!("ad{}", i % 5)
                ]
            })
            .collect()
    }

    fn dfs_with_logs(rows: Vec<Row>) -> Dfs {
        let dfs = Dfs::new();
        let schema = EventEncoding::Point.dataset_schema(&bt_payload());
        dfs.put("logs", Dataset::single(schema, rows)).unwrap();
        dfs
    }

    /// Click-count per (user, ad) with a per-query hop and ad filter — the
    /// advertiser-dashboard shape with a long shared prefix.
    fn advertiser_query(i: usize) -> LogicalPlan {
        let q = Query::new();
        let out = q
            .source("logs", bt_payload())
            .filter(col("StreamId").eq(lit(1)))
            .group_apply(&["UserId", "KwAdId"], |g| {
                g.hop_window(10 * (1 + (i % 3) as i64), 40).count("Clicks")
            })
            .filter(col("KwAdId").eq(lit(format!("ad{}", i % 5))));
        q.build(vec![out]).unwrap()
    }

    fn multi_job(n: usize) -> MultiTimrJob {
        MultiTimrJob::new(format!("multi{n}"), (0..n).map(advertiser_query).collect())
            .with_key(ExchangeKey::keys(&["UserId"]))
            .with_machines(4)
    }

    /// The paper's §III-C.1 guarantee: the scaled-out shared job equals the
    /// single-node reference DSMS on the same events, per query.
    #[test]
    fn shared_job_matches_single_node_reference_per_query() {
        let rows = dataset_rows(400);
        let dfs = dfs_with_logs(rows.clone());
        let out = multi_job(5).run(&dfs, &Cluster::new()).unwrap();
        assert_eq!(out.datasets.len(), 5);
        assert_eq!(out.stats.stages.len(), 1);
        assert!(out.shared.merged_nodes < out.shared.input_nodes);
        for i in 0..5 {
            let stream = EventEncoding::Point
                .decode_stream(&rows, &bt_payload())
                .unwrap();
            let reference =
                execute_reference(&advertiser_query(i), &bindings(vec![("logs", stream)]))
                    .unwrap()
                    .pop()
                    .unwrap()
                    .normalize();
            let got = out.stream(i, &dfs).unwrap();
            assert!(got.same_relation(&reference), "query {i} mismatch");
        }
    }

    #[test]
    fn shared_run_is_byte_identical_to_independent_runs() {
        let rows = dataset_rows(300);
        let shared_dfs = dfs_with_logs(rows.clone());
        let shared = multi_job(4).run(&shared_dfs, &Cluster::new()).unwrap();
        for i in 0..4 {
            let solo_dfs = dfs_with_logs(rows.clone());
            let solo = MultiTimrJob::new(format!("solo{i}"), vec![advertiser_query(i)])
                .with_key(ExchangeKey::keys(&["UserId"]))
                .with_machines(4)
                .run(&solo_dfs, &Cluster::new())
                .unwrap();
            let shared_parts = shared_dfs
                .get(&shared.datasets[i])
                .unwrap()
                .partitions
                .as_ref()
                .clone();
            let solo_parts = solo_dfs
                .get(&solo.datasets[0])
                .unwrap()
                .partitions
                .as_ref()
                .clone();
            assert_eq!(shared_parts, solo_parts, "query {i} bytes differ");
        }
    }

    /// One reducer over a 16-root shared DAG is sixteen single-root
    /// reducers: driven by hand over the same partition, sink `i` of the
    /// shared reducer is byte-for-byte the only sink of query `i`'s own.
    #[test]
    fn sixteen_root_reducer_yields_the_sinks_of_sixteen_single_root_reducers() {
        use mapreduce::ReducerContext;
        use relation::ColumnBatch;
        let schema = EventEncoding::Point.dataset_schema(&bt_payload());
        let partition = ColumnBatch::from_rows(&schema, &dataset_rows(300)).unwrap();
        let ctx = ReducerContext::standalone("shared", 0, 1);
        // Reduce-only, so both reducers read the raw log partition.
        let reducer_of =
            |job: MultiTimrJob| job.with_push_down(false).compile().unwrap().stage.reducer;
        let shared = reducer_of(multi_job(16))
            .reduce(&ctx, vec![partition.clone()])
            .unwrap();
        assert_eq!(shared.len(), 16);
        assert!(shared.iter().any(|sink| !sink.is_empty()));
        let image = |sink: &ColumnBatch| sink.to_extent_bytes().unwrap();
        for (i, sink) in shared.iter().enumerate() {
            let solo = reducer_of(
                MultiTimrJob::new(format!("solo{i}"), vec![advertiser_query(i)])
                    .with_key(ExchangeKey::keys(&["UserId"])),
            )
            .reduce(&ctx, vec![partition.clone()])
            .unwrap();
            assert_eq!(solo.len(), 1);
            assert_eq!(image(sink), image(&solo[0]), "query {i}");
        }
    }

    #[test]
    fn stats_report_one_sink_per_query() {
        let dfs = dfs_with_logs(dataset_rows(200));
        let out = multi_job(3).run(&dfs, &Cluster::new()).unwrap();
        let stage = &out.stats.stages[0];
        assert_eq!(stage.sink_rows.len(), 3);
        assert_eq!(stage.sink_rows.iter().sum::<u64>(), stage.output_rows);
    }

    #[test]
    fn incompatible_key_is_rejected_at_compile_time() {
        let job = multi_job(2).with_key(ExchangeKey::keys(&["KwAdId"]));
        // KwAdId ⊆ GroupApply keys, so this compiles...
        job.compile().unwrap();
        // ...but a column outside every GroupApply key set does not.
        let bad = multi_job(2).with_key(ExchangeKey::keys(&["StreamId"]));
        assert!(bad.compile().is_err());
        // Spread is invalid for stateful plans.
        let spread = multi_job(2).with_key(ExchangeKey::Spread);
        assert!(spread.compile().is_err());
    }

    #[test]
    fn compiled_shared_dag_is_already_fused() {
        let compiled = multi_job(4).compile().unwrap();
        assert!(
            matches!(
                fuse_plan(&compiled.plan).unwrap(),
                std::borrow::Cow::Borrowed(_)
            ),
            "the executor's fuse-on-entry must find nothing left to do"
        );
    }

    #[test]
    fn explain_marks_shared_prefix() {
        let text = multi_job(3).explain().unwrap();
        assert!(text.contains("shared@"), "explain:\n{text}");
    }

    #[test]
    fn explain_reports_the_map_side() {
        // The pushed prefix is a filter plus a partial count.
        let compiled = multi_job(3).compile().unwrap();
        assert!(compiled.pushed_partials > 0);
        let text = multi_job(3).explain().unwrap();
        assert!(
            text.contains(&format!(
                "map side: pushed_ops={} pushed_partials={}",
                compiled.pushed_ops, compiled.pushed_partials
            )),
            "explain:\n{text}"
        );
    }
}
