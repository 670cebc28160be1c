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
//!    window once and derive each query's window from the partials, where
//!    its Σg/hᵢ > 1 gate says that saves work.
//! 3. The merged DAG is one fragment with one root per query: it passes the
//!    same key rule as a TiMR fragment
//!    ([`crate::fragment::check_key_compatibility`]) and compiles through
//!    the same stage builder ([`crate::compile::build_stage`]) into a
//!    *single* stage whose reducer embeds one DSMS over all roots and routes
//!    query `i`'s rows to sink `i` (the multi-sink shuffle contract of
//!    [`mapreduce::Stage::aux_outputs`]).
//!
//! Per-query outputs are byte-identical to N independent runs: sharing
//! only merges structurally equal subtrees, the factor rewrite is an
//! algebraic identity over combinable aggregates, and partitioning is
//! unchanged (one exchange key for the whole set).

use crate::annotate::ExchangeKey;
use crate::bridge::EventEncoding;
use crate::compile::{build_stage, map_side_report, PartialRefusal};
use crate::error::{Result, TimrError};
use crate::fragment::{check_key_compatibility, Fragment, FragmentInput};
use mapreduce::{Cluster, Dfs, JobStats, Stage};
use std::collections::BTreeMap;
use temporal::plan::{factor_windows, share_plans, LogicalPlan, ShareStats};

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
    /// push-down on).
    pub fn new(name: impl Into<String>, queries: Vec<LogicalPlan>) -> Self {
        MultiTimrJob {
            name: name.into(),
            queries,
            key: ExchangeKey::Single,
            machines: 4,
            source_encodings: BTreeMap::new(),
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

        // Merge common prefixes, then collapse harmonic window groups.
        let shared = share_plans(&self.queries).map_err(TimrError::Temporal)?;
        let (plan, factored_groups) = factor_windows(&shared.plan).map_err(TimrError::Temporal)?;

        // The whole DAG is one fragment under one partitioning, read from
        // the same-named datasets.
        check_key_compatibility(plan.nodes().iter().map(|n| &n.op), &self.key)?;
        let mut inputs: Vec<(String, FragmentInput)> = Vec::new();
        for (name, _) in plan.sources() {
            if !inputs.iter().any(|(n, _)| n == name) {
                let input = FragmentInput::SourceDataset { name: name.into() };
                inputs.push((name.into(), input));
            }
        }
        let outputs: Vec<String> = (0..self.queries.len())
            .map(|i| format!("{}__q{i}", self.name))
            .collect();
        let frag = Fragment {
            root: plan.roots()[0],
            key: self.key.clone(),
            plan,
            inputs,
            is_final: true,
        };
        let built = build_stage(
            &frag,
            format!("{}/shared", self.name),
            outputs.clone(),
            &self.name,
            self.machines,
            &self.source_encodings,
            self.push_down,
        )?;
        Ok(CompiledMultiJob {
            stage: built.stage,
            outputs,
            plan: built.plan,
            shared: shared.stats,
            factored_groups,
            pushed_ops: built.pushed_ops,
            pushed_partials: built.pushed_partials,
            partial_refusals: built.partial_refusals,
        })
    }

    /// Compile and run on `cluster` against `dfs`. Source leaves of the
    /// merged plan are read from same-named DFS datasets.
    pub fn run(&self, dfs: &Dfs, cluster: &Cluster) -> Result<MultiTimrOutput> {
        let compiled = self.compile()?;
        let stats = cluster.run_job(dfs, std::slice::from_ref(&compiled.stage))?;
        Ok(MultiTimrOutput {
            datasets: compiled.outputs,
            stats,
            shared: compiled.shared,
            factored_groups: compiled.factored_groups,
            pushed_ops: compiled.pushed_ops,
            pushed_partials: compiled.pushed_partials,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::Annotation;
    use crate::runner::TimrJob;
    use mapreduce::Dataset;
    use relation::schema::{ColumnType, Field};
    use relation::{row, Row, Schema};
    use temporal::exec::{bindings, execute_single};
    use temporal::expr::{col, lit};
    use temporal::plan::{fuse_plan, Operator, Query};

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
            let reference = execute_single(&advertiser_query(i), &bindings(vec![("logs", stream)]))
                .unwrap()
                .normalize();
            let got = crate::bridge::read_output(&dfs, &out.datasets[i]).unwrap();
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
        // ...but a column outside every GroupApply key set does not, and
        // Spread is invalid for stateful plans: one key rule, so one text
        // whether the key is the shared job's or a TiMR annotation's.
        let plan = advertiser_query(0);
        let source = (plan.nodes().iter())
            .position(|n| matches!(n.op, Operator::Source { .. }))
            .unwrap();
        let filter = plan.consumers(source)[0];
        for (key, text) in [
            (
                ExchangeKey::keys(&["StreamId"]),
                "annotation error: operator GroupApply cannot run under partitioning key \
                 {StreamId}: `StreamId` is not one of its keys",
            ),
            (
                ExchangeKey::Spread,
                "annotation error: randomly-spread fragment contains stateful operator GroupApply",
            ),
        ] {
            let shared = multi_job(2).with_key(key.clone()).compile().unwrap_err();
            assert_eq!(shared.to_string(), text);
            let timr = TimrJob::new("solo", plan.clone())
                .with_annotation(Annotation::none().exchange(filter, 0, key))
                .compile()
                .unwrap_err();
            assert_eq!(timr.to_string(), text);
        }
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
