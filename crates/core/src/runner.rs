//! End-to-end TiMR job execution.

use crate::annotate::Annotation;
use crate::bridge::{read_output, EventEncoding};
use crate::compile::{compile, CompiledJob};
use crate::error::Result;
use mapreduce::{Cluster, Dfs, JobStats};
use std::collections::BTreeMap;
use temporal::plan::LogicalPlan;
use temporal::EventStream;

/// A TiMR job: a temporal CQ plus parallel-execution choices.
#[derive(Debug, Clone)]
pub struct TimrJob {
    /// Job name (prefixes intermediate/output dataset names).
    pub name: String,
    /// The temporal query (single output).
    pub plan: LogicalPlan,
    /// Exchange placements (hints or optimizer output).
    pub annotation: Annotation,
    /// Reduce partition count for keyed fragments (the paper's
    /// `#machines`, §III-C.3).
    pub machines: usize,
    /// Lifetime encoding per raw source dataset (default Point).
    pub source_encodings: BTreeMap<String, EventEncoding>,
    /// Run exchange-free plan prefixes (and combinable partial
    /// aggregations) map-side before the shuffle (default on; off is the
    /// reduce-only baseline for benchmarks).
    pub push_down: bool,
}

/// Result of running a job.
#[derive(Debug)]
pub struct TimrOutput {
    /// DFS name of the output dataset.
    pub dataset: String,
    /// Map-reduce execution statistics.
    pub stats: JobStats,
}

impl TimrJob {
    /// Build a job with default settings (no annotation, 4 machines).
    pub fn new(name: impl Into<String>, plan: LogicalPlan) -> Self {
        TimrJob {
            name: name.into(),
            plan,
            annotation: Annotation::none(),
            machines: 4,
            source_encodings: BTreeMap::new(),
            push_down: true,
        }
    }

    /// Enable or disable map-side plan push-down.
    pub fn with_push_down(mut self, push_down: bool) -> Self {
        self.push_down = push_down;
        self
    }

    /// Set the annotation.
    pub fn with_annotation(mut self, annotation: Annotation) -> Self {
        self.annotation = annotation;
        self
    }

    /// Set the machine (reduce partition) count.
    pub fn with_machines(mut self, machines: usize) -> Self {
        self.machines = machines;
        self
    }

    /// Declare a source dataset's lifetime encoding.
    pub fn with_source_encoding(mut self, source: &str, encoding: EventEncoding) -> Self {
        self.source_encodings.insert(source.to_string(), encoding);
        self
    }

    /// Choose the annotation with the cost-based optimizer (paper §VI),
    /// using statistics computed from the source datasets in `dfs`.
    pub fn with_auto_annotation(mut self, dfs: &Dfs) -> Result<Self> {
        let mut stats = BTreeMap::new();
        for (name, _) in self.plan.sources() {
            if let Ok(dataset) = dfs.get(name) {
                stats.insert(name.to_string(), dataset.stats());
            }
        }
        let config = crate::optimizer::OptimizerConfig {
            machines: self.machines,
            ..Default::default()
        };
        let optimized = crate::optimizer::optimize(&self.plan, &stats, &config)?;
        self.annotation = optimized.annotation;
        Ok(self)
    }

    /// Compile to map-reduce stages without running.
    pub fn compile(&self) -> Result<CompiledJob> {
        compile(
            &self.plan,
            &self.annotation,
            &self.name,
            self.machines,
            &self.source_encodings,
            self.push_down,
        )
    }

    /// Compile and run on `cluster` against `dfs`. Source leaves of the
    /// plan are read from same-named DFS datasets.
    pub fn run(&self, dfs: &Dfs, cluster: &Cluster) -> Result<TimrOutput> {
        let compiled = self.compile()?;
        let stats = cluster.run_job(dfs, &compiled.stages)?;
        Ok(TimrOutput {
            dataset: compiled.output,
            stats,
        })
    }
}

impl TimrOutput {
    /// Decode the output dataset back into an event stream
    /// ([`read_output`]).
    pub fn stream(&self, dfs: &Dfs) -> Result<EventStream> {
        read_output(dfs, &self.dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::ExchangeKey;
    use mapreduce::{BackendKind, ChaosPlan, ClusterConfig, Dataset, RetryPolicy, TaskPhase};
    use relation::schema::{ColumnType, Field};
    use relation::{row, Row, Schema};
    use temporal::exec::{bindings, execute_single};
    use temporal::expr::{col, lit};
    use temporal::plan::{Operator, Query};

    fn bt_payload() -> Schema {
        Schema::new(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("UserId", ColumnType::Str),
            Field::new("KwAdId", ColumnType::Str),
        ])
    }

    fn dataset_rows(n: i64) -> Vec<Row> {
        // Deterministic mix of clicks (1) and searches (2) across users/ads.
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

    fn click_count_job(machines: usize) -> TimrJob {
        let q = Query::new();
        let out = q
            .source("logs", bt_payload())
            .filter(col("StreamId").eq(lit(1)))
            .group_apply(&["KwAdId"], |g| g.window(50).count("N"));
        let plan = q.build(vec![out]).unwrap();
        let filter = plan
            .nodes()
            .iter()
            .position(|n| matches!(n.op, Operator::Filter { .. }))
            .unwrap();
        let ann = Annotation::none().exchange(filter, 0, ExchangeKey::keys(&["KwAdId"]));
        TimrJob::new("rcc", plan)
            .with_annotation(ann)
            .with_machines(machines)
    }

    fn reference_result(rows: &[Row]) -> EventStream {
        // Ground truth: run the same plan on the single-node DSMS.
        let job = click_count_job(1);
        let stream = EventEncoding::Point
            .decode_stream(rows, &bt_payload())
            .unwrap();
        execute_single(&job.plan, &bindings(vec![("logs", stream)]))
            .unwrap()
            .normalize()
    }

    fn dfs_with_logs(rows: Vec<Row>) -> Dfs {
        let dfs = Dfs::new();
        let schema = EventEncoding::Point.dataset_schema(&bt_payload());
        dfs.put("logs", Dataset::single(schema, rows)).unwrap();
        dfs
    }

    #[test]
    fn timr_equals_single_node_dsms() {
        // The core TiMR guarantee: scaled-out M-R execution produces the
        // same temporal relation as the unmodified single-node DSMS.
        let rows = dataset_rows(500);
        let reference = reference_result(&rows);
        for machines in [1, 3, 8] {
            let dfs = dfs_with_logs(rows.clone());
            let out = click_count_job(machines)
                .run(&dfs, &Cluster::new())
                .unwrap();
            let got = out.stream(&dfs).unwrap();
            assert!(
                got.same_relation(&reference),
                "mismatch at machines={machines}"
            );
        }
    }

    #[test]
    fn compiled_job_reports_the_map_side_and_why() {
        // The pushed prefix is a lone filter, and the job says why the
        // sliding-window count behind it stayed whole.
        let compiled = click_count_job(4).compile().unwrap();
        assert_eq!(compiled.pushed_ops, 1);
        let text = compiled.to_string();
        assert!(
            text.contains("map side: pushed_ops=1 pushed_partials=0")
                && text.contains("<- logs: no partial aggregate (not a hopping aggregate)"),
            "{text}"
        );
    }

    #[test]
    fn reducer_restart_is_deterministic() {
        let rows = dataset_rows(300);
        let run = |chaos: ChaosPlan| {
            let dfs = dfs_with_logs(rows.clone());
            let cluster = Cluster::with_config(mapreduce::ClusterConfig {
                threads: 4,
                chaos,
                retry: RetryPolicy::no_backoff(3),
                ..Default::default()
            });
            let out = click_count_job(4).run(&dfs, &cluster).unwrap();
            (
                dfs.get(&out.dataset).unwrap().partitions.as_ref().clone(),
                out.stats.fault_totals().task_retries,
            )
        };
        let (clean, r0) = run(ChaosPlan::none());
        let stage = click_count_job(4).compile().unwrap().stages[0].name.clone();
        let (failed, r1) = run(ChaosPlan::none()
            .kill(&stage, TaskPhase::Reduce, 0)
            .kill(&stage, TaskPhase::Map, 0)
            .kill(&stage, TaskPhase::Shuffle, 2));
        assert_eq!(r0, 0);
        assert!(r1 > 0, "no kill reached stage `{stage}`");
        assert_eq!(
            clean, failed,
            "restarted reducers must emit identical bytes"
        );
    }

    /// A point-framed log cannot hold `Time::MAX` (`Time + 1` overflows).
    /// The job fails with the bridge's named error on the first attempt — a
    /// deterministic `MrError::Reducer`, not a panic the cluster retries
    /// until `TaskExhausted` — whether the map side decodes the log
    /// (push-down on) or the reducer does.
    #[test]
    fn time_max_in_a_point_log_fails_once_with_the_named_error() {
        let mut rows = dataset_rows(40);
        rows.push(row![temporal::Time::MAX, 1i32, "u1", "ad1"]);
        for push_down in [true, false] {
            let dfs = dfs_with_logs(rows.clone());
            let cluster = Cluster::with_config(mapreduce::ClusterConfig {
                retry: RetryPolicy::no_backoff(4),
                ..Default::default()
            });
            let err = click_count_job(2)
                .with_push_down(push_down)
                .run(&dfs, &cluster)
                .unwrap_err();
            let crate::TimrError::MapReduce(mapreduce::MrError::Reducer { message, .. }) = &err
            else {
                panic!("push_down {push_down}: expected a reducer error, got {err:?}");
            };
            assert!(
                message.ends_with(
                    "Time 9223372036854775807 has no point lifetime: Time + 1 overflows"
                ),
                "push_down {push_down}: {message}"
            );
            assert!(!dfs.contains("rcc__out"), "nothing is published");
        }
    }

    #[cfg(unix)]
    #[test]
    fn backend_selection_is_invisible_in_output() {
        // The backend chooses how tasks execute, never what they produce:
        // the multi-process backend's datasets are byte-identical to the
        // thread pool's.
        let rows = dataset_rows(300);
        let run = |backend: BackendKind| {
            let dfs = dfs_with_logs(rows.clone());
            let cluster = Cluster::with_config(ClusterConfig {
                backend,
                ..ClusterConfig::default()
            });
            let out = click_count_job(4).run(&dfs, &cluster).unwrap();
            dfs.get(&out.dataset).unwrap().partitions.as_ref().clone()
        };
        let threads = run(BackendKind::Threads);
        let processes = run(BackendKind::Processes { workers: 2 });
        assert_eq!(threads, processes);
    }

    #[test]
    fn two_stage_pipeline_runs() {
        // GroupApply per (user, ad) then per-ad re-aggregation: forces an
        // intermediate exchange and two stages.
        let q = Query::new();
        let per_user = q
            .source("logs", bt_payload())
            .filter(col("StreamId").eq(lit(1)))
            .group_apply(&["UserId", "KwAdId"], |g| g.window(50).count("N"));
        let per_ad = per_user.group_apply(&["KwAdId"], |g| {
            g.aggregate(vec![("Users".into(), temporal::agg::AggExpr::Count)])
        });
        let plan = q.build(vec![per_ad]).unwrap();
        let gas: Vec<usize> = plan
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Operator::GroupApply { .. }))
            .map(|(i, _)| i)
            .collect();
        let (first_ga, second_ga) = (gas[0], gas[1]);
        // Exchange below the filter (directly above the source) so the
        // first stage maps the raw dataset, as in paper Fig 7.
        let filter = plan.node(first_ga).inputs[0];
        let ann = Annotation::none()
            .exchange(filter, 0, ExchangeKey::keys(&["UserId", "KwAdId"]))
            .exchange(second_ga, 0, ExchangeKey::keys(&["KwAdId"]));
        let job = TimrJob::new("two", plan.clone())
            .with_annotation(ann)
            .with_machines(4);

        let rows = dataset_rows(400);
        let dfs = dfs_with_logs(rows.clone());
        let out = job.run(&dfs, &Cluster::new()).unwrap();
        assert_eq!(out.stats.stages.len(), 2);

        // Compare against single-node execution.
        let stream = EventEncoding::Point
            .decode_stream(&rows, &bt_payload())
            .unwrap();
        let reference = execute_single(&plan, &bindings(vec![("logs", stream)]))
            .unwrap()
            .normalize();
        assert!(out.stream(&dfs).unwrap().same_relation(&reference));
    }

    #[test]
    fn auto_annotation_scales_out_and_stays_correct() {
        let rows = dataset_rows(300);
        let reference = reference_result(&rows);
        let dfs = dfs_with_logs(rows);
        let plan = click_count_job(1).plan;
        let job = TimrJob::new("auto", plan)
            .with_machines(6)
            .with_auto_annotation(&dfs)
            .unwrap();
        assert!(
            !job.annotation.is_empty(),
            "the optimizer should place at least one exchange"
        );
        let out = job.run(&dfs, &Cluster::new()).unwrap();
        assert!(out.stream(&dfs).unwrap().same_relation(&reference));
        // Some stage actually ran partitioned.
        assert!(out.stats.stages.iter().any(|s| s.partitions > 1));
    }

    #[test]
    fn unannotated_job_still_correct() {
        let rows = dataset_rows(200);
        let reference = reference_result(&rows);
        let dfs = dfs_with_logs(rows);
        let q = click_count_job(8); // annotation replaced below
        let job = TimrJob::new("plain", q.plan.clone());
        let out = job.run(&dfs, &Cluster::new()).unwrap();
        assert!(out.stream(&dfs).unwrap().same_relation(&reference));
        // Single fragment, single partition.
        assert_eq!(out.stats.stages.len(), 1);
        assert_eq!(out.stats.stages[0].partitions, 1);
    }
}
