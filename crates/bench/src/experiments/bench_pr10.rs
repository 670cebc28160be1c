//! PR 10 acceptance benchmark: the multi-process worker backend.
//!
//! Three measurements over a keyed click-count job:
//!
//! 1. **Backend overhead**: the same job on the in-process thread pool
//!    and on real worker OS processes (task descriptors and binary
//!    extent images over Unix-domain sockets), interleaved. Forking,
//!    framing, and shipping extents costs real time; the figure records
//!    how much, and the outputs must stay byte-identical.
//! 2. **Recovery under real kills**: the process backend with a SIGKILL
//!    scheduled in every phase (map, shuffle, reduce). The output must
//!    be byte-identical to the clean run; the wall-time ratio and the
//!    worker-loss/retry counters are reported.
//! 3. **Speculation benefit**: one reduce partition made a deterministic
//!    300 ms straggler. With speculation off the job eats the full
//!    straggle; with speculation on, a duplicate launched past the
//!    latency quantile wins without it. The ratio is the benefit.
//!
//! Results go to `BENCH_PR10.json` for machine consumption.

use crate::table::Table;
use mapreduce::{
    BackendKind, ChaosPlan, Cluster, ClusterConfig, Dataset, Dfs, FaultTotals, RetryPolicy,
    SpeculationPolicy, TaskPhase,
};
use relation::schema::{ColumnType, Field};
use relation::{row, Row, Schema};
use std::time::Duration;
use temporal::expr::{col, lit};
use temporal::plan::{Operator, Query};
use timr::{Annotation, EventEncoding, ExchangeKey, TimrJob};

const EXTENTS: usize = 6;
const ROWS_PER_EXTENT: usize = 8_000;
const PARTITIONS: usize = 6;
const WORKERS: usize = 4;
const USERS: usize = 400;
/// Interleaved repetitions per configuration (fastest run is kept).
const REPS: usize = 3;
const STRAGGLE: Duration = Duration::from_millis(300);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn op_schema() -> Schema {
    Schema::new(vec![
        Field::new("StreamId", ColumnType::Int),
        Field::new("UserId", ColumnType::Str),
        Field::new("KwAdId", ColumnType::Str),
        Field::new("Dwell", ColumnType::Long),
    ])
}

fn build_log() -> Dataset {
    let schema = EventEncoding::Point.dataset_schema(&op_schema());
    let mut extents = Vec::with_capacity(EXTENTS);
    let mut i = 0i64;
    for _ in 0..EXTENTS {
        let mut rows = Vec::with_capacity(ROWS_PER_EXTENT);
        for _ in 0..ROWS_PER_EXTENT {
            let u = i as usize % USERS;
            rows.push(row![
                i,
                (1 + i % 2) as i32,
                format!("user-{u:07}"),
                format!("kw:{:05}|ad:{:04}", u % 97, u % 50),
                (i * 13) % 300
            ]);
            i += 1;
        }
        extents.push(rows);
    }
    Dataset::partitioned(schema, extents)
}

fn click_count_job() -> TimrJob {
    let q = Query::new();
    let out = q
        .source("logs", op_schema())
        .filter(col("StreamId").eq(lit(1)))
        .group_apply(&["UserId", "KwAdId"], |g| {
            g.hop_window(5_000, 5_000).aggregate(vec![
                ("N".into(), temporal::agg::AggExpr::Count),
                ("DwellSum".into(), temporal::agg::AggExpr::Sum(col("Dwell"))),
            ])
        });
    let plan = q.build(vec![out]).unwrap();
    let filter = plan
        .nodes()
        .iter()
        .position(|n| matches!(n.op, Operator::Filter { .. }))
        .unwrap();
    let ann = Annotation::none().exchange(filter, 0, ExchangeKey::keys(&["UserId", "KwAdId"]));
    TimrJob::new("pr10", plan)
        .with_annotation(ann)
        .with_machines(PARTITIONS)
}

struct JobRun {
    wall: Duration,
    output: Vec<Vec<Row>>,
    faults: FaultTotals,
}

fn run_job_once(log: &Dataset, config: ClusterConfig) -> JobRun {
    let dfs = Dfs::new();
    dfs.put("logs", log.clone()).expect("fresh DFS");
    let cluster = Cluster::with_config(config);
    let out = click_count_job().run(&dfs, &cluster).expect("job runs");
    JobRun {
        wall: out.stats.stages.iter().map(|s| s.wall_time).sum(),
        output: dfs
            .get(&out.dataset)
            .expect("output")
            .partitions
            .as_ref()
            .clone(),
        faults: out.stats.fault_totals(),
    }
}

fn config(backend: BackendKind, chaos: ChaosPlan, speculation: SpeculationPolicy) -> ClusterConfig {
    ClusterConfig {
        threads: WORKERS,
        backend,
        chaos,
        speculation,
        retry: RetryPolicy::no_backoff(4),
        ..ClusterConfig::default()
    }
}

fn best(runs: Vec<JobRun>) -> JobRun {
    runs.into_iter().min_by_key(|r| r.wall).expect("REPS > 0")
}

/// Run the experiment.
pub fn run(_ctx: &mut super::Ctx) -> String {
    let log = build_log();
    let rows = log.len();
    let processes = BackendKind::Processes { workers: WORKERS };
    let stage = click_count_job().compile().expect("compiles").stages[0]
        .name
        .clone();
    let spec_on = SpeculationPolicy::default();
    let spec_off = SpeculationPolicy {
        enabled: false,
        ..SpeculationPolicy::default()
    };

    // 1. Backend overhead, interleaved (threads, processes, …).
    let mut thread_runs = Vec::new();
    let mut process_runs = Vec::new();
    for _ in 0..REPS {
        thread_runs.push(run_job_once(
            &log,
            config(BackendKind::Threads, ChaosPlan::none(), spec_on),
        ));
        process_runs.push(run_job_once(
            &log,
            config(processes, ChaosPlan::none(), spec_on),
        ));
    }
    let threads = best(thread_runs);
    let procs = best(process_runs);
    assert_eq!(
        threads.output, procs.output,
        "backends must produce byte-identical datasets"
    );
    let backend_ratio = procs.wall.as_secs_f64() / threads.wall.as_secs_f64().max(1e-9);

    // 2. Recovery: a real SIGKILL in every phase.
    let kills = ChaosPlan::none()
        .kill_process(&stage, TaskPhase::Map, 0)
        .kill_process(&stage, TaskPhase::Shuffle, 1)
        .kill_process(&stage, TaskPhase::Reduce, 2);
    let killed = best(
        (0..REPS)
            .map(|_| run_job_once(&log, config(processes, kills.clone(), spec_on)))
            .collect(),
    );
    assert_eq!(
        threads.output, killed.output,
        "worker deaths must be invisible in the output bytes"
    );
    assert!(
        killed.faults.workers_lost >= 3,
        "each scheduled SIGKILL is a real worker death"
    );
    let recovery_ratio = killed.wall.as_secs_f64() / procs.wall.as_secs_f64().max(1e-9);

    // 3. Speculation benefit against a deterministic straggler.
    let straggler = ChaosPlan::none().straggle(&stage, TaskPhase::Reduce, 0, STRAGGLE);
    let slow = best(
        (0..REPS)
            .map(|_| run_job_once(&log, config(processes, straggler.clone(), spec_off)))
            .collect(),
    );
    let speculated = best(
        (0..REPS)
            .map(|_| run_job_once(&log, config(processes, straggler.clone(), spec_on)))
            .collect(),
    );
    assert_eq!(
        threads.output, speculated.output,
        "a won speculation race must not change output bytes"
    );
    assert!(
        speculated.faults.speculative_launched >= 1,
        "the straggler must trigger a speculative duplicate"
    );
    let speculation_speedup = slow.wall.as_secs_f64() / speculated.wall.as_secs_f64().max(1e-9);

    let mut table = Table::new(&[
        "Configuration",
        "Wall ms",
        "Retries",
        "Lost",
        "Spec",
        "Wins",
    ]);
    let mut push = |name: &str, r: &JobRun| {
        table.row(vec![
            name.into(),
            format!("{:.1}", ms(r.wall)),
            r.faults.task_retries.to_string(),
            r.faults.workers_lost.to_string(),
            r.faults.speculative_launched.to_string(),
            r.faults.speculative_wins.to_string(),
        ]);
    };
    push("threads, clean", &threads);
    push("processes, clean", &procs);
    push("processes, SIGKILL each phase", &killed);
    push("processes, straggler, spec off", &slow);
    push("processes, straggler, spec on", &speculated);

    let json = serde_json::Value::Object(vec![
        ("experiment".into(), serde_json::Value::Str("pr10".into())),
        ("rows".into(), serde_json::Value::UInt(rows as u64)),
        ("workers".into(), serde_json::Value::UInt(WORKERS as u64)),
        ("byte_identical".into(), serde_json::Value::Bool(true)),
        (
            "thread_wall_ms".into(),
            serde_json::Value::Float(ms(threads.wall)),
        ),
        (
            "process_wall_ms".into(),
            serde_json::Value::Float(ms(procs.wall)),
        ),
        (
            "process_over_thread_ratio".into(),
            serde_json::Value::Float(backend_ratio),
        ),
        (
            "kill_chaos_wall_ms".into(),
            serde_json::Value::Float(ms(killed.wall)),
        ),
        (
            "kill_recovery_ratio".into(),
            serde_json::Value::Float(recovery_ratio),
        ),
        (
            "workers_lost_under_kills".into(),
            serde_json::Value::UInt(killed.faults.workers_lost),
        ),
        ("straggle_ms".into(), serde_json::Value::Float(ms(STRAGGLE))),
        (
            "straggler_wall_ms_spec_off".into(),
            serde_json::Value::Float(ms(slow.wall)),
        ),
        (
            "straggler_wall_ms_spec_on".into(),
            serde_json::Value::Float(ms(speculated.wall)),
        ),
        (
            "speculation_speedup".into(),
            serde_json::Value::Float(speculation_speedup),
        ),
        (
            "speculative_launched".into(),
            serde_json::Value::UInt(speculated.faults.speculative_launched),
        ),
        (
            "speculative_wins".into(),
            serde_json::Value::UInt(speculated.faults.speculative_wins),
        ),
    ]);
    let rendered = serde_json::to_string_pretty(&json).expect("value serializes");
    if let Err(e) = std::fs::write("BENCH_PR10.json", format!("{rendered}\n")) {
        eprintln!("warning: could not write BENCH_PR10.json: {e}");
    }

    format!(
        "PR 10 — multi-process backend over {rows} rows, {WORKERS} workers \
         (best of {REPS}; written to BENCH_PR10.json):\n{}\
         process/thread wall {backend_ratio:.2}x; SIGKILL-every-phase recovery \
         {recovery_ratio:.2}x clean; speculation {speculation_speedup:.2}x faster \
         than eating a {:.0} ms straggler\n",
        table.render(),
        ms(STRAGGLE),
    )
}
