//! PR 5 acceptance benchmark: the deterministic chaos engine.
//!
//! **Recovery** over the PR 4 click-scoring job shape: the job runs clean
//! and under the standard chaos schedule (seeded panics, transient kills,
//! shuffle/extent corruption, and delays in every phase, capped below the
//! retry budget), interleaved so system noise lands evenly. The chaotic
//! output must be byte-identical to the clean run; the wall-time ratio and
//! the fault counters from the job summary are reported. (Integrity
//! framing is not an option, so there is no framing-off run to compare
//! against.)
//!
//! Results go to `BENCH_PR5.json` for machine consumption.

use crate::table::Table;
use mapreduce::{ChaosPlan, Cluster, ClusterConfig, Dataset, Dfs, FaultTotals, RetryPolicy};
use relation::schema::{ColumnType, Field};
use relation::{row, Schema};
use std::time::Duration;
use temporal::expr::{col, lit};
use temporal::plan::{Operator, Query};
use timr::{Annotation, EventEncoding, ExchangeKey, TimrJob};

/// Log shape (mirrors the PR 2/PR 4 end-to-end job, slightly smaller so
/// the chaos runs stay cheap in CI).
const EXTENTS: usize = 8;
const ROWS_PER_EXTENT: usize = 12_000;
const PARTITIONS: usize = 8;
const USERS: usize = 500;
/// Interleaved repetitions per configuration (fastest run is kept).
const REPS: usize = 5;
/// The standard chaos schedule's seed.
const CHAOS_SEED: u64 = 7;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn op_schema() -> Schema {
    Schema::new(vec![
        Field::new("StreamId", ColumnType::Int),
        Field::new("UserId", ColumnType::Str),
        Field::new("KwAdId", ColumnType::Str),
        Field::new("Dwell", ColumnType::Long),
        Field::new("Position", ColumnType::Long),
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
                (i * 13) % 300,
                i % 8
            ]);
            i += 1;
        }
        extents.push(rows);
    }
    Dataset::partitioned(schema, extents)
}

/// The PR 4 feature projection: eight expressions per row, so recovery
/// is measured against realistic reduce-phase work.
fn feature_exprs() -> Vec<(String, temporal::Expr)> {
    vec![
        ("UserId".into(), col("UserId")),
        ("KwAdId".into(), col("KwAdId")),
        ("Dwell".into(), col("Dwell")),
        (
            "Score".into(),
            col("Dwell")
                .mul(lit(8))
                .sub(col("Position").mul(lit(3)))
                .add(col("StreamId")),
        ),
        (
            "SlotBias".into(),
            col("Position").mul(col("Position")).add(lit(1)),
        ),
        (
            "Engaged".into(),
            col("Dwell").ge(lit(30)).and(col("Position").lt(lit(4))),
        ),
        (
            "DwellNorm".into(),
            col("Dwell").mul(lit(1000)).div(col("Dwell").add(lit(60))),
        ),
        (
            "Interaction".into(),
            col("Dwell").mul(col("Position")).sub(col("StreamId")),
        ),
    ]
}

/// The PR 4 click-scoring shape: filter + feature projection + refilter +
/// second projection + keyed tumbling aggregation.
fn click_score_job() -> TimrJob {
    let q = Query::new();
    let out = q
        .source("logs", op_schema())
        .filter(col("StreamId").eq(lit(1)).and(col("Dwell").ge(lit(0))))
        .project(feature_exprs())
        .filter(col("Engaged").or(col("Score").ge(lit(1200))))
        .project(vec![
            ("UserId".into(), col("UserId")),
            ("KwAdId".into(), col("KwAdId")),
            ("Score".into(), col("Score")),
            ("ScoreSq".into(), col("Score").mul(col("Score"))),
            (
                "Mix".into(),
                col("Score")
                    .mul(lit(3))
                    .add(col("SlotBias").mul(lit(2)))
                    .sub(col("Interaction")),
            ),
        ])
        .group_apply(&["UserId", "KwAdId"], |g| {
            g.hop_window(5_000, 5_000).aggregate(vec![
                ("N".into(), temporal::agg::AggExpr::Count),
                ("ScoreSum".into(), temporal::agg::AggExpr::Sum(col("Score"))),
                ("MixSum".into(), temporal::agg::AggExpr::Sum(col("Mix"))),
            ])
        });
    let plan = q.build(vec![out]).unwrap();
    let filter = plan
        .nodes()
        .iter()
        .position(|n| matches!(n.op, Operator::Filter { .. }))
        .unwrap();
    let ann = Annotation::none().exchange(filter, 0, ExchangeKey::keys(&["UserId", "KwAdId"]));
    TimrJob::new("pr5", plan)
        .with_annotation(ann)
        .with_machines(PARTITIONS)
}

/// The standard chaos schedule (kept in sync with `tests/prop_chaos.rs`):
/// every fault kind enabled, capped at attempt 2 so the 4-attempt retry
/// budget always converges.
fn standard_chaos() -> ChaosPlan {
    ChaosPlan::seeded(CHAOS_SEED)
        .with_panics(0.15)
        .with_transients(0.15)
        .with_corruption(0.12)
        .with_delays(0.10, Duration::from_micros(200))
        .with_fault_cap(2)
}

struct JobRun {
    wall: Duration,
    output: Vec<mapreduce::StoredExtent>,
    faults: FaultTotals,
}

fn run_job_once(log: &Dataset, threads: usize, chaos: ChaosPlan) -> JobRun {
    let dfs = Dfs::new();
    dfs.put("logs", log.clone()).expect("fresh DFS");
    let cluster = Cluster::with_config(ClusterConfig {
        threads,
        chaos,
        retry: RetryPolicy::no_backoff(4),
        ..ClusterConfig::default()
    });
    let out = click_score_job().run(&dfs, &cluster).expect("job runs");
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

fn best(runs: Vec<JobRun>) -> JobRun {
    runs.into_iter().min_by_key(|r| r.wall).expect("REPS > 0")
}

/// Run the experiment.
pub fn run(_ctx: &mut super::Ctx) -> String {
    let log = build_log();
    let rows = log.len();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    // Clean and chaotic runs, interleaved (clean, chaos, clean, chaos, …).
    let mut clean_runs = Vec::new();
    let mut chaos_runs = Vec::new();
    for _ in 0..REPS {
        clean_runs.push(run_job_once(&log, threads, ChaosPlan::none()));
        chaos_runs.push(run_job_once(&log, threads, standard_chaos()));
    }
    let clean = best(clean_runs);
    let chaotic = best(chaos_runs);
    assert!(!clean.faults.any(), "a clean run must observe no faults");
    assert_eq!(
        clean.output, chaotic.output,
        "chaos must be invisible in the output bytes"
    );
    assert!(
        chaotic.faults.any(),
        "the standard schedule must inject at least one fault"
    );
    let recovery_ratio = chaotic.wall.as_secs_f64() / clean.wall.as_secs_f64().max(1e-9);

    let mut table = Table::new(&["Configuration", "Wall ms", "Retries", "Panics", "Corrupt"]);
    let mut push = |name: &str, r: &JobRun| {
        table.row(vec![
            name.into(),
            format!("{:.1}", ms(r.wall)),
            r.faults.task_retries.to_string(),
            r.faults.panics_contained.to_string(),
            r.faults.corruption_detected.to_string(),
        ]);
    };
    push("clean", &clean);
    push("chaos", &chaotic);

    let json = serde_json::Value::Object(vec![
        ("experiment".into(), serde_json::Value::Str("pr5".into())),
        ("rows".into(), serde_json::Value::UInt(rows as u64)),
        ("threads".into(), serde_json::Value::UInt(threads as u64)),
        ("cores".into(), serde_json::Value::UInt(threads as u64)),
        ("samples".into(), serde_json::Value::UInt(REPS as u64)),
        ("byte_identical".into(), serde_json::Value::Bool(true)),
        (
            "clean_wall_ms".into(),
            serde_json::Value::Float(ms(clean.wall)),
        ),
        (
            "chaos_wall_ms".into(),
            serde_json::Value::Float(ms(chaotic.wall)),
        ),
        (
            "chaos_recovery_ratio".into(),
            serde_json::Value::Float(recovery_ratio),
        ),
        ("chaos_seed".into(), serde_json::Value::UInt(CHAOS_SEED)),
        (
            "chaos_faults".into(),
            serde_json::Value::Object(vec![
                (
                    "task_retries".into(),
                    serde_json::Value::UInt(chaotic.faults.task_retries),
                ),
                (
                    "panics_contained".into(),
                    serde_json::Value::UInt(chaotic.faults.panics_contained),
                ),
                (
                    "transient_faults".into(),
                    serde_json::Value::UInt(chaotic.faults.transient_faults),
                ),
                (
                    "corruption_detected".into(),
                    serde_json::Value::UInt(chaotic.faults.corruption_detected),
                ),
                (
                    "delays_injected".into(),
                    serde_json::Value::UInt(chaotic.faults.delays_injected),
                ),
                (
                    "backoff_ms".into(),
                    serde_json::Value::Float(ms(chaotic.faults.backoff_time)),
                ),
            ]),
        ),
    ]);
    let rendered = serde_json::to_string_pretty(&json).expect("value serializes");
    if let Err(e) = std::fs::write("BENCH_PR5.json", format!("{rendered}\n")) {
        eprintln!("warning: could not write BENCH_PR5.json: {e}");
    }

    format!(
        "PR 5 — chaos engine: recovery over {rows} rows, {threads} threads (one per \
         core; best of {REPS}, interleaved; written to BENCH_PR5.json):\n{}\
         chaos run byte-identical to clean at {recovery_ratio:.2}x wall\n",
        table.render(),
    )
}
