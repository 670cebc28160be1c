//! PR 6 acceptance benchmark: binary columnar extents + memory-budgeted
//! spill shuffle.
//!
//! Three measurements over the PR 4/PR 5 click-scoring job shape:
//!
//! 1. **Shuffle-byte cut**: each stage reports what the shuffle actually
//!    moved as framed binary columnar extents; what the same rows would
//!    have cost in the text codec is computed here, by re-applying each
//!    stage's (pure) mapper to its input extents and encoding the result
//!    with [`relation::codec`]. The binary format must cut shuffle bytes
//!    by ≥2x, and the scaled-out output must equal the single-node
//!    reference DSMS on the same log.
//! 2. **Codec CPU**: a direct encode+decode race over the log's rows —
//!    text `encode_rows`/`decode_rows` vs binary `to_extent_bytes`/
//!    `from_extent_bytes` — showing the CPU the stage boundaries no
//!    longer pay.
//! 3. **Out-of-core**: the same job under a `memory_budget_bytes` several
//!    times smaller than its own shuffle volume. Completed extents spill
//!    to disk (counters must show it) and the output must stay
//!    byte-identical to the unbudgeted in-memory run.
//!
//! `TIMR_PR6_SCALE=<n>` multiplies rows and users for out-of-core runs on
//! logs larger than RAM (the 10M+ user acceptance run). Results go to
//! `BENCH_PR6.json` for machine consumption.

use crate::table::Table;
use mapreduce::{Cluster, ClusterConfig, Dataset, Dfs, MapperContext, Stage};
use relation::schema::{ColumnType, Field};
use relation::{codec, row, ColumnBatch, Row, Schema};
use std::time::{Duration, Instant};
use temporal::expr::{col, lit};
use temporal::plan::{Operator, Query};
use timr::{Annotation, EventEncoding, ExchangeKey, TimrJob};

/// Log shape (mirrors the PR 5 end-to-end job).
const EXTENTS: usize = 8;
const ROWS_PER_EXTENT: usize = 12_000;
const PARTITIONS: usize = 8;
const USERS: usize = 500;
/// Interleaved repetitions per configuration (fastest run is kept).
const REPS: usize = 3;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn scale() -> usize {
    std::env::var("TIMR_PR6_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// User-id domain; `TIMR_PR6_USERS` overrides for runs like the 10M-user
/// out-of-core acceptance, where the key cardinality itself is the load.
fn user_domain(scale: usize) -> usize {
    std::env::var("TIMR_PR6_USERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(USERS * scale)
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

fn build_log(scale: usize) -> Dataset {
    let schema = EventEncoding::Point.dataset_schema(&op_schema());
    let users = user_domain(scale);
    let mut extents = Vec::with_capacity(EXTENTS);
    let mut i = 0i64;
    for _ in 0..EXTENTS {
        let mut rows = Vec::with_capacity(ROWS_PER_EXTENT * scale);
        for _ in 0..ROWS_PER_EXTENT * scale {
            let u = i as usize % users;
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

/// The PR 4/PR 5 click-scoring shape: filter + feature projection +
/// refilter + second projection + keyed tumbling aggregation.
fn click_score_job() -> TimrJob {
    let q = Query::new();
    let out = q
        .source("logs", op_schema())
        .filter(col("StreamId").eq(lit(1)).and(col("Dwell").ge(lit(0))))
        .project(vec![
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
        ])
        .filter(col("Engaged").or(col("Score").ge(lit(1200))))
        .project(vec![
            ("UserId".into(), col("UserId")),
            ("KwAdId".into(), col("KwAdId")),
            ("Score".into(), col("Score")),
            ("ScoreSq".into(), col("Score").mul(col("Score"))),
        ])
        .group_apply(&["UserId", "KwAdId"], |g| {
            g.hop_window(5_000, 5_000).aggregate(vec![
                ("N".into(), temporal::agg::AggExpr::Count),
                ("ScoreSum".into(), temporal::agg::AggExpr::Sum(col("Score"))),
            ])
        });
    let plan = q.build(vec![out]).unwrap();
    let filter = plan
        .nodes()
        .iter()
        .position(|n| matches!(n.op, Operator::Filter { .. }))
        .unwrap();
    let ann = Annotation::none().exchange(filter, 0, ExchangeKey::keys(&["UserId", "KwAdId"]));
    TimrJob::new("pr6", plan)
        .with_annotation(ann)
        .with_machines(PARTITIONS)
}

struct JobRun {
    wall: Duration,
    output: Vec<mapreduce::StoredExtent>,
    text_bytes: u64,
    binary_bytes: u64,
    spill_extents: u64,
    spill_bytes: u64,
}

/// What the shuffles of `stages` would move in the text codec, one line
/// per shuffled row. Run after the job, so every stage's inputs are in
/// the DFS; mappers are pure, so re-applying one reproduces what it
/// shuffled.
fn shuffle_text_bytes(dfs: &Dfs, stages: &[Stage]) -> u64 {
    let mut bytes = 0;
    for stage in stages {
        for (i, name) in stage.inputs.iter().enumerate() {
            let input = dfs.get(name).expect("stage input");
            for e in 0..input.partitions.len() {
                let ctx = MapperContext::standalone(&stage.name, i, e);
                let extent = input.batch(e).expect("extent decodes");
                let mapped = match &stage.mapper {
                    Some(m) => m.map(&ctx, extent).expect("mapper runs"),
                    None => extent,
                };
                bytes += codec::encode_rows(&mapped.to_rows()).len() as u64;
            }
        }
    }
    bytes
}

fn run_job_once(
    log: &Dataset,
    threads: usize,
    budget: Option<u64>,
    measure_text: bool,
    check_reference: bool,
) -> JobRun {
    let dfs = Dfs::new();
    dfs.put("logs", log.clone()).expect("fresh DFS");
    let cluster = Cluster::with_config(ClusterConfig {
        threads,
        memory_budget_bytes: budget,
        ..ClusterConfig::default()
    });
    let job = click_score_job();
    let out = job.run(&dfs, &cluster).expect("job runs");
    let text_bytes = if measure_text {
        shuffle_text_bytes(&dfs, &job.compile().expect("job compiles").stages)
    } else {
        0
    };
    if check_reference {
        let reference = super::reference_relation(&dfs, &job.plan, &job.source_encodings);
        assert!(
            out.stream(&dfs)
                .expect("output decodes")
                .same_relation(&reference),
            "scaled-out output must equal the single-node reference DSMS"
        );
    }
    JobRun {
        wall: out.stats.total_wall_time(),
        output: dfs
            .get(&out.dataset)
            .expect("output")
            .partitions
            .as_ref()
            .clone(),
        text_bytes,
        binary_bytes: out.stats.total_shuffle_bytes_binary(),
        spill_extents: out.stats.total_spill_extents(),
        spill_bytes: out.stats.total_spill_bytes(),
    }
}

fn best(runs: Vec<JobRun>) -> JobRun {
    runs.into_iter().min_by_key(|r| r.wall).expect("REPS > 0")
}

/// Encode+decode race over `rows`: legacy text codec vs binary extents.
fn codec_race(schema: &Schema, rows: &[Row], reps: usize) -> (Duration, Duration) {
    let mut text_best = Duration::MAX;
    let mut bin_best = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        let encoded = codec::encode_rows(rows);
        let decoded = codec::decode_rows(&encoded, schema).expect("text decodes");
        assert_eq!(decoded.len(), rows.len());
        text_best = text_best.min(t.elapsed());

        let t = Instant::now();
        let batch = ColumnBatch::from_rows(schema, rows).expect("transposes");
        let bytes = batch.to_extent_bytes().expect("encodes");
        let back = ColumnBatch::from_extent_bytes(&bytes).expect("binary decodes");
        assert_eq!(back.len(), rows.len());
        bin_best = bin_best.min(t.elapsed());
    }
    (text_best, bin_best)
}

/// Run the experiment.
pub fn run(_ctx: &mut super::Ctx) -> String {
    let scale = scale();
    // Scaled acceptance runs take one pass per configuration; the default
    // CI-sized shape keeps best-of-REPS to damp timer noise.
    let reps = if scale >= 10 { 1 } else { REPS };
    let log = build_log(scale);
    let rows = log.len();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    // 1. Shuffle-byte cut; the first repetition also checks the output
    //    against the single-node reference DSMS (scaled runs skip it: the
    //    reference is the naive interpreter, on one thread).
    let in_memory = best(
        (0..reps)
            .map(|rep| run_job_once(&log, threads, None, true, rep == 0 && scale == 1))
            .collect(),
    );
    let cut = |r: &JobRun| r.text_bytes as f64 / (r.binary_bytes as f64).max(1.0);
    let min_cut = cut(&in_memory);
    assert!(
        min_cut >= 2.0,
        "binary extents must at least halve shuffle bytes (got {min_cut:.2}x)"
    );

    // 2. Codec CPU: text vs binary encode+decode over the raw log rows.
    let all_rows: Vec<Row> = log.scan();
    let (text_cpu, bin_cpu) = codec_race(&log.schema, &all_rows, reps);
    let codec_speedup = text_cpu.as_secs_f64() / bin_cpu.as_secs_f64().max(1e-9);

    // 3. Out-of-core: budget the shuffle well below its own volume.
    let budget = (in_memory.binary_bytes / 8).max(64 * 1024);
    let spilled = run_job_once(&log, threads, Some(budget), false, false);
    assert!(
        spilled.spill_extents > 0,
        "a budget of {budget} bytes under a {}-byte shuffle must spill",
        in_memory.binary_bytes
    );
    assert_eq!(
        in_memory.output, spilled.output,
        "spilling must not change output bytes"
    );

    let mut table = Table::new(&["Configuration", "Wall ms", "Text B", "Binary B", "Cut"]);
    table.row(vec![
        "in memory".into(),
        format!("{:.1}", ms(in_memory.wall)),
        in_memory.text_bytes.to_string(),
        in_memory.binary_bytes.to_string(),
        format!("{:.2}x", cut(&in_memory)),
    ]);
    table.row(vec![
        format!("{budget} B budget"),
        format!("{:.1}", ms(spilled.wall)),
        "-".into(),
        spilled.binary_bytes.to_string(),
        format!("{} spills", spilled.spill_extents),
    ]);

    let json = serde_json::Value::Object(vec![
        ("experiment".into(), serde_json::Value::Str("pr6".into())),
        ("rows".into(), serde_json::Value::UInt(rows as u64)),
        ("scale".into(), serde_json::Value::UInt(scale as u64)),
        ("threads".into(), serde_json::Value::UInt(threads as u64)),
        ("cores".into(), serde_json::Value::UInt(threads as u64)),
        ("samples".into(), serde_json::Value::UInt(reps as u64)),
        ("byte_identical".into(), serde_json::Value::Bool(true)),
        (
            "in_memory".into(),
            serde_json::Value::Object(vec![
                (
                    "wall_ms".into(),
                    serde_json::Value::Float(ms(in_memory.wall)),
                ),
                (
                    "shuffle_text_codec_bytes".into(),
                    serde_json::Value::UInt(in_memory.text_bytes),
                ),
                (
                    "shuffle_bytes_binary".into(),
                    serde_json::Value::UInt(in_memory.binary_bytes),
                ),
            ]),
        ),
        ("min_shuffle_cut".into(), serde_json::Value::Float(min_cut)),
        (
            "codec_text_ms".into(),
            serde_json::Value::Float(ms(text_cpu)),
        ),
        (
            "codec_binary_ms".into(),
            serde_json::Value::Float(ms(bin_cpu)),
        ),
        (
            "codec_speedup".into(),
            serde_json::Value::Float(codec_speedup),
        ),
        (
            "out_of_core".into(),
            serde_json::Value::Object(vec![
                ("budget_bytes".into(), serde_json::Value::UInt(budget)),
                (
                    "shuffle_bytes_binary".into(),
                    serde_json::Value::UInt(spilled.binary_bytes),
                ),
                (
                    "spill_extents".into(),
                    serde_json::Value::UInt(spilled.spill_extents),
                ),
                (
                    "spill_bytes".into(),
                    serde_json::Value::UInt(spilled.spill_bytes),
                ),
                ("wall_ms".into(), serde_json::Value::Float(ms(spilled.wall))),
                ("byte_identical".into(), serde_json::Value::Bool(true)),
            ]),
        ),
    ]);
    let rendered = serde_json::to_string_pretty(&json).expect("value serializes");
    if let Err(e) = std::fs::write("BENCH_PR6.json", format!("{rendered}\n")) {
        eprintln!("warning: could not write BENCH_PR6.json: {e}");
    }

    format!(
        "PR 6 — binary extents + spill shuffle over {rows} rows, {threads} threads \
         (best of {reps}; written to BENCH_PR6.json):\n{}\
         shuffle cut ≥{min_cut:.2}x (target ≥2x); codec {codec_speedup:.2}x faster than text; \
         budgeted run spilled {} extents / {} bytes, byte-identical to in-memory\n",
        table.render(),
        spilled.spill_extents,
        spilled.spill_bytes,
    )
}
