//! PR 1 acceptance benchmark: parallel map/shuffle speedup.
//!
//! Runs one hash-partitioned counting stage over a multi-extent dataset
//! (8 extents × 20k rows, 8 reduce partitions) three ways — the seed
//! runtime's algorithm (serial scan, per-row partitioner resolution,
//! per-attempt input clone), the current runtime at `threads = 1`, and the
//! current runtime at `threads = N` — checks the outputs are
//! byte-identical, and writes the timings to `BENCH_PR1.json` for machine
//! consumption (stage wall time, map/shuffle/reduce split, shuffle bytes,
//! rows/sec, speedups).

use crate::table::Table;
use mapreduce::{
    ChaosPlan, Cluster, ClusterConfig, Dataset, Dfs, Partitioner, Reducer, ReducerContext, Stage,
    StageStats,
};
use relation::schema::{ColumnType, Field};
use relation::{row, ColumnBatch, Row, Schema};
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const EXTENTS: usize = 8;
const ROWS_PER_EXTENT: usize = 20_000;
const PARTITIONS: usize = 8;
const USERS: usize = 5_000;
/// Timed repetitions per thread count (minimum is reported).
const REPS: usize = 3;

fn input_schema() -> Schema {
    Schema::timestamped(vec![
        Field::new("UserId", ColumnType::Str),
        Field::new("Val", ColumnType::Long),
        Field::new("Payload", ColumnType::Str),
    ])
}

fn build_input() -> Dataset {
    let mut extents = Vec::with_capacity(EXTENTS);
    let mut i = 0i64;
    for _ in 0..EXTENTS {
        let mut rows = Vec::with_capacity(ROWS_PER_EXTENT);
        for _ in 0..ROWS_PER_EXTENT {
            // Realistic log width: rows carry a string payload (query text,
            // URL, …), so row copies are not free.
            rows.push(row![
                i,
                format!("u{}", i as usize % USERS),
                i * 7,
                format!(
                    "kw{i} search terms and landing page path segment {}",
                    i % 97
                )
            ]);
            i += 1;
        }
        extents.push(rows);
    }
    Dataset::partitioned(input_schema(), extents)
}

/// Sum `Val` per user — enough reduce work to be measurable, little enough
/// that the map/shuffle share of the stage stays visible.
#[derive(Debug)]
struct SumPerUserReducer;

impl Reducer for SumPerUserReducer {
    fn output_schema(&self, _inputs: &[Schema]) -> mapreduce::Result<Schema> {
        Ok(Schema::new(vec![
            Field::new("UserId", ColumnType::Str),
            Field::new("Sum", ColumnType::Long),
        ]))
    }

    fn reduce(
        &self,
        _ctx: &ReducerContext,
        inputs: Vec<ColumnBatch>,
    ) -> mapreduce::Result<Vec<Vec<Row>>> {
        let rows: Vec<Row> = inputs.iter().flat_map(ColumnBatch::to_rows).collect();
        Ok(vec![sum_per_user(&rows)])
    }
}

fn sum_per_user<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Vec<Row> {
    let mut sums: FxHashMap<&str, i64> = FxHashMap::default();
    for r in rows {
        let user = r.get(1).as_str().unwrap_or_default();
        let val = r.get(2).as_long().unwrap_or(0);
        *sums.entry(user).or_insert(0) += val;
    }
    let mut pairs: Vec<(&str, i64)> = sums.into_iter().collect();
    pairs.sort_unstable();
    pairs
        .into_iter()
        .map(|(u, s)| row![u.to_string(), s])
        .collect()
}

struct Run {
    threads: usize,
    stats: StageStats,
    output: Vec<Vec<Row>>,
}

fn run_once(input: &Dataset, threads: usize) -> Run {
    let dfs = Dfs::new();
    dfs.put("pr1_in", input.clone()).expect("fresh DFS");
    let stage = Stage::new(
        "pr1/sum",
        vec!["pr1_in".into()],
        "pr1_out",
        Partitioner::KeyHash {
            columns: vec!["UserId".into()],
        },
        PARTITIONS,
        Arc::new(SumPerUserReducer),
    )
    .expect("valid stage");
    let cluster = Cluster::with_config(ClusterConfig {
        threads,
        chaos: ChaosPlan::none(),
        retry: mapreduce::RetryPolicy::no_backoff(1),
        ..ClusterConfig::default()
    });
    let stats = cluster.run_stage(&dfs, &stage).expect("stage runs");
    let output = dfs
        .get("pr1_out")
        .expect("output")
        .partitions
        .as_ref()
        .clone();
    Run {
        threads,
        stats,
        output,
    }
}

fn best_of(input: &Dataset, threads: usize) -> Run {
    (0..REPS)
        .map(|_| run_once(input, threads))
        .min_by_key(|r| r.stats.wall_time)
        .expect("REPS > 0")
}

/// The seed runtime's stage algorithm, reproduced verbatim as the
/// baseline: a serial map that clones the whole input via `scan()` and
/// resolves the partitioner's column names *per row*, then a reduce pool
/// that hands each reducer attempt a fresh clone of its inputs.
fn run_seed_algorithm(input: &Dataset, threads: usize) -> (Duration, Vec<Vec<Row>>) {
    let partitioner = Partitioner::KeyHash {
        columns: vec!["UserId".into()],
    };
    let start = Instant::now();

    let mut buckets: Vec<Vec<Row>> = (0..PARTITIONS).map(|_| Vec::new()).collect();
    for row in input.scan() {
        let p = partitioner
            .assign(&input.schema, &row, PARTITIONS)
            .expect("assign");
        buckets[p].push(row);
    }

    let slots: Vec<Mutex<Option<Vec<Vec<Row>>>>> = buckets
        .into_iter()
        .map(|b| Mutex::new(Some(vec![b])))
        .collect();
    let results: Vec<Mutex<Option<Vec<Row>>>> = (0..PARTITIONS).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(PARTITIONS) {
            scope.spawn(|| loop {
                let p = next.fetch_add(1, Ordering::Relaxed);
                if p >= PARTITIONS {
                    break;
                }
                let input_rows = slots[p].lock().unwrap().take().expect("task taken twice");
                // The seed cloned the inputs on every attempt.
                let cloned = input_rows.clone();
                let out = sum_per_user(cloned.iter().flatten());
                *results[p].lock().unwrap() = Some(out);
            });
        }
    });
    let output: Vec<Vec<Row>> = results
        .into_iter()
        .map(|r| r.into_inner().unwrap().expect("partition ran"))
        .collect();
    (start.elapsed(), output)
}

fn best_of_seed(input: &Dataset, threads: usize) -> (Duration, Vec<Vec<Row>>) {
    (0..REPS)
        .map(|_| run_seed_algorithm(input, threads))
        .min_by_key(|(wall, _)| *wall)
        .expect("REPS > 0")
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run_json(run: &Run, rows: usize) -> serde_json::Value {
    let s = &run.stats;
    serde_json::Value::Object(vec![
        (
            "threads".into(),
            serde_json::Value::UInt(run.threads as u64),
        ),
        ("wall_ms".into(), serde_json::Value::Float(ms(s.wall_time))),
        ("map_ms".into(), serde_json::Value::Float(ms(s.map_time))),
        (
            "shuffle_ms".into(),
            serde_json::Value::Float(ms(s.shuffle_time)),
        ),
        (
            "reduce_wall_ms".into(),
            serde_json::Value::Float(ms(s.reduce_wall_time)),
        ),
        (
            "map_tasks".into(),
            serde_json::Value::UInt(s.map_tasks as u64),
        ),
        (
            "shuffle_bytes".into(),
            serde_json::Value::UInt(s.shuffle_bytes),
        ),
        (
            "rows_per_sec".into(),
            serde_json::Value::Float(rows as f64 / s.wall_time.as_secs_f64().max(1e-9)),
        ),
    ])
}

/// Run the experiment.
pub fn run(_ctx: &mut super::Ctx) -> String {
    let input = build_input();
    let rows = input.len();
    let parallel_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .max(2);

    let (seed_wall, seed_output) = best_of_seed(&input, parallel_threads);
    let serial = best_of(&input, 1);
    let parallel = best_of(&input, parallel_threads);
    assert_eq!(
        serial.output, parallel.output,
        "thread count changed the stage output"
    );
    assert_eq!(
        seed_output, parallel.output,
        "the seed algorithm and the new runtime disagree"
    );
    let thread_speedup =
        serial.stats.wall_time.as_secs_f64() / parallel.stats.wall_time.as_secs_f64().max(1e-9);
    let seed_speedup = seed_wall.as_secs_f64() / parallel.stats.wall_time.as_secs_f64().max(1e-9);

    let seed_json = serde_json::Value::Object(vec![
        (
            "threads".into(),
            serde_json::Value::UInt(parallel_threads as u64),
        ),
        ("wall_ms".into(), serde_json::Value::Float(ms(seed_wall))),
        (
            "rows_per_sec".into(),
            serde_json::Value::Float(rows as f64 / seed_wall.as_secs_f64().max(1e-9)),
        ),
    ]);
    let json = serde_json::Value::Object(vec![
        ("experiment".into(), serde_json::Value::Str("pr1".into())),
        ("rows".into(), serde_json::Value::UInt(rows as u64)),
        ("extents".into(), serde_json::Value::UInt(EXTENTS as u64)),
        (
            "partitions".into(),
            serde_json::Value::UInt(PARTITIONS as u64),
        ),
        ("seed_baseline".into(), seed_json),
        (
            "runs".into(),
            serde_json::Value::Array(vec![run_json(&serial, rows), run_json(&parallel, rows)]),
        ),
        (
            "speedup_vs_threads1".into(),
            serde_json::Value::Float(thread_speedup),
        ),
        (
            "speedup_vs_seed".into(),
            serde_json::Value::Float(seed_speedup),
        ),
    ]);
    let rendered = serde_json::to_string_pretty(&json).expect("value serializes");
    if let Err(e) = std::fs::write("BENCH_PR1.json", format!("{rendered}\n")) {
        eprintln!("warning: could not write BENCH_PR1.json: {e}");
    }

    let mut table = Table::new(&[
        "Runtime",
        "Threads",
        "Wall ms",
        "Map ms",
        "Shuffle ms",
        "Reduce ms",
        "Rows/sec",
    ]);
    table.row(vec![
        "seed".into(),
        parallel_threads.to_string(),
        format!("{:.1}", ms(seed_wall)),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{:.0}", rows as f64 / seed_wall.as_secs_f64().max(1e-9)),
    ]);
    for run in [&serial, &parallel] {
        let s = &run.stats;
        table.row(vec![
            "new".into(),
            run.threads.to_string(),
            format!("{:.1}", ms(s.wall_time)),
            format!("{:.1}", ms(s.map_time)),
            format!("{:.1}", ms(s.shuffle_time)),
            format!("{:.1}", ms(s.reduce_wall_time)),
            format!("{:.0}", rows as f64 / s.wall_time.as_secs_f64().max(1e-9)),
        ]);
    }
    format!(
        "PR 1 — parallel map/shuffle, {rows} rows in {EXTENTS} extents, \
         {PARTITIONS} partitions (best of {REPS}; written to BENCH_PR1.json):\n{}\
         speedup vs seed runtime: {seed_speedup:.2}x; \
         threads 1 → {}: {thread_speedup:.2}x\n",
        table.render(),
        parallel.threads,
    )
}
