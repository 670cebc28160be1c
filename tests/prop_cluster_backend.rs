//! Worker-kind equivalence tests: forked worker OS processes — exchanging
//! binary extent images over Unix-domain sockets — must produce datasets
//! byte-identical to pool threads running the same tasks in place (itself
//! equal to the oracle on the same events, paper §III-C.1; the property is
//! `tests/common/harness.rs`'s, with worker processes pinned), at any
//! worker count, and under real process-kill chaos
//! (SIGKILL mid-task in every phase), socket-level corruption, injected
//! stragglers with speculative re-execution, attempt timeouts and a missed
//! heartbeat. Both kinds pull from one attempt ledger, so the
//! deterministic fault tallies and an exhausted task's error are equal
//! too, a batch that is not of its schema fails both with the same named
//! error, and a damaged source image fails the map task on every attempt.

#![cfg(unix)]

mod common;

use common::harness::{arb_case, check, Dim};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use timr_suite::mapreduce::job::IdentityReducer;
use timr_suite::mapreduce::{
    BackendKind, ChaosPlan, Cluster, ClusterConfig, Dataset, Dfs, FaultTotals, Mapper,
    MapperContext, MrError, Partitioner, Reducer, ReducerContext, RetryPolicy, SpeculationPolicy,
    Stage, StoredExtent, TaskError, TaskPhase,
};
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{row, ColumnBatch, RelationError, Row, Schema, Value};
use timr_suite::temporal::expr::{col, lit};
use timr_suite::temporal::Query;
use timr_suite::timr::{Annotation, EventEncoding, ExchangeKey, TimrJob};

fn payload() -> Schema {
    Schema::new(vec![
        Field::new("StreamId", ColumnType::Int),
        Field::new("UserId", ColumnType::Str),
        Field::new("KwAdId", ColumnType::Str),
    ])
}

fn click_count_job() -> TimrJob {
    let q = Query::new();
    let out = q
        .source("logs", payload())
        .filter(col("StreamId").eq(lit(1)))
        .group_apply(&["KwAdId"], |g| g.window(100).count("N"));
    let plan = q.build(vec![out]).unwrap();
    let filter = plan
        .nodes()
        .iter()
        .position(|n| matches!(n.op, timr_suite::temporal::plan::Operator::Filter { .. }))
        .unwrap();
    let ann = Annotation::none().exchange(filter, 0, ExchangeKey::keys(&["KwAdId"]));
    TimrJob::new("pb", plan)
        .with_annotation(ann)
        .with_machines(4)
}

/// The compiled stage name — lets chaos target exact task coordinates
/// instead of guessing node ids.
fn stage_name() -> String {
    click_count_job().compile().unwrap().stages[0].name.clone()
}

/// Store the log as several extents so the map phase has multiple tasks.
fn dfs_with(rows: &[Row], extents: usize) -> Dfs {
    let chunk = rows.len().div_ceil(extents).max(1);
    let parts: Vec<Vec<Row>> = rows.chunks(chunk).map(|c| c.to_vec()).collect();
    let dfs = Dfs::new();
    dfs.put(
        "logs",
        Dataset::partitioned(EventEncoding::Point.dataset_schema(&payload()), parts),
    )
    .unwrap();
    dfs
}

fn deterministic_rows(n: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            row![
                i * 7 % 500,
                (1 + i % 2) as i32,
                format!("u{}", i % 11),
                format!("ad{}", i % 7)
            ]
        })
        .collect()
}

fn run_job(rows: &[Row], config: ClusterConfig) -> (Vec<StoredExtent>, FaultTotals) {
    run_job_shaped(rows, 3, 4, config)
}

/// [`run_job`] with the stage's shape chosen: `extents` map tasks and
/// `machines` reduce partitions.
fn run_job_shaped(
    rows: &[Row],
    extents: usize,
    machines: usize,
    config: ClusterConfig,
) -> (Vec<StoredExtent>, FaultTotals) {
    let dfs = dfs_with(rows, extents);
    let cluster = Cluster::with_config(config);
    let job = click_count_job().with_machines(machines);
    let out = job.run(&dfs, &cluster).unwrap();
    (
        dfs.get(&out.dataset).unwrap().partitions.as_ref().clone(),
        out.stats.fault_totals(),
    )
}

fn process_config(workers: usize, chaos: ChaosPlan, retry: RetryPolicy) -> ClusterConfig {
    ClusterConfig {
        backend: BackendKind::Processes { workers },
        chaos,
        retry,
        ..ClusterConfig::default()
    }
}

/// Pool threads, then two forked workers.
const WORKER_KINDS: [BackendKind; 2] =
    [BackendKind::Threads, BackendKind::Processes { workers: 2 }];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Forked workers (one to three of them, with fewer, as many or more
    /// map tasks) are byte-identical to the thread-pool baseline, clean and
    /// under seeded chaos schedules that include real process kills —
    /// under which the deterministic fault tallies equal the thread pool's
    /// too: one ledger settles every attempt, whoever ran it. The baseline
    /// is the relation the oracle computes from the same events.
    #[test]
    fn process_backend_matches_threads_and_the_reference(
        case in arb_case(&[Dim::Processes], 4),
    ) {
        check(&case)?;
    }
}

/// Rows over few users (so some reduce partitions stay empty), one in
/// ten null-heavy.
fn arb_keyed_rows() -> impl Strategy<Value = Vec<Row>> {
    let row = (0i64..1000, 0u8..10, 0u8..10).prop_map(|(n, user, kind)| match kind {
        0 => Row::new(vec![Value::Long(n), Value::Null, Value::Null]),
        _ => row![n, format!("u{user}"), n * 3],
    });
    (1u8..10, prop::collection::vec(row, 0..250)).prop_map(|(users, rows)| {
        let fold = |r: &Row| match r.get(1) {
            Value::Str(u) => {
                let folded = u[1..].parse::<u8>().unwrap() % users;
                Row::new(vec![
                    r.get(0).clone(),
                    Value::str(format!("u{folded}")),
                    r.get(2).clone(),
                ])
            }
            _ => r.clone(),
        };
        rows.iter().map(fold).collect()
    })
}

/// What one stage published: one sealed extent per reduce partition.
type Published = Vec<StoredExtent>;

fn keyed_schema() -> Schema {
    Schema::timestamped(vec![
        Field::new("UserId", ColumnType::Str),
        Field::new("N", ColumnType::Long),
    ])
}

/// `rows` as three extents.
fn three_extents(rows: &[Row]) -> Vec<Vec<Row>> {
    let per_extent = rows.len().div_ceil(3).max(1);
    rows.chunks(per_extent).map(<[Row]>::to_vec).collect()
}

/// A stage repartitioning `in` by `UserId` into four partitions of `out`.
fn copy_stage(reducer: Arc<dyn Reducer>) -> Stage {
    Stage::new(
        "copy",
        vec!["in".into()],
        "out",
        Partitioner::KeyHash {
            columns: vec!["UserId".into()],
        },
        4,
        reducer,
    )
    .unwrap()
}

/// Repartition `rows` (stored as three extents) by `UserId` through an
/// identity stage on `config`'s cluster.
fn publish(rows: &[Row], config: ClusterConfig) -> Published {
    publish_through(Arc::new(IdentityReducer), rows, config).0
}

/// [`publish`] through `reducer`, with the stage's fault tallies.
fn publish_through(
    reducer: Arc<dyn Reducer>,
    rows: &[Row],
    config: ClusterConfig,
) -> (Published, FaultTotals) {
    let dfs = Dfs::new();
    dfs.put(
        "in",
        Dataset::partitioned(keyed_schema(), three_extents(rows)),
    )
    .unwrap();
    let stats = Cluster::with_config(config)
        .run_job(&dfs, &[copy_stage(reducer)])
        .unwrap();
    let out = dfs.get("out").unwrap();
    out.verify().unwrap();
    (out.partitions.as_ref().clone(), stats.fault_totals())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Tasks seal what they publish, so the published extent images must
    /// not depend on who ran the tasks or where the
    /// shuffle lived: 1, 2 and 4 threads or worker processes, in memory or
    /// under a 2 KiB budget — clean, and under a seeded chaos schedule of
    /// panics, kills, process kills and corruption in every phase.
    #[test]
    fn published_images_match_across_threads_backends_and_budgets(
        rows in arb_keyed_rows(),
        seed in 0u64..1_000_000,
    ) {
        let retry = RetryPolicy::no_backoff(5);
        let reference = publish(&rows, ClusterConfig {
            threads: 1,
            retry,
            ..ClusterConfig::default()
        });
        let chaos = ChaosPlan::seeded(seed)
            .with_panics(0.08)
            .with_transients(0.08)
            .with_corruption(0.08)
            .with_process_kills(0.08)
            .with_fault_cap(2);
        let spill_dir = std::env::temp_dir().join(format!(
            "timr-backend-images-{}-{seed}",
            std::process::id()
        ));
        for n in [1usize, 2, 4] {
            for backend in [BackendKind::Threads, BackendKind::Processes { workers: n }] {
                for budget in [None, Some(2 << 10)] {
                    for plan in [ChaosPlan::none(), chaos.clone()] {
                        let clean = plan.is_clean();
                        let got = publish(&rows, ClusterConfig {
                            threads: n,
                            backend,
                            memory_budget_bytes: budget,
                            spill_dir: Some(spill_dir.clone()),
                            chaos: plan,
                            retry,
                            ..ClusterConfig::default()
                        });
                        prop_assert_eq!(
                            &got, &reference,
                            "{:?} x{} budget {:?} clean {} seed {}", backend, n, budget, clean, seed
                        );
                    }
                }
            }
        }
        std::fs::remove_dir_all(&spill_dir).ok();
    }
}

/// Where an ill-typed batch is returned. (A source extent cannot hold an
/// ill-typed cell: it has no image, so `Dataset::partitioned` refuses it.)
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plant {
    MapperOutput,
    ReducerOutput,
}

/// `batch` itself, or — when a row is stamped `at` — the batch with a
/// string in its `Long` column `N`: `"x"` in every such row, null elsewhere.
fn poison(batch: ColumnBatch, at: i64) -> ColumnBatch {
    let rows = batch.to_rows();
    if !rows.iter().any(|r| r.get(0).as_long() == Some(at)) {
        return batch;
    }
    let n = |r: &Row| match r.get(0).as_long() == Some(at) {
        true => Value::str("x"),
        false => Value::Null,
    };
    let bad: Vec<Row> = (rows.iter())
        .map(|r| Row::new(vec![r.get(0).clone(), r.get(1).clone(), n(r)]))
        .collect();
    let schema = Schema::timestamped(vec![
        Field::new("UserId", ColumnType::Str),
        Field::new("N", ColumnType::Str),
    ]);
    ColumnBatch::from_rows(&schema, &bad).unwrap()
}

/// A mapper and a reducer that pass batches through, poisoned; `calls`
/// counts invocations (in this address space: the thread backend's).
#[derive(Debug)]
struct Poisoner {
    at: i64,
    calls: AtomicUsize,
}

impl Mapper for Poisoner {
    fn output_schema(&self, _: usize, schema: &Schema) -> timr_suite::mapreduce::Result<Schema> {
        Ok(schema.clone())
    }

    fn map(
        &self,
        _: &MapperContext,
        batch: ColumnBatch,
    ) -> timr_suite::mapreduce::Result<ColumnBatch> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Ok(poison(batch, self.at))
    }
}

impl Reducer for Poisoner {
    fn output_schema(&self, inputs: &[Schema]) -> timr_suite::mapreduce::Result<Schema> {
        Ok(inputs[0].clone())
    }

    fn reduce(
        &self,
        _: &ReducerContext,
        inputs: Vec<ColumnBatch>,
    ) -> timr_suite::mapreduce::Result<Vec<ColumnBatch>> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Ok(inputs.into_iter().map(|b| poison(b, self.at)).collect())
    }
}

/// Passes rows through like [`IdentityReducer`], but every partition's first
/// attempt fails *after* it has consumed the input batches it was handed.
#[derive(Debug)]
struct ConsumeThenPanic;

impl Reducer for ConsumeThenPanic {
    fn output_schema(&self, inputs: &[Schema]) -> timr_suite::mapreduce::Result<Schema> {
        Ok(inputs[0].clone())
    }

    fn reduce(
        &self,
        ctx: &ReducerContext,
        inputs: Vec<ColumnBatch>,
    ) -> timr_suite::mapreduce::Result<Vec<ColumnBatch>> {
        let consumed: Vec<ColumnBatch> = inputs.into_iter().collect();
        assert!(ctx.is_retry(), "attempt 0 consumed its inputs, then failed");
        Ok(consumed)
    }
}

/// Reducers take their inputs by value and the runtime keeps no spare: a
/// reduce attempt that consumed its batches and then died must find the
/// identical inputs on the retry — decoded again from the partition's sealed
/// chunks — on threads and on worker processes, in memory and spilled.
#[test]
fn a_retry_after_a_consuming_failure_sees_identical_inputs() {
    let rows: Vec<Row> = (0..300i64)
        .map(|i| row![i * 7 % 1000, format!("u{}", i % 9), i * 3])
        .collect();
    let spill_dir =
        std::env::temp_dir().join(format!("timr-backend-refetch-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).unwrap();
    let clean = publish(&rows, ClusterConfig::default());
    for backend in [BackendKind::Threads, BackendKind::Processes { workers: 2 }] {
        for budget in [None, Some(2 << 10)] {
            let config = ClusterConfig {
                backend,
                memory_budget_bytes: budget,
                spill_dir: Some(spill_dir.clone()),
                retry: RetryPolicy::no_backoff(2),
                ..ClusterConfig::default()
            };
            let (retried, totals) = publish_through(Arc::new(ConsumeThenPanic), &rows, config);
            assert_eq!(retried, clean, "{backend:?} budget {budget:?}");
            assert_eq!(totals.panics_contained, 4, "one per reduce partition");
            assert_eq!(totals.task_retries, 4, "{backend:?} budget {budget:?}");
        }
    }
    std::fs::remove_dir_all(&spill_dir).ok();
    assert_no_zombies();
}

/// A published dataset whose bytes are damaged is damaged on every read:
/// each map attempt decodes its extent's image, so a byte flipped in one
/// extent and another extent cut short fail the lower one's map task —
/// `TaskExhausted` in the map phase, `Corrupt` naming the extent — on
/// threads and on worker processes, in memory and under a budget, with
/// nothing published, no spill file left and no zombie.
#[test]
fn a_damaged_source_image_fails_every_map_attempt() {
    let rows: Vec<Row> = (0..300i64)
        .map(|i| row![i, format!("u{}", i % 9), i * 3])
        .collect();
    let mut extents = Dataset::partitioned(keyed_schema(), three_extents(&rows))
        .extents()
        .to_vec();
    let damage = |stored: &mut StoredExtent, f: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = stored.bytes.as_ref().clone();
        f(&mut bytes);
        stored.bytes = Arc::new(bytes);
    };
    damage(&mut extents[1], &|b| {
        let mid = b.len() / 2;
        b[mid] ^= 0xFF;
    });
    damage(&mut extents[2], &|b| b.truncate(b.len() * 2 / 3));
    let damaged = Dataset {
        schema: keyed_schema(),
        partitions: Arc::new(extents),
    };
    let spill_dir =
        std::env::temp_dir().join(format!("timr-backend-damaged-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).unwrap();
    for backend in WORKER_KINDS {
        for budget in [None, Some(2 << 10)] {
            let dfs = Dfs::new();
            dfs.put("in", damaged.clone()).unwrap();
            let err = Cluster::with_config(ClusterConfig {
                backend,
                threads: 2,
                memory_budget_bytes: budget,
                spill_dir: Some(spill_dir.clone()),
                retry: RetryPolicy::no_backoff(3),
                ..ClusterConfig::default()
            })
            .run_stage(&dfs, &copy_stage(Arc::new(IdentityReducer)))
            .unwrap_err();
            let label = format!("{backend:?} budget {budget:?}");
            let MrError::TaskExhausted {
                stage,
                phase,
                partition,
                attempts,
                last,
            } = &err
            else {
                panic!("{label}: expected TaskExhausted, got {err:?}");
            };
            assert_eq!(
                (stage.as_str(), *phase, *partition, *attempts),
                ("copy", TaskPhase::Map, 1, 3),
                "{label}"
            );
            let TaskError::Corrupt { what } = last.as_ref() else {
                panic!("{label}: expected Corrupt, got {last:?}");
            };
            assert!(what.starts_with("extent 1: "), "{label}: {what}");
            assert!(!dfs.contains("out"), "{label}: sink published");
            let leftovers: Vec<_> = std::fs::read_dir(&spill_dir).unwrap().collect();
            assert!(leftovers.is_empty(), "{label}: spill files leaked");
        }
    }
    std::fs::remove_dir_all(&spill_dir).ok();
    assert_no_zombies();
}

/// Wait until every worker this test binary forked has been reaped. Polls
/// briefly — concurrently running tests fork workers of their own.
fn assert_no_zombies() {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let zombies = zombie_children();
        if zombies.is_empty() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "unreaped worker processes remain: {zombies:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A batch whose column is not of its declared type — a mapper's output
    /// or a reducer's — fails the stage with one `MrError::IllTyped` naming
    /// where and what, the same on 1, 2 and 4
    /// threads or worker processes, in memory or under a 2 KiB budget. It
    /// is never retried (a retried task that keeps failing surfaces as
    /// `TaskExhausted`, and user code runs at most once per task), and it
    /// leaves nothing behind: no sink, no spill file, no zombie.
    #[test]
    fn an_ill_typed_cell_is_one_named_error_on_every_backend(
        rows in arb_keyed_rows(),
        pick in 0usize..250,
    ) {
        prop_assume!(!rows.is_empty());
        let at = rows[pick % rows.len()].get(0).as_long().unwrap();
        let extents = three_extents(&rows);
        let first_bad_extent = (extents.iter())
            .position(|e| e.iter().any(|r| r.get(0).as_long() == Some(at)))
            .unwrap();
        let spill_dir = std::env::temp_dir().join(format!(
            "timr-backend-ill-typed-{}-{at}",
            std::process::id()
        ));
        std::fs::create_dir_all(&spill_dir).unwrap();
        for plant in [Plant::MapperOutput, Plant::ReducerOutput] {
            let expected_site = match plant {
                Plant::ReducerOutput => "`copy` reduce sink 0 partition ".to_string(),
                Plant::MapperOutput => format!("`copy` map input 0 extent {first_bad_extent}"),
            };
            let mut reference: Option<String> = None;
            for n in [1usize, 2, 4] {
                for backend in [BackendKind::Threads, BackendKind::Processes { workers: n }] {
                    for budget in [None, Some(2 << 10)] {
                        let input = Dataset::partitioned(keyed_schema(), extents.clone());
                        let dfs = Dfs::new();
                        dfs.put("in", input).unwrap();
                        let poisoner = Arc::new(Poisoner { at, calls: AtomicUsize::new(0) });
                        let (stage, tasks) = match plant {
                            Plant::MapperOutput => (
                                copy_stage(Arc::new(IdentityReducer)).with_mapper(poisoner.clone()),
                                extents.len(),
                            ),
                            Plant::ReducerOutput => (copy_stage(poisoner.clone()), 4),
                        };
                        let err = Cluster::with_config(ClusterConfig {
                            threads: n,
                            backend,
                            memory_budget_bytes: budget,
                            spill_dir: Some(spill_dir.clone()),
                            retry: RetryPolicy::no_backoff(4),
                            ..ClusterConfig::default()
                        })
                        .run_stage(&dfs, &stage)
                        .unwrap_err();
                        let label = format!("{plant:?} {backend:?} x{n} budget {budget:?}");
                        let MrError::IllTyped { site, cause } = &err else {
                            panic!("{label}: expected IllTyped, got {err:?}");
                        };
                        prop_assert!(site.starts_with(&expected_site), "{}: {}", label, site);
                        prop_assert_eq!(cause, &RelationError::TypeMismatch {
                            column: "N".into(),
                            expected: "long".into(),
                            actual: "str".into(),
                        });
                        let text = err.to_string();
                        prop_assert_eq!(reference.get_or_insert_with(|| text.clone()), &text, "{}", label);
                        if backend == BackendKind::Threads {
                            prop_assert!(poisoner.calls.load(Ordering::Relaxed) <= tasks, "{}", label);
                        }
                        prop_assert!(!dfs.contains("out"), "{}: sink published", label);
                        let leftovers: Vec<_> = std::fs::read_dir(&spill_dir).unwrap().collect();
                        prop_assert!(leftovers.is_empty(), "{}: spill files leaked: {:?}", label, leftovers);
                    }
                }
            }
        }
        std::fs::remove_dir_all(&spill_dir).ok();
        assert_no_zombies();
    }
}

/// A real SIGKILL in every phase — map, shuffle, and reduce — is invisible
/// in the output: survivors absorb the dead worker's partitions (and the
/// scheduler respawns only when nobody is left).
#[test]
fn sigkill_in_every_phase_is_byte_identical() {
    let rows = deterministic_rows(150);
    let retry = RetryPolicy::no_backoff(3);
    let stage = stage_name();
    let (reference, _) = run_job(&rows, process_config(2, ChaosPlan::none(), retry));
    let chaos = ChaosPlan::none()
        .kill_process(&stage, TaskPhase::Map, 0)
        .kill_process(&stage, TaskPhase::Shuffle, 1)
        .kill_process(&stage, TaskPhase::Reduce, 2);
    let (killed, totals) = run_job(&rows, process_config(2, chaos, retry));
    assert_eq!(killed, reference, "SIGKILL visible in output");
    assert!(
        totals.workers_lost >= 3,
        "expected three real worker deaths, saw {}",
        totals.workers_lost
    );
    assert!(totals.task_retries >= 3);

    // Fewer tasks than workers: the one map task and the one partition are
    // each killed once, and every other worker sits idle when it happens —
    // one of them must still pull the retry.
    let (reference, _) = run_job_shaped(&rows, 1, 1, process_config(2, ChaosPlan::none(), retry));
    for phase in [TaskPhase::Map, TaskPhase::Shuffle, TaskPhase::Reduce] {
        for workers in [2, 4] {
            let chaos = ChaosPlan::none().kill_process(&stage, phase, 0);
            let (killed, totals) =
                run_job_shaped(&rows, 1, 1, process_config(workers, chaos, retry));
            let label = format!("{phase} x{workers}");
            assert_eq!(killed, reference, "{label}: SIGKILL visible in output");
            assert_eq!(totals.workers_lost, 1, "{label}");
            assert_eq!(totals.task_retries, 1, "{label}");
        }
    }
    // Both workers of two lose their child in the map phase's first wave;
    // the single reduce partition still finds someone to run it.
    let chaos = ChaosPlan::none()
        .kill_process(&stage, TaskPhase::Map, 0)
        .kill_process(&stage, TaskPhase::Map, 1);
    let (reference, _) = run_job_shaped(&rows, 2, 1, process_config(2, ChaosPlan::none(), retry));
    let (killed, totals) = run_job_shaped(&rows, 2, 1, process_config(2, chaos, retry));
    assert_eq!(killed, reference, "a fleet wiped out in map is visible");
    assert_eq!(totals.workers_lost, 2);
    assert_no_zombies();
}

/// An injected straggler triggers speculative re-execution on worker
/// processes; the duplicate (which skips the injected sleep) wins, and the
/// race never changes output bytes. A pool thread is never handed a
/// duplicate — it could not be reclaimed — and simply sleeps the straggle.
#[test]
fn straggler_speculation_is_deterministic() {
    let rows = deterministic_rows(120);
    let retry = RetryPolicy::no_backoff(3);
    let stage = stage_name();
    let (reference, _) = run_job(&rows, process_config(3, ChaosPlan::none(), retry));
    let chaos =
        ChaosPlan::none().straggle(&stage, TaskPhase::Reduce, 3, Duration::from_millis(400));
    for backend in [BackendKind::Threads, BackendKind::Processes { workers: 3 }] {
        let config = ClusterConfig {
            backend,
            threads: 3,
            speculation: SpeculationPolicy {
                enabled: true,
                latency_factor: 2.0,
                min_lag: Duration::from_millis(20),
                min_completed: 2,
            },
            ..process_config(3, chaos.clone(), retry)
        };
        let (speculated, totals) = run_job(&rows, config);
        assert_eq!(
            speculated, reference,
            "{backend:?}: a straggler changed output bytes"
        );
        if backend == BackendKind::Threads {
            assert_eq!(
                totals.speculative_launched, 0,
                "a thread cannot be reclaimed"
            );
            continue;
        }
        assert!(
            totals.speculative_launched >= 1,
            "no speculative duplicate launched for a 400ms straggler"
        );
        assert!(
            totals.speculative_wins >= 1,
            "the duplicate should beat a 400ms straggler"
        );
    }
    assert_no_zombies();
}

/// A result frame corrupted on the wire (byte flipped after the checksum
/// was computed) is caught by frame verification and re-executed.
#[test]
fn wire_corruption_is_caught_and_retried() {
    let rows = deterministic_rows(130);
    let retry = RetryPolicy::no_backoff(3);
    let stage = stage_name();
    let (reference, _) = run_job(&rows, process_config(2, ChaosPlan::none(), retry));
    let chaos = ChaosPlan::none()
        .corrupt_wire(&stage, TaskPhase::Map, 0)
        .corrupt_wire(&stage, TaskPhase::Reduce, 1)
        .delay_wire(&stage, TaskPhase::Reduce, 0, Duration::from_millis(30));
    let (corrupted, totals) = run_job(&rows, process_config(2, chaos, retry));
    assert_eq!(corrupted, reference, "wire corruption visible in output");
    assert!(
        totals.corruption_detected >= 2,
        "both damaged frames must be detected, saw {}",
        totals.corruption_detected
    );
    assert!(totals.task_retries >= 2);
}

/// `RetryPolicy::attempt_timeout` is enforced on both worker kinds with the
/// same observable outcome: a copy past the deadline is charged as
/// `TimedOut` and re-executed (the injected straggle applies to attempt 0
/// only, so the retry completes). A worker process is preempted — a real
/// SIGKILL; a pool thread cannot be, so its late result is discarded.
#[test]
fn attempt_timeout_preempts_stragglers() {
    let rows = deterministic_rows(110);
    let stage = stage_name();
    let retry = RetryPolicy::no_backoff(3).with_attempt_timeout(Duration::from_millis(80));
    let (reference, _) = run_job(&rows, process_config(2, ChaosPlan::none(), retry));
    let chaos =
        ChaosPlan::none().straggle(&stage, TaskPhase::Reduce, 0, Duration::from_millis(500));
    for backend in WORKER_KINDS {
        let config = ClusterConfig {
            backend,
            speculation: SpeculationPolicy {
                enabled: false,
                ..SpeculationPolicy::default()
            },
            ..process_config(2, chaos.clone(), retry)
        };
        let (timed, totals) = run_job(&rows, config);
        assert_eq!(
            timed, reference,
            "{backend:?}: timeout recovery changed output bytes"
        );
        assert!(
            totals.tasks_timed_out >= 1,
            "{backend:?}: a 500ms straggler must trip an 80ms attempt timeout"
        );
        assert!(totals.task_retries >= 1, "{backend:?}");
        assert_eq!(totals.speculative_launched, 0, "{backend:?}");
        if backend == BackendKind::Threads {
            assert_eq!(totals.workers_lost, 0, "a thread is not a worker to lose");
        } else {
            assert!(totals.workers_lost >= 1, "the preemption is a real SIGKILL");
        }
    }
}

/// Passes rows through, but the first attempt at partition 1 stops its own
/// process — every thread of it, the heartbeat thread included.
#[derive(Debug)]
struct StopOnce;

impl Reducer for StopOnce {
    fn output_schema(&self, inputs: &[Schema]) -> timr_suite::mapreduce::Result<Schema> {
        Ok(inputs[0].clone())
    }

    fn reduce(
        &self,
        ctx: &ReducerContext,
        inputs: Vec<ColumnBatch>,
    ) -> timr_suite::mapreduce::Result<Vec<ColumnBatch>> {
        extern "C" {
            fn getpid() -> i32;
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGSTOP: i32 = 19;
        if ctx.partition == 1 && !ctx.is_retry() {
            // SAFETY: plain libc calls on this process's own pid.
            unsafe { kill(getpid(), SIGSTOP) };
        }
        Ok(inputs)
    }
}

/// A worker that goes silent without dying — stopped, not killed, so its
/// socket stays open — is declared dead at the heartbeat deadline,
/// SIGKILLed and reaped, and its partition is absorbed by the survivor.
#[test]
fn a_silent_worker_is_declared_dead_at_the_heartbeat_deadline() {
    let rows: Vec<Row> = (0..300i64)
        .map(|i| row![i * 7 % 1000, format!("u{}", i % 9), i * 3])
        .collect();
    let clean = publish(&rows, ClusterConfig::default());
    let config = ClusterConfig {
        speculation: SpeculationPolicy {
            enabled: false,
            ..SpeculationPolicy::default()
        },
        ..process_config(2, ChaosPlan::none(), RetryPolicy::no_backoff(3))
    };
    let (survived, totals) = publish_through(Arc::new(StopOnce), &rows, config);
    assert_eq!(survived, clean, "a stopped worker changed output bytes");
    assert!(totals.heartbeats_missed >= 1, "the silence went unnoticed");
    assert!(totals.workers_lost >= 1);
    assert!(totals.task_retries >= 1);
    assert_no_zombies();
}

/// A task that runs out of attempts fails the stage with the same error —
/// stage, phase, partition, attempt count and last failure — whoever ran
/// it, and publishes nothing.
#[test]
fn exhaustion_is_the_same_error_on_every_worker_kind() {
    let rows: Vec<Row> = (0..90i64)
        .map(|i| row![i, format!("u{}", i % 9), i * 3])
        .collect();
    let run = |backend: BackendKind, chaos: ChaosPlan, attempts: usize| {
        let dfs = Dfs::new();
        dfs.put(
            "in",
            Dataset::partitioned(keyed_schema(), three_extents(&rows)),
        )
        .unwrap();
        let err = Cluster::with_config(ClusterConfig {
            backend,
            threads: 2,
            chaos,
            retry: RetryPolicy::no_backoff(attempts),
            ..ClusterConfig::default()
        })
        .run_stage(&dfs, &copy_stage(Arc::new(IdentityReducer)))
        .unwrap_err();
        assert!(
            !dfs.contains("out"),
            "{backend:?}: partial output published"
        );
        err
    };
    // An explicit kill fails one task's only attempt; seeded transients
    // fail every attempt of every task, so the lowest index is reported.
    let cases = [
        (
            ChaosPlan::none().kill("copy", TaskPhase::Map, 2),
            1,
            TaskPhase::Map,
            2,
        ),
        (
            ChaosPlan::none().kill("copy", TaskPhase::Shuffle, 1),
            1,
            TaskPhase::Shuffle,
            1,
        ),
        (
            ChaosPlan::none().kill("copy", TaskPhase::Reduce, 3),
            1,
            TaskPhase::Reduce,
            3,
        ),
        (
            ChaosPlan::seeded(7).with_transients(1.0),
            2,
            TaskPhase::Map,
            0,
        ),
    ];
    for (chaos, attempts, phase, task) in cases {
        let [on_threads, forked] = WORKER_KINDS.map(|kind| run(kind, chaos.clone(), attempts));
        assert_eq!(on_threads, forked, "{phase} task {task}");
        let MrError::TaskExhausted {
            stage,
            phase: charged,
            partition,
            attempts: made,
            ..
        } = &forked
        else {
            panic!("expected TaskExhausted, got {forked:?}");
        };
        assert_eq!(
            (stage.as_str(), *charged, *partition, *made),
            ("copy", phase, task, attempts)
        );
    }
    assert_no_zombies();
}

/// Budgeted shuffles spill through the process backend too: chunks ship
/// to workers as extent images read back from the spill files, kills
/// mid-run leave no stray spill files behind, and teardown reaps every
/// worker (no zombie children linger).
#[test]
fn spills_and_workers_are_cleaned_up() {
    let spill_dir = std::env::temp_dir().join(format!("timr-backend-spill-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).unwrap();
    let rows = deterministic_rows(160);
    let stage = stage_name();
    let retry = RetryPolicy::no_backoff(3);
    let (reference, _) = run_job(&rows, process_config(2, ChaosPlan::none(), retry));
    let chaos = ChaosPlan::none()
        .kill_process(&stage, TaskPhase::Reduce, 0)
        .corrupt(&stage, TaskPhase::Shuffle, 1);
    let config = ClusterConfig {
        memory_budget_bytes: Some(2 << 10),
        spill_dir: Some(spill_dir.clone()),
        ..process_config(2, chaos, retry)
    };
    let (spilled, totals) = run_job(&rows, config);
    assert_eq!(spilled, reference, "spilled chaos run diverged");
    assert!(totals.workers_lost >= 1);
    let leftovers: Vec<_> = std::fs::read_dir(&spill_dir).unwrap().collect();
    assert!(leftovers.is_empty(), "spill files leaked: {leftovers:?}");
    std::fs::remove_dir_all(&spill_dir).ok();
    assert_no_zombies();
}

/// Child processes of this test binary in state Z (dead but not reaped).
fn zombie_children() -> Vec<i32> {
    let me = std::process::id() as i32;
    let mut zombies = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return zombies;
    };
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<i32>().ok())
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // Fields after the parenthesized command: state, ppid, ...
        let Some(rest) = stat.rsplit(')').next() else {
            continue;
        };
        let mut fields = rest.split_whitespace();
        let state = fields.next().unwrap_or("");
        let ppid: i32 = fields.next().and_then(|p| p.parse().ok()).unwrap_or(-1);
        if ppid == me && state == "Z" {
            zombies.push(pid);
        }
    }
    zombies
}
