//! Multi-process backend equivalence tests: the process backend — real
//! worker OS processes exchanging binary extent images over Unix-domain
//! sockets — must produce datasets byte-identical to the in-process
//! thread pool (itself equal to the single-node reference DSMS on the same
//! events, paper §III-C.1), at any worker count, and under real
//! process-kill chaos (SIGKILL mid-task in every phase),
//! socket-level corruption, injected stragglers with speculative
//! re-execution, and preemptive attempt timeouts. A row that does not
//! inhabit its schema fails both backends with the same named error.

#![cfg(unix)]

mod common;

use common::reference_relation;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use timr_suite::mapreduce::job::IdentityReducer;
use timr_suite::mapreduce::{
    BackendKind, ChaosPlan, Cluster, ClusterConfig, Dataset, Dfs, FaultTotals, Mapper,
    MapperContext, MrError, Partitioner, Reducer, ReducerContext, RetryPolicy, SpeculationPolicy,
    Stage, TaskPhase,
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

fn run_job(rows: &[Row], config: ClusterConfig) -> (Vec<Vec<Row>>, FaultTotals) {
    let dfs = dfs_with(rows, 3);
    let cluster = Cluster::with_config(config);
    let out = click_count_job().run(&dfs, &cluster).unwrap();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The thread pool's output is the relation the single-node reference
    /// DSMS computes from the same events, and the process backend is
    /// byte-identical to the thread pool at 1, 2, and 4 workers, clean and
    /// under a seeded chaos schedule that includes real process kills.
    #[test]
    fn process_backend_matches_threads_and_the_reference(
        n in 40i64..120,
        seed in 0u64..1_000_000,
    ) {
        let rows = deterministic_rows(n);
        let chaos = ChaosPlan::seeded(seed)
            .with_transients(0.10)
            .with_corruption(0.08)
            .with_process_kills(0.10)
            .with_fault_cap(2);
        let retry = RetryPolicy::no_backoff(4);
        let (threads, totals) = run_job(
            &rows,
            ClusterConfig {
                threads: 4,
                chaos: ChaosPlan::none(),
                retry,
                ..ClusterConfig::default()
            },
        );
        prop_assert_eq!(totals.task_retries, 0);
        let plan = click_count_job().plan;
        let scaled_out = EventEncoding::Interval
            .decode_stream(threads.iter().flatten(), plan.schema_of(plan.roots()[0]))
            .unwrap()
            .normalize();
        prop_assert!(
            scaled_out.same_relation(&reference_relation(&plan, "logs", &payload(), &rows)),
            "thread-pool output differs from the single-node reference"
        );
        for workers in [1usize, 2, 4] {
            let (clean, _) = run_job(&rows, process_config(workers, ChaosPlan::none(), retry));
            prop_assert_eq!(
                &clean, &threads,
                "clean process run diverged (workers {})", workers
            );
            let (chaotic, _) = run_job(&rows, process_config(workers, chaos.clone(), retry));
            prop_assert_eq!(
                &chaotic, &threads,
                "chaos visible in output (workers {}, seed {})", workers, seed
            );
        }
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

/// What one stage published: per reduce partition, its rows and its stored
/// binary image.
type Published = Vec<(Vec<Row>, Vec<u8>)>;

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
    let published = (out.partitions.iter().enumerate())
        .map(|(i, rows)| (rows.clone(), out.binary_extent(i).unwrap().to_vec()))
        .collect();
    (published, stats.fault_totals())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Tasks seal what they publish, so the published rows *and* stored
    /// extent images must not depend on who ran the tasks or where the
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

/// Where an ill-typed cell is planted.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plant {
    SourceExtent,
    MapperOutput,
    ReducerOutput,
}

/// `rows` with a string in the `Long` column `N` of every row stamped `at`.
fn poison(rows: &[Row], at: i64) -> Vec<Row> {
    let bad = |r: &Row| Row::new(vec![r.get(0).clone(), r.get(1).clone(), Value::str("x")]);
    (rows.iter())
        .map(|r| match r.get(0).as_long() {
            Some(t) if t == at => bad(r),
            _ => r.clone(),
        })
        .collect()
}

/// A mapper and a reducer that pass rows through, poisoned; `calls`
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
        rows: &[Row],
    ) -> timr_suite::mapreduce::Result<Option<Vec<Row>>> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Ok(Some(poison(rows, self.at)))
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
    ) -> timr_suite::mapreduce::Result<Vec<Vec<Row>>> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Ok(vec![poison(&inputs[0].to_rows(), self.at)])
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
    ) -> timr_suite::mapreduce::Result<Vec<Vec<Row>>> {
        let rows: Vec<Row> = inputs.into_iter().flat_map(|b| b.to_rows()).collect();
        assert!(ctx.is_retry(), "attempt 0 consumed its inputs, then failed");
        Ok(vec![rows])
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

    /// A cell that does not inhabit its column — in a source extent, in a
    /// mapper's output or in a reducer's output — fails the stage with one
    /// `MrError::IllTyped` naming where and what, the same on 1, 2 and 4
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
        for plant in [Plant::SourceExtent, Plant::MapperOutput, Plant::ReducerOutput] {
            let expected_site = match plant {
                Plant::ReducerOutput => "`copy` reduce sink 0 partition ".to_string(),
                _ => format!("`copy` map input 0 extent {first_bad_extent}"),
            };
            let mut reference: Option<String> = None;
            for n in [1usize, 2, 4] {
                for backend in [BackendKind::Threads, BackendKind::Processes { workers: n }] {
                    for budget in [None, Some(2 << 10)] {
                        let mut input = Dataset::partitioned(keyed_schema(), extents.clone());
                        if plant == Plant::SourceExtent {
                            input.partitions = Arc::new(three_extents(&poison(&rows, at)));
                        }
                        let dfs = Dfs::new();
                        dfs.put("in", input).unwrap();
                        let poisoner = Arc::new(Poisoner { at, calls: AtomicUsize::new(0) });
                        let (stage, tasks) = match plant {
                            Plant::SourceExtent => (copy_stage(Arc::new(IdentityReducer)), 0),
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
}

/// An injected straggler triggers speculative re-execution; the duplicate
/// (which skips the injected sleep) wins, and the race never changes
/// output bytes.
#[test]
fn straggler_speculation_is_deterministic() {
    let rows = deterministic_rows(120);
    let retry = RetryPolicy::no_backoff(3);
    let stage = stage_name();
    let (reference, _) = run_job(&rows, process_config(3, ChaosPlan::none(), retry));
    let chaos =
        ChaosPlan::none().straggle(&stage, TaskPhase::Reduce, 3, Duration::from_millis(400));
    let config = ClusterConfig {
        speculation: SpeculationPolicy {
            enabled: true,
            latency_factor: 2.0,
            min_lag: Duration::from_millis(20),
            min_completed: 2,
        },
        ..process_config(3, chaos, retry)
    };
    let (speculated, totals) = run_job(&rows, config);
    assert_eq!(speculated, reference, "speculation changed output bytes");
    assert!(
        totals.speculative_launched >= 1,
        "no speculative duplicate launched for a 400ms straggler"
    );
    assert!(
        totals.speculative_wins >= 1,
        "the duplicate should beat a 400ms straggler"
    );
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

/// `RetryPolicy::attempt_timeout` on the process backend is preemptive: a
/// copy running past the deadline is SIGKILLed, charged as `TimedOut`,
/// and re-executed (the injected straggle applies to attempt 0 only, so
/// the retry completes).
#[test]
fn attempt_timeout_preempts_stragglers() {
    let rows = deterministic_rows(110);
    let stage = stage_name();
    let retry = RetryPolicy::no_backoff(3).with_attempt_timeout(Duration::from_millis(80));
    let (reference, _) = run_job(&rows, process_config(2, ChaosPlan::none(), retry));
    let chaos =
        ChaosPlan::none().straggle(&stage, TaskPhase::Reduce, 0, Duration::from_millis(500));
    let config = ClusterConfig {
        speculation: SpeculationPolicy {
            enabled: false,
            ..SpeculationPolicy::default()
        },
        ..process_config(2, chaos, retry)
    };
    let (timed, totals) = run_job(&rows, config);
    assert_eq!(timed, reference, "timeout recovery changed output bytes");
    assert!(
        totals.tasks_timed_out >= 1,
        "a 500ms straggler must trip an 80ms attempt timeout"
    );
    assert!(totals.workers_lost >= 1, "the preemption is a real SIGKILL");
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
