//! Chaos-engineering property tests (paper §III-C.1): under any seeded
//! schedule of injected panics, transient kills, corruption, and delays
//! that does not exhaust the retry budget, TiMR's output is byte-identical
//! to a fault-free run — at 1 and N threads — and the fault-free run
//! equals the oracle on the same events. The property is
//! `tests/common/harness.rs`'s, with chaos pinned on; the tests below it
//! pin the fault kinds, corruption and exhaustion.

mod common;

use common::harness::{arb_case, check, Dim};
use proptest::prelude::*;
use std::time::Duration;
use timr_suite::mapreduce::{
    ChaosPlan, Cluster, ClusterConfig, Dataset, Dfs, RetryPolicy, StoredExtent, TaskPhase,
};
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{row, Row, Schema};
use timr_suite::temporal::expr::{col, lit};
use timr_suite::temporal::Query;
use timr_suite::timr::{Annotation, EventEncoding, ExchangeKey, TimrJob};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seeded chaos schedule below the retry budget yields output
    /// byte-identical to the fault-free baseline, whatever else the
    /// configuration varies — and the baseline is the relation the oracle
    /// computes from the same events (paper §III-C.1: scaled-out execution
    /// ≡ the single-node DSMS under any restart).
    #[test]
    fn chaos_is_invisible_in_output(case in arb_case(&[Dim::Chaos], 3)) {
        check(&case)?;
    }
}

fn payload() -> Schema {
    Schema::new(vec![
        Field::new("StreamId", ColumnType::Int),
        Field::new("UserId", ColumnType::Str),
        Field::new("KwAdId", ColumnType::Str),
    ])
}

fn click_count_plan() -> (timr_suite::temporal::LogicalPlan, usize) {
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
    (plan, filter)
}

/// Store the log as several extents so the map phase has multiple tasks
/// (and the chaos engine can target each one independently).
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

/// Run the click-count job and return the raw output partitions plus the
/// job's fault totals.
fn run_job(
    rows: &[Row],
    threads: usize,
    chaos: ChaosPlan,
    retry: RetryPolicy,
) -> (Vec<StoredExtent>, timr_suite::mapreduce::FaultTotals) {
    let (plan, filter) = click_count_plan();
    let ann = Annotation::none().exchange(filter, 0, ExchangeKey::keys(&["KwAdId"]));
    let dfs = dfs_with(rows, 3);
    let cluster = Cluster::with_config(ClusterConfig {
        threads,
        chaos,
        retry,
        ..ClusterConfig::default()
    });
    let out = TimrJob::new("p", plan)
        .with_annotation(ann)
        .with_machines(4)
        .run(&dfs, &cluster)
        .unwrap();
    (
        dfs.get(&out.dataset).unwrap().partitions.as_ref().clone(),
        out.stats.fault_totals(),
    )
}

/// The standard chaos schedule used by tests and the pr5 experiment:
/// every fault kind enabled, capped at attempt 2 so a 4-attempt retry
/// budget always converges.
fn standard_chaos(seed: u64) -> ChaosPlan {
    ChaosPlan::seeded(seed)
        .with_panics(0.15)
        .with_transients(0.15)
        .with_corruption(0.12)
        .with_delays(0.10, Duration::from_micros(200))
        .with_fault_cap(2)
}

/// A fixed seed drives every fault kind at least once across a handful of
/// runs, and the counters in the job summary prove each containment path
/// actually executed.
#[test]
fn standard_schedule_exercises_every_fault_kind() {
    let rows = deterministic_rows(200);
    let retry = RetryPolicy::no_backoff(4);
    let (clean, _) = run_job(&rows, 1, ChaosPlan::none(), retry);
    let mut totals = timr_suite::mapreduce::FaultTotals::default();
    for seed in 0..6u64 {
        let (out, faults) = run_job(&rows, 4, standard_chaos(seed), retry);
        assert_eq!(clean, out, "seed {seed} changed output");
        totals.task_retries += faults.task_retries;
        totals.panics_contained += faults.panics_contained;
        totals.transient_faults += faults.transient_faults;
        totals.corruption_detected += faults.corruption_detected;
        totals.delays_injected += faults.delays_injected;
    }
    assert!(totals.panics_contained > 0, "no panic was ever injected");
    assert!(
        totals.transient_faults > 0,
        "no transient fault was injected"
    );
    assert!(totals.corruption_detected > 0, "no corruption was detected");
    assert!(totals.delays_injected > 0, "no delay was injected");
    assert!(totals.task_retries > 0, "nothing was retried");
}

/// Explicit corruption of a shuffle partition is detected by the integrity
/// frames — never silently decoded — and recovered by re-execution.
#[test]
fn explicit_shuffle_corruption_is_detected_and_recovered() {
    let rows = deterministic_rows(240);
    let (plan, _) = click_count_plan();
    let stage = format!("p/f{}", plan.roots()[0]);
    let retry = RetryPolicy::no_backoff(3);
    let (clean, _) = run_job(&rows, 1, ChaosPlan::none(), retry);
    for threads in [1usize, 4] {
        let chaos = ChaosPlan::none()
            .corrupt(&stage, TaskPhase::Shuffle, 1)
            .corrupt(&stage, TaskPhase::Map, 0);
        let (out, faults) = run_job(&rows, threads, chaos, retry);
        assert_eq!(
            clean, out,
            "corruption leaked into output at {threads} threads"
        );
        assert!(
            faults.corruption_detected >= 1,
            "corruption went undetected at {threads} threads: {faults:?}"
        );
        assert!(
            faults.task_retries >= 1,
            "no recovery re-execution happened"
        );
    }
}

/// When chaos exceeds the retry budget the job fails with the same
/// deterministic error — naming stage, phase, partition, and attempt
/// count — at any thread count, and publishes no partial output.
#[test]
fn exhaustion_is_deterministic_across_threads() {
    let rows = deterministic_rows(120);
    let (plan, filter) = click_count_plan();
    let ann = Annotation::none().exchange(filter, 0, ExchangeKey::keys(&["KwAdId"]));
    let run = |threads: usize| {
        let dfs = dfs_with(&rows, 3);
        let cluster = Cluster::with_config(ClusterConfig {
            threads,
            chaos: ChaosPlan::seeded(9).with_transients(1.0),
            retry: RetryPolicy::no_backoff(2),
            ..ClusterConfig::default()
        });
        let err = TimrJob::new("p", plan.clone())
            .with_annotation(ann.clone())
            .with_machines(4)
            .run(&dfs, &cluster)
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            !dfs.contains(&format!("p/f{}", plan.roots()[0])),
            "partial output of a failed stage must not be published"
        );
        msg
    };
    let serial = run(1);
    assert!(
        serial.contains("after 2 attempt(s)"),
        "error must name the attempt budget: {serial}"
    );
    assert_eq!(
        serial,
        run(8),
        "exhaustion error differs across thread counts"
    );
}
