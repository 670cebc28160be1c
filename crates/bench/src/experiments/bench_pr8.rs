//! PR 8 acceptance benchmark: shared multi-query execution vs N
//! independent jobs.
//!
//! The workload is the advertiser-dashboard set
//! ([`bt::queries::advertisers`]): every query scans the same log, runs
//! the same bot elimination (paper §IV-B.1), and differs only in its
//! hopping-window cadence and ad filter. Independently, each of N queries
//! is one TiMR job that re-pays the scan + bot-elimination + shuffle cost;
//! shared, the whole set is ONE job — the common prefix merged by
//! [`temporal::plan::share_plans`], the harmonic cadences collapsed by the
//! factor-window rewrite, and each query's rows routed to its own sink.
//!
//! For each query count the experiment measures both sides' stage wall
//! time and verifies, per query, that the shared run's DFS partitions are
//! **byte-identical** to the independent run's. At the smallest multi-query
//! count every query is also checked against the single-node reference
//! DSMS (`execute_reference`). Results go to
//! `BENCH_PR8.json`; the headline is the shared-vs-independent speedup at
//! 16 queries (acceptance: ≥2x).
//!
//! `TIMR_PR8_QUERIES=1,4,16,64` overrides the measured counts.

use crate::table::Table;
use bt::queries::advertisers::{advertiser_query, shared_job};
use mapreduce::Dfs;
use std::time::Duration;
use timr::multi::{MultiTimrJob, MultiTimrOutput};
use timr::ExchangeKey;

/// Query counts to measure (`TIMR_PR8_QUERIES` overrides).
fn counts() -> Vec<usize> {
    std::env::var("TIMR_PR8_QUERIES")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n| n > 0)
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 4, 16, 64])
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Interleaved repetitions; fewer at large counts where the independent
/// side alone runs N full jobs.
fn reps(n: usize) -> usize {
    if n <= 4 {
        3
    } else {
        1
    }
}

struct Side {
    wall: Duration,
    /// Raw output partitions per query, from the *last* run (identical
    /// across runs by the determinism contract).
    bytes: Vec<Vec<mapreduce::StoredExtent>>,
}

fn job_wall(out: &MultiTimrOutput) -> Duration {
    out.stats.stages.iter().map(|s| s.wall_time).sum()
}

fn collect_bytes(dfs: &Dfs, datasets: &[String]) -> Vec<Vec<mapreduce::StoredExtent>> {
    datasets
        .iter()
        .map(|d| dfs.get(d).unwrap().partitions.as_ref().clone())
        .collect()
}

/// One shared run of `n` queries.
fn run_shared(
    params: &bt::BtParams,
    dfs: &Dfs,
    cluster: &mapreduce::Cluster,
    n: usize,
) -> (MultiTimrOutput, Vec<Vec<mapreduce::StoredExtent>>) {
    let out = shared_job(params, n)
        .run(dfs, cluster)
        .expect("shared job runs");
    let bytes = collect_bytes(dfs, &out.datasets);
    (out, bytes)
}

/// `n` independent single-query jobs; returns total wall + per-query bytes.
fn run_independent(
    params: &bt::BtParams,
    dfs: &Dfs,
    cluster: &mapreduce::Cluster,
    n: usize,
) -> Side {
    let mut wall = Duration::ZERO;
    let mut bytes = Vec::with_capacity(n);
    for i in 0..n {
        let out = MultiTimrJob::new(format!("adv_solo{i}"), vec![advertiser_query(params, i)])
            .with_key(ExchangeKey::keys(&["UserId"]))
            .with_machines(params.machines)
            .run(dfs, cluster)
            .expect("independent job runs");
        wall += job_wall(&out);
        bytes.extend(collect_bytes(dfs, &out.datasets));
    }
    Side { wall, bytes }
}

/// Run the experiment.
pub fn run(ctx: &mut super::Ctx) -> String {
    let params = ctx.workload.bt_params();
    let dfs = &ctx.workload.dfs;
    let cluster = &ctx.workload.cluster;
    let counts = counts();
    let log_rows = dfs.get("logs").expect("workload log").len();

    let mut table = Table::new(&[
        "Queries",
        "Independent ms",
        "Shared ms",
        "Speedup",
        "Nodes merged",
        "Factored",
    ]);
    let mut json_counts = Vec::new();
    let mut speedup_at_16 = 0.0f64;

    for &n in &counts {
        // Interleave shared/independent repetitions and keep each side's
        // fastest run, so transient noise lands on both sides evenly.
        let mut best_shared: Option<(MultiTimrOutput, Vec<_>)> = None;
        let mut best_indep: Option<Side> = None;
        for _ in 0..reps(n) {
            let (out, bytes) = run_shared(&params, dfs, cluster, n);
            best_shared = Some(match best_shared {
                Some(prev) if job_wall(&prev.0) <= job_wall(&out) => prev,
                _ => (out, bytes),
            });
            let side = run_independent(&params, dfs, cluster, n);
            best_indep = Some(match best_indep {
                Some(prev) if prev.wall <= side.wall => prev,
                _ => side,
            });
        }
        let (shared, shared_bytes) = best_shared.expect("reps > 0");
        let indep = best_indep.expect("reps > 0");

        assert_eq!(
            shared_bytes, indep.bytes,
            "{n} queries: shared and independent outputs must be byte-identical"
        );

        let speedup = indep.wall.as_secs_f64() / job_wall(&shared).as_secs_f64().max(1e-9);
        if n == 16 {
            speedup_at_16 = speedup;
        }
        table.row(vec![
            n.to_string(),
            format!("{:.1}", ms(indep.wall)),
            format!("{:.1}", ms(job_wall(&shared))),
            format!("{speedup:.2}x"),
            format!(
                "{} → {}",
                shared.shared.input_nodes, shared.shared.merged_nodes
            ),
            shared.factored_groups.to_string(),
        ]);
        json_counts.push(serde_json::Value::Object(vec![
            ("queries".into(), serde_json::Value::UInt(n as u64)),
            (
                "independent_ms".into(),
                serde_json::Value::Float(ms(indep.wall)),
            ),
            (
                "shared_ms".into(),
                serde_json::Value::Float(ms(job_wall(&shared))),
            ),
            ("speedup".into(), serde_json::Value::Float(speedup)),
            (
                "input_nodes".into(),
                serde_json::Value::UInt(shared.shared.input_nodes as u64),
            ),
            (
                "merged_nodes".into(),
                serde_json::Value::UInt(shared.shared.merged_nodes as u64),
            ),
            (
                "shared_nodes".into(),
                serde_json::Value::UInt(shared.shared.shared_nodes as u64),
            ),
            (
                "factored_groups".into(),
                serde_json::Value::UInt(shared.factored_groups as u64),
            ),
        ]));
    }

    // Reference anchor at the smallest multi-query count: every query of
    // the scaled-out shared run must be the relation the single-node
    // reference DSMS computes from the same log.
    let anchor_n = counts.iter().copied().find(|&n| n > 1).unwrap_or(1);
    let (anchor, _) = run_shared(&params, dfs, cluster, anchor_n);
    let encodings = shared_job(&params, anchor_n).source_encodings;
    for i in 0..anchor_n {
        let reference = super::reference_relation(dfs, &advertiser_query(&params, i), &encodings);
        assert!(
            timr::read_output(dfs, &anchor.datasets[i])
                .expect("query output decodes")
                .same_relation(&reference),
            "shared query {i} must equal the single-node reference DSMS"
        );
    }

    let json = serde_json::Value::Object(vec![
        ("experiment".into(), serde_json::Value::Str("pr8".into())),
        ("log_rows".into(), serde_json::Value::UInt(log_rows as u64)),
        ("byte_identical".into(), serde_json::Value::Bool(true)),
        ("counts".into(), serde_json::Value::Array(json_counts)),
        (
            "speedup_at_16".into(),
            serde_json::Value::Float(speedup_at_16),
        ),
        (
            "speedup_ge_2x_at_16".into(),
            serde_json::Value::Bool(speedup_at_16 >= 2.0),
        ),
    ]);
    let rendered = serde_json::to_string_pretty(&json).expect("value serializes");
    if let Err(e) = std::fs::write("BENCH_PR8.json", format!("{rendered}\n")) {
        eprintln!("warning: could not write BENCH_PR8.json: {e}");
    }

    format!(
        "PR 8 — shared multi-query execution vs independent jobs over {log_rows} log rows \
         (written to BENCH_PR8.json):\n{}\
         per-query outputs byte-identical shared vs independent, equal to the single-node \
         reference at n={anchor_n}; \
         speedup at 16 queries: {speedup_at_16:.2}x\n",
        table.render(),
    )
}
