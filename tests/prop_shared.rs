//! Property tests for shared multi-query execution (PR 8): running N
//! queries through one [`MultiTimrJob`] — common prefixes merged, harmonic
//! hopping windows factored — must be *byte-identical*, per query, to N
//! independent jobs, equal to the oracle on the same events (paper
//! §III-C.1), invisible to chaos, and must propagate a runtime error
//! exactly like an independent run (with no partial output published).
//! The properties are `tests/common/harness.rs`'s, with sharing pinned on.

mod common;

use common::harness::{arb_case, check, member_plan, payload, AggKind, Dim, Member, CANONICAL};
use proptest::prelude::*;
use timr_suite::mapreduce::{ChaosPlan, Cluster, ClusterConfig, Dataset, Dfs, RetryPolicy};
use timr_suite::relation::{row, Row, Value};
use timr_suite::timr::multi::MultiTimrJob;
use timr_suite::timr::{EventEncoding, ExchangeKey};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shared execution is byte-identical to independent execution (the
    /// baseline) for every member, and each member's scaled-out output is
    /// the relation the oracle computes from the same events — whatever
    /// else the configuration varies.
    #[test]
    fn shared_equals_independent_and_the_reference_per_query(
        case in arb_case(&[Dim::Shared], 3),
    ) {
        check(&case)?;
    }

    /// Chaos below the retry budget never changes any query's bytes in a
    /// shared run.
    #[test]
    fn chaos_is_invisible_per_query(case in arb_case(&[Dim::Shared, Dim::Chaos], 3)) {
        check(&case)?;
    }
}

/// A counting member over (user, ad) windows.
fn member(hop_mult: i64, width_mult: i64, ad: usize) -> Member {
    Member {
        hop_mult,
        width_mult,
        ad,
        agg: AggKind::Count,
        narrow: false,
        slide: false,
    }
}

/// `n` log rows; row `null_time_at` (if any) has a null `Time` cell — it
/// inhabits the schema, so it is stored and shuffled like any other row,
/// but no event can be decoded from it (the classic dirty-log failure).
fn deterministic_rows(n: i64, null_time_at: Option<i64>) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let mut r = row![
                i * 7 % 500,
                (1 + i % 2) as i32,
                format!("u{}", i % 11),
                format!("ad{}", i % 5),
                i % 50
            ];
            if null_time_at == Some(i) {
                r.values_mut()[0] = Value::Null;
            }
            r
        })
        .collect()
}

fn dfs_with(rows: &[Row]) -> Dfs {
    let parts: Vec<Vec<Row>> = rows.chunks(40).map(|c| c.to_vec()).collect();
    let dfs = Dfs::new();
    let schema = EventEncoding::Point.dataset_schema(&payload(&CANONICAL));
    dfs.put("logs", Dataset::partitioned(schema, parts))
        .unwrap();
    dfs
}

fn job(name: &str, members: &[Member]) -> MultiTimrJob {
    let plans = (members.iter())
        .map(|m| member_plan(m, &CANONICAL))
        .collect();
    MultiTimrJob::new(name, plans)
        .with_key(ExchangeKey::keys(&["UserId"]))
        .with_machines(3)
}

fn cluster(threads: usize) -> Cluster {
    Cluster::with_config(ClusterConfig {
        threads,
        chaos: ChaosPlan::none(),
        retry: RetryPolicy::no_backoff(4),
        ..ClusterConfig::default()
    })
}

/// A runtime error fails the shared job with the same error an independent
/// run of each member produces — the error the single-node input decode
/// raises on the same rows — and publishes no output for ANY query
/// (all-or-nothing, like a single stage).
#[test]
fn member_error_propagates_like_independent_run() {
    let members = vec![member(1, 2, 0), member(2, 2, 1), member(3, 4, 2)];
    let rows = deterministic_rows(90, Some(31)); // one dirty Time cell

    // Stage names differ (shared vs solo), so compare the root-cause
    // message.
    let root = |s: &str| {
        s.rsplit(':')
            .next()
            .map(|t| t.trim().to_string())
            .unwrap_or_default()
    };
    // The single-node error: the copy-free decode refuses a null Time, so
    // the row decode owns the message.
    let reference_err = EventEncoding::Point
        .decode_stream(&rows, &payload(&CANONICAL))
        .expect_err("the reference cannot decode the dirty cell")
        .to_string();

    // Independent runs: every member reads the dirty row and fails on it.
    for m in &members {
        let dfs = dfs_with(&rows);
        let solo_err = job("solo", std::slice::from_ref(m))
            .run(&dfs, &cluster(1))
            .expect_err("solo run over a dirty log must fail")
            .to_string();
        assert_eq!(root(&solo_err), root(&reference_err), "`{solo_err}`");
    }

    // Shared run: fails the same way, and no query's dataset is published.
    let dfs = dfs_with(&rows);
    let err = job("shared", &members)
        .run(&dfs, &cluster(4))
        .expect_err("shared run over a dirty log must fail")
        .to_string();
    for i in 0..members.len() {
        assert!(
            dfs.get(&format!("shared__q{i}")).is_err(),
            "query {i} output published despite job failure"
        );
    }
    assert_eq!(root(&err), root(&reference_err), "`{err}`");
}

/// Whole-query dedup: N copies of the same query produce N identical
/// output datasets from one evaluated root.
#[test]
fn identical_queries_share_everything() {
    let m = member(2, 3, 1);
    let members = vec![m.clone(), m.clone(), m];
    let rows = deterministic_rows(100, None);
    let dfs = dfs_with(&rows);
    let out = job("same", &members).run(&dfs, &cluster(2)).unwrap();
    // All three sinks hold identical bytes.
    let parts: Vec<_> = out
        .datasets
        .iter()
        .map(|d| dfs.get(d).unwrap().partitions.as_ref().clone())
        .collect();
    assert_eq!(parts[0], parts[1]);
    assert_eq!(parts[1], parts[2]);
    // And the merged DAG kept a single copy of the query body.
    assert_eq!(
        out.shared.merged_nodes,
        out.shared.input_nodes / 3,
        "three identical queries should merge into one body"
    );
}
