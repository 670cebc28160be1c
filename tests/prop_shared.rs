//! Property tests for shared multi-query execution (PR 8): running N
//! queries through one [`MultiTimrJob`] — common prefixes merged, harmonic
//! hopping windows factored — must be *byte-identical*, per query, to N
//! independent jobs, equal to the single-node reference DSMS on the same
//! events (paper §III-C.1), invisible to chaos, and must propagate a
//! runtime error exactly like an independent run (with no partial output
//! published).

mod common;

use common::reference_relation;
use proptest::prelude::*;
use std::time::Duration;
use timr_suite::mapreduce::{
    ChaosPlan, Cluster, ClusterConfig, Dataset, Dfs, RetryPolicy, StoredExtent,
};
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{row, Row, Schema, Value};
use timr_suite::temporal::expr::{col, lit};
use timr_suite::temporal::plan::LogicalPlan;
use timr_suite::temporal::{EventStream, Query};
use timr_suite::timr::multi::MultiTimrJob;
use timr_suite::timr::{read_output, EventEncoding, ExchangeKey};

fn payload() -> Schema {
    Schema::new(vec![
        Field::new("StreamId", ColumnType::Int),
        Field::new("UserId", ColumnType::Str),
        Field::new("KwAdId", ColumnType::Str),
        Field::new("V", ColumnType::Long),
    ])
}

/// One member of the query set: shared click-filter prefix, per-query
/// hopping window over (user, ad), per-query ad filter.
#[derive(Debug, Clone)]
struct Member {
    hop_mult: i64,
    width_mult: i64,
    ad: usize,
}

fn member_plan(m: &Member) -> LogicalPlan {
    let q = Query::new();
    let out = q
        .source("logs", payload())
        .filter(col("StreamId").eq(lit(1)))
        .group_apply(&["UserId", "KwAdId"], |g| {
            g.hop_window(10 * m.hop_mult, 10 * m.width_mult).count("N")
        })
        .filter(col("KwAdId").eq(lit(format!("ad{}", m.ad))));
    q.build(vec![out]).unwrap()
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
    dfs.put(
        "logs",
        Dataset::partitioned(EventEncoding::Point.dataset_schema(&payload()), parts),
    )
    .unwrap();
    dfs
}

fn job(name: &str, members: &[Member]) -> MultiTimrJob {
    MultiTimrJob::new(name, members.iter().map(member_plan).collect())
        .with_key(ExchangeKey::keys(&["UserId"]))
        .with_machines(3)
}

fn cluster(threads: usize, chaos: ChaosPlan) -> Cluster {
    Cluster::with_config(ClusterConfig {
        threads,
        chaos,
        retry: RetryPolicy::no_backoff(4),
        ..ClusterConfig::default()
    })
}

/// Raw output partitions of every query of a shared run, and each query's
/// output decoded back into its (normalized) relation.
fn shared_bytes(
    members: &[Member],
    rows: &[Row],
    chaos: ChaosPlan,
) -> (Vec<Vec<StoredExtent>>, Vec<EventStream>) {
    let dfs = dfs_with(rows);
    let out = job("shared", members)
        .run(&dfs, &cluster(4, chaos))
        .unwrap();
    let bytes = out
        .datasets
        .iter()
        .map(|d| dfs.get(d).unwrap().partitions.as_ref().clone())
        .collect();
    let relations = (out.datasets.iter())
        .map(|d| read_output(&dfs, d).unwrap())
        .collect();
    (bytes, relations)
}

/// Raw output partitions of one query run on its own.
fn solo_bytes(member: &Member, rows: &[Row]) -> Vec<StoredExtent> {
    let dfs = dfs_with(rows);
    let out = job("solo", std::slice::from_ref(member))
        .run(&dfs, &cluster(4, ChaosPlan::none()))
        .unwrap();
    dfs.get(&out.datasets[0])
        .unwrap()
        .partitions
        .as_ref()
        .clone()
}

fn arb_member() -> impl Strategy<Value = Member> {
    // hop × width multipliers mix harmonic (shared gcd 10) and co-prime
    // (7·10) cadences, so some runs factor and some don't; identical
    // members exercise whole-query dedup.
    (1i64..5, 1i64..5, 0usize..3, any::<bool>()).prop_map(|(h, w, ad, seven)| Member {
        hop_mult: if seven { 7 } else { h },
        width_mult: w + 1,
        ad,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shared execution is byte-identical to independent execution for
    /// every member, and each member's scaled-out output is the relation
    /// the single-node reference DSMS computes from the same events.
    #[test]
    fn shared_equals_independent_and_the_reference_per_query(
        members in prop::collection::vec(arb_member(), 1..9),
        n in 60i64..140,
    ) {
        let rows = deterministic_rows(n, None);
        let (shared, relations) = shared_bytes(&members, &rows, ChaosPlan::none());
        prop_assert_eq!(shared.len(), members.len());
        for (i, m) in members.iter().enumerate() {
            prop_assert_eq!(&shared[i], &solo_bytes(m, &rows), "query {} bytes differ", i);
            let reference = reference_relation(&member_plan(m), "logs", &payload(), &rows);
            prop_assert!(
                relations[i].same_relation(&reference),
                "query {} differs from the single-node reference", i
            );
        }
    }

    /// Chaos below the retry budget never changes any query's bytes in a
    /// shared run.
    #[test]
    fn chaos_is_invisible_per_query(
        members in prop::collection::vec(arb_member(), 2..7),
        seed in 0u64..1_000_000,
    ) {
        let rows = deterministic_rows(120, None);
        let chaos = ChaosPlan::seeded(seed)
            .with_panics(0.15)
            .with_transients(0.15)
            .with_corruption(0.12)
            .with_delays(0.10, Duration::from_micros(200))
            .with_fault_cap(2);
        let (clean, _) = shared_bytes(&members, &rows, ChaosPlan::none());
        let (chaotic, _) = shared_bytes(&members, &rows, chaos);
        prop_assert_eq!(clean, chaotic, "chaos changed shared-job bytes");
    }
}

/// A runtime error fails the shared job with the same error an independent
/// run of each member produces — the error the single-node reference's
/// input decode raises on the same rows — and publishes no output for ANY
/// query (all-or-nothing, like a single stage).
#[test]
fn member_error_propagates_like_independent_run() {
    let members = vec![
        Member {
            hop_mult: 1,
            width_mult: 2,
            ad: 0,
        },
        Member {
            hop_mult: 2,
            width_mult: 2,
            ad: 1,
        },
        Member {
            hop_mult: 3,
            width_mult: 4,
            ad: 2,
        },
    ];
    let rows = deterministic_rows(90, Some(31)); // one dirty Time cell

    // Stage names differ (shared vs solo), so compare the root-cause
    // message.
    let root = |s: &str| {
        s.rsplit(':')
            .next()
            .map(|t| t.trim().to_string())
            .unwrap_or_default()
    };
    // The reference's error: the copy-free decode refuses a null Time, so
    // the row decode owns the message.
    let reference_err = EventEncoding::Point
        .decode_stream(&rows, &payload())
        .expect_err("the reference cannot decode the dirty cell")
        .to_string();

    // Independent runs: every member reads the dirty row and fails on it.
    for m in &members {
        let dfs = dfs_with(&rows);
        let solo_err = job("solo", std::slice::from_ref(m))
            .run(&dfs, &cluster(1, ChaosPlan::none()))
            .expect_err("solo run over a dirty log must fail")
            .to_string();
        assert_eq!(root(&solo_err), root(&reference_err), "`{solo_err}`");
    }

    // Shared run: fails the same way, and no query's dataset is published.
    let dfs = dfs_with(&rows);
    let err = job("shared", &members)
        .run(&dfs, &cluster(4, ChaosPlan::none()))
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
    let m = Member {
        hop_mult: 2,
        width_mult: 3,
        ad: 1,
    };
    let members = vec![m.clone(), m.clone(), m];
    let rows = deterministic_rows(100, None);
    let dfs = dfs_with(&rows);
    let out = job("same", &members)
        .run(&dfs, &cluster(2, ChaosPlan::none()))
        .unwrap();
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
