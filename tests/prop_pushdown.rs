//! Property tests for map-side plan push-down (PR 9): compiling the
//! exchange-free prefix of a query — and, when the aggregate straddling
//! the exchange is combinable, a factor-window partial aggregation — into
//! mapper fragments must be *byte-identical*, per query, to the
//! reduce-only plan — and both equal to the single-node reference DSMS on
//! the same events (paper §III-C.1) — under seeded chaos and with shuffle
//! spilling under a memory budget. Plans the split must
//! refuse (non-combinable aggregates, partition keys the prefix renames
//! away, finer-keyed group-applies) are exercised negatively.
//!
//! Since PR 16 map output keeps extent order (canonical order is
//! established once, at the reduce sink). What licenses that is checked
//! here directly: permuting the rows inside every source extent never
//! changes a published byte.

mod common;

use common::reference_relation;
use proptest::prelude::*;
use std::time::Duration as WallDuration;
use timr_suite::mapreduce::{
    BackendKind, ChaosPlan, Cluster, ClusterConfig, Dataset, Dfs, JobStats, RetryPolicy,
    StoredExtent,
};
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{row, Row, Schema};
use timr_suite::temporal::agg::AggExpr;
use timr_suite::temporal::expr::{col, lit};
use timr_suite::temporal::plan::{push_down, validate_mapper_plan, LogicalPlan, Operator};
use timr_suite::temporal::{EventStream, Query};
use timr_suite::timr::multi::MultiTimrJob;
use timr_suite::timr::{read_output, Annotation, EventEncoding, ExchangeKey, TimrJob};

fn payload() -> Schema {
    Schema::new(vec![
        Field::new("StreamId", ColumnType::Int),
        Field::new("UserId", ColumnType::Str),
        Field::new("KwAdId", ColumnType::Str),
        Field::new("V", ColumnType::Long),
    ])
}

/// Which aggregate the member's hopping window computes. `Count` and
/// `SumV` are combinable (the partial pushes map-side); `Avg` is not, so
/// only the stateless prefix may move.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AggKind {
    Count,
    SumV,
    Avg,
}

impl AggKind {
    fn aggs(self) -> Vec<(String, AggExpr)> {
        match self {
            AggKind::Count => vec![("N".to_string(), AggExpr::Count)],
            AggKind::SumV => vec![
                ("N".to_string(), AggExpr::Count),
                ("S".to_string(), AggExpr::Sum(col("V"))),
            ],
            AggKind::Avg => vec![("A".to_string(), AggExpr::Avg(col("V")))],
        }
    }
}

/// One member of the query set: click-filter prefix (pushable), an
/// optional narrowing projection (pushable, drops `StreamId`), a hopping
/// window over (user, ad) with a per-member aggregate, and a residual ad
/// filter that must stay reduce-side (it reads the aggregate's output).
#[derive(Debug, Clone)]
struct Member {
    hop_mult: i64,
    width_mult: i64,
    ad: usize,
    agg: AggKind,
    narrow: bool,
}

fn member_plan(m: &Member) -> LogicalPlan {
    let q = Query::new();
    let mut clicks = q
        .source("logs", payload())
        .filter(col("StreamId").eq(lit(1)));
    if m.narrow {
        clicks = clicks.project(vec![
            ("UserId".to_string(), col("UserId")),
            ("KwAdId".to_string(), col("KwAdId")),
            ("V".to_string(), col("V")),
        ]);
    }
    let aggs = m.agg.aggs();
    let out = clicks
        .group_apply(&["UserId", "KwAdId"], move |g| {
            g.hop_window(10 * m.hop_mult, 10 * m.width_mult)
                .aggregate(aggs.clone())
        })
        .filter(col("KwAdId").eq(lit(format!("ad{}", m.ad))));
    q.build(vec![out]).unwrap()
}

fn deterministic_rows(n: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            row![
                i * 7 % 500,
                (1 + i % 2) as i32,
                format!("u{}", i % 11),
                format!("ad{}", i % 5),
                i % 50
            ]
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

fn job(members: &[Member], push: bool) -> MultiTimrJob {
    MultiTimrJob::new("pd", members.iter().map(member_plan).collect())
        .with_key(ExchangeKey::keys(&["UserId"]))
        .with_machines(3)
        .with_push_down(push)
}

fn cluster(chaos: ChaosPlan, budget: Option<u64>) -> Cluster {
    cluster_on(BackendKind::Threads, chaos, budget)
}

fn cluster_on(backend: BackendKind, chaos: ChaosPlan, budget: Option<u64>) -> Cluster {
    Cluster::with_config(ClusterConfig {
        threads: 4,
        backend,
        chaos,
        retry: RetryPolicy::no_backoff(4),
        memory_budget_bytes: budget,
        ..ClusterConfig::default()
    })
}

/// `rows` with the rows of every source extent (the 40-row chunks
/// [`dfs_with`] cuts) shuffled by a seeded Fisher–Yates: the same multiset
/// per extent, another physical order.
fn permute_within_extents(rows: &[Row], seed: u64) -> Vec<Row> {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = rows.to_vec();
    for extent in out.chunks_mut(40) {
        for i in (1..extent.len()).rev() {
            extent.swap(i, (next() % (i as u64 + 1)) as usize);
        }
    }
    out
}

/// Raw output partitions of every query, with push-down on or off, and
/// each query's output decoded back into its (normalized) relation.
fn run_bytes(
    members: &[Member],
    rows: &[Row],
    push: bool,
    chaos: ChaosPlan,
    budget: Option<u64>,
) -> (Vec<Vec<StoredExtent>>, Vec<EventStream>) {
    run_bytes_on(members, rows, push, &cluster(chaos, budget))
}

fn run_bytes_on(
    members: &[Member],
    rows: &[Row],
    push: bool,
    cluster: &Cluster,
) -> (Vec<Vec<StoredExtent>>, Vec<EventStream>) {
    let dfs = dfs_with(rows);
    let out = job(members, push).run(&dfs, cluster).unwrap();
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

fn arb_member() -> impl Strategy<Value = Member> {
    // Cadences mix harmonic (gcd 10) and co-prime (7·10) multiples so
    // some runs factor into one window group and some keep several;
    // aggregates mix combinable and not, so some members push partials
    // and some push only their stateless prefix.
    (
        1i64..5,
        1i64..5,
        0usize..3,
        0u8..3,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(h, w, ad, agg, seven, narrow)| Member {
            hop_mult: if seven { 7 } else { h },
            width_mult: w + 1,
            ad,
            agg: match agg {
                0 => AggKind::Count,
                1 => AggKind::SumV,
                _ => AggKind::Avg,
            },
            narrow,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Push-down is byte-identical to the reduce-only plan for every
    /// member query, and the scaled-out output is the relation the
    /// single-node reference DSMS computes from the same events.
    #[test]
    fn push_down_matches_reduce_only_and_the_reference_per_query(
        members in prop::collection::vec(arb_member(), 1..7),
        n in 60i64..140,
    ) {
        let rows = deterministic_rows(n);
        let (on, relations) = run_bytes(&members, &rows, true, ChaosPlan::none(), None);
        let (off, _) = run_bytes(&members, &rows, false, ChaosPlan::none(), None);
        prop_assert_eq!(on.len(), members.len());
        for (i, m) in members.iter().enumerate() {
            prop_assert_eq!(&on[i], &off[i], "query {} bytes differ with push-down", i);
            let reference = reference_relation(&member_plan(m), "logs", &payload(), &rows);
            prop_assert!(
                relations[i].same_relation(&reference),
                "query {} differs from the single-node reference", i
            );
        }
    }

    /// Seeded chaos below the retry budget plus a tight shuffle memory
    /// budget (spilling partially-sorted runs) never change the bytes of
    /// a pushed plan relative to a clean reduce-only run.
    #[test]
    fn pushed_plans_survive_chaos_and_spill(
        members in prop::collection::vec(arb_member(), 2..6),
        seed in 0u64..1_000_000,
    ) {
        let rows = deterministic_rows(120);
        let chaos = ChaosPlan::seeded(seed)
            .with_panics(0.15)
            .with_transients(0.15)
            .with_corruption(0.12)
            .with_delays(0.10, WallDuration::from_micros(200))
            .with_fault_cap(2);
        let (baseline, _) = run_bytes(&members, &rows, false, ChaosPlan::none(), None);
        let (pushed, _) = run_bytes(&members, &rows, true, chaos, Some(2048));
        prop_assert_eq!(baseline, pushed, "chaos+spill changed pushed-plan bytes");
    }

    /// Published bytes do not depend on the order of the rows inside an
    /// input extent: with every source extent shuffled (same multiset per
    /// extent), every query's dataset is byte-identical to the unshuffled
    /// run — push-down on and off, on threads and on worker processes,
    /// with and without a spill budget. Mapper output follows its extent's
    /// order (nothing sorts map-side), so this is the property that makes
    /// the one canonical sort at the reduce sink sufficient.
    #[test]
    fn row_order_inside_an_extent_never_reaches_published_bytes(
        members in prop::collection::vec(arb_member(), 1..5),
        n in 60i64..140,
        seed in any::<u64>(),
    ) {
        let rows = deterministic_rows(n);
        let shuffled = permute_within_extents(&rows, seed);
        prop_assume!(shuffled != rows);
        let (baseline, _) = run_bytes(&members, &rows, false, ChaosPlan::none(), None);
        for push in [true, false] {
            for backend in [BackendKind::Threads, BackendKind::Processes { workers: 2 }] {
                for budget in [None, Some(2048)] {
                    let cluster = cluster_on(backend, ChaosPlan::none(), budget);
                    let (got, _) = run_bytes_on(&members, &shuffled, push, &cluster);
                    prop_assert_eq!(
                        &got, &baseline,
                        "push {} {:?} budget {:?}: extent-internal row order changed bytes",
                        push, backend, budget
                    );
                }
            }
        }
    }
}

/// The two front ends are one compiler: a query run as a TiMR job annotated
/// `key` on its source edge and as a one-query shared job under `key` build
/// the same stage — partitioner, partition count, mapper, push-down counts
/// and refusals — and publish the same extent images, push-down on and
/// off; a key the query rejects fails both with one text.
#[test]
fn timr_and_shared_front_ends_build_the_same_stage() {
    let rows = deterministic_rows(120);
    let keys = [
        ExchangeKey::keys(&["UserId"]),
        ExchangeKey::keys(&["KwAdId", "UserId"]),
        ExchangeKey::Single,
        ExchangeKey::Spread,
        ExchangeKey::keys(&["StreamId"]),
    ];
    let members = [
        (1, 4, AggKind::Count, false),
        (2, 3, AggKind::SumV, true),
        (7, 2, AggKind::Avg, false),
    ];
    let mut built = 0;
    for (hop_mult, width_mult, agg, narrow) in members {
        let plan = member_plan(&Member {
            hop_mult,
            width_mult,
            ad: 1,
            agg,
            narrow,
        });
        let filter = plan.consumers(0)[0];
        for key in &keys {
            for push in [true, false] {
                let what = format!("{agg:?} narrow {narrow} {key} push {push}");
                let timr = TimrJob::new("fe_timr", plan.clone())
                    .with_annotation(Annotation::none().exchange(filter, 0, key.clone()))
                    .with_machines(3)
                    .with_push_down(push);
                let shared = MultiTimrJob::new("fe_shared", vec![plan.clone()])
                    .with_key(key.clone())
                    .with_machines(3)
                    .with_push_down(push);
                let (t, m) = match (timr.compile(), shared.compile()) {
                    (Ok(t), Ok(m)) => (t, m),
                    (Err(t), Err(m)) => {
                        assert_eq!(t.to_string(), m.to_string(), "{what}");
                        continue;
                    }
                    (t, m) => panic!("{what}: {:?} vs {:?}", t.err(), m.err()),
                };
                assert_eq!(t.stages.len(), 1, "{what}");
                let (ts, ms) = (&t.stages[0], &m.stage);
                assert_eq!(ts.partitioner, ms.partitioner, "{what}");
                assert_eq!(ts.partitions, ms.partitions, "{what}");
                assert_eq!(ts.mapper.is_some(), ms.mapper.is_some(), "{what}");
                assert_eq!(
                    (t.pushed_ops, t.pushed_partials),
                    (m.pushed_ops, m.pushed_partials),
                    "{what}"
                );
                let reasons = |r: &[timr_suite::timr::compile::PartialRefusal]| {
                    r.iter()
                        .map(|r| (r.input.clone(), r.reason.clone()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    reasons(&t.partial_refusals),
                    reasons(&m.partial_refusals),
                    "{what}"
                );
                let dfs = dfs_with(&rows);
                let cluster = cluster(ChaosPlan::none(), None);
                let t_out = timr.run(&dfs, &cluster).unwrap();
                let m_out = shared.run(&dfs, &cluster).unwrap();
                let extents = |name: &str| dfs.get(name).unwrap().partitions.as_ref().clone();
                assert_eq!(
                    extents(&t_out.dataset),
                    extents(&m_out.datasets[0]),
                    "{what}"
                );
                built += 1;
            }
        }
    }
    // Spread and StreamId are refused; the other three keys build.
    assert_eq!(built, members.len() * 3 * 2);
}

/// Single-query path: a click-score-shaped job (filter → narrowing
/// project → combinable hopping aggregate, exchange annotated on the
/// filter's input edge) is byte-identical with push-down on and off,
/// equals the single-node reference, and the on-run's stats show fewer
/// rows shuffled and shuffle bytes saved.
#[test]
fn single_query_push_down_is_byte_identical_and_saves_shuffle() {
    let build = || {
        let q = Query::new();
        let out = q
            .source("logs", payload())
            .filter(col("StreamId").eq(lit(1)))
            .project(vec![
                ("UserId".to_string(), col("UserId")),
                ("KwAdId".to_string(), col("KwAdId")),
            ])
            .group_apply(&["UserId", "KwAdId"], |g| g.hop_window(10, 40).count("N"));
        q.build(vec![out]).unwrap()
    };
    let job = |push: bool| {
        let plan = build();
        let filter = plan
            .nodes()
            .iter()
            .position(|n| matches!(n.op, Operator::Filter { .. }))
            .unwrap();
        TimrJob::new(if push { "pd_on" } else { "pd_off" }, plan)
            .with_annotation(Annotation::none().exchange(filter, 0, ExchangeKey::keys(&["UserId"])))
            .with_machines(3)
            .with_push_down(push)
    };
    let rows = deterministic_rows(160);
    let dfs = dfs_with(&rows);
    let on = job(true)
        .run(&dfs, &cluster(ChaosPlan::none(), None))
        .unwrap();
    let off = job(false)
        .run(&dfs, &cluster(ChaosPlan::none(), None))
        .unwrap();
    assert_eq!(
        dfs.get(&on.dataset).unwrap().partitions,
        dfs.get(&off.dataset).unwrap().partitions,
        "single-query bytes differ with push-down"
    );
    let reference = reference_relation(&build(), "logs", &payload(), &rows);
    assert!(on.stream(&dfs).unwrap().same_relation(&reference));
    let on_t = on.stats.map_totals();
    let off_t = off.stats.map_totals();
    assert!(on_t.shuffle_bytes_saved > 0, "push-down saved no bytes");
    assert!(
        on_t.shuffle_bytes < off_t.shuffle_bytes,
        "pushed shuffle ({}) not smaller than reduce-only ({})",
        on_t.shuffle_bytes,
        off_t.shuffle_bytes
    );
    assert_eq!(off_t.shuffle_bytes_saved, 0);
    assert_eq!(
        off_t.rows_in, off_t.rows_out,
        "reduce-only map tasks must ship rows unchanged"
    );
    assert!(
        on_t.rows_out < on_t.rows_in,
        "mapper fragments must shrink the shuffled row count"
    );
}

/// What one run of a job published, dataset by dataset, and its stats.
/// Taken right after the run: a job publishes under its own name, so the
/// next run of the same job overwrites it.
type Published = (Vec<Vec<StoredExtent>>, JobStats);

fn published(dfs: &Dfs, datasets: &[String], stats: JobStats) -> Published {
    let bytes = (datasets.iter())
        .map(|d| dfs.get(d).unwrap().partitions.as_ref().clone())
        .collect();
    (bytes, stats)
}

/// The pushed run (`on`) published the reduce-only run's (`off`) extent
/// images, and its shuffle moved at least `cut` times fewer bytes.
fn assert_same_bytes_and_cut(what: &str, on: Published, off: Published, cut: f64) {
    assert!(
        on.0.iter().any(|d| !d.is_empty()),
        "{what}: nothing published"
    );
    assert_eq!(on.0, off.0, "{what}: push-down changed a published extent");
    let (on_t, off_t) = (on.1.map_totals(), off.1.map_totals());
    assert_eq!(off_t.shuffle_bytes_saved, 0, "{what}");
    assert_eq!(
        on_t.shuffle_bytes + on_t.shuffle_bytes_saved,
        off_t.shuffle_bytes,
        "{what}"
    );
    assert!(
        off_t.shuffle_bytes as f64 >= cut * on_t.shuffle_bytes as f64,
        "{what} shuffled {} bytes pushed vs {} reduce-only: under the {cut}x cut",
        on_t.shuffle_bytes,
        off_t.shuffle_bytes,
    );
}

/// The BT feature-selection job (paper §IV-B.3), written the way the paper
/// draws it — `hop_window` *above* each GroupApply: both counts push their
/// partials map-side, the published extent images are the reduce-only
/// plan's, and the stage shuffles at least 1.5× fewer bytes (a count, so
/// gated: the job sums ≈`train_rows` + `labels` rows into one row per
/// `(AdId, Keyword)` and per `AdId` before the exchange instead of after).
///
/// Over the same log, the two advertiser jobs push down too: the 16 shared
/// dashboards over the BotElim-cleaned log and the click-score job over the
/// raw log each publish the reduce-only bytes and shuffle at least 2×
/// fewer. The raw-log dashboards fan their source into BotElim's
/// anti-semi-join, so nothing pushes and no shuffle byte is saved.
#[test]
fn bt_feature_selection_pushes_both_counts_and_cuts_the_shuffle() {
    use timr_suite::bt::pipeline::BtPipeline;
    use timr_suite::bt::queries::advertisers::{click_score_job, dashboard_job, shared_job};
    use timr_suite::bt::queries::feature_selection;
    use timr_suite::bt::BtParams;

    let mut cfg = timr_suite::adgen::GenConfig::small(11);
    cfg.users = 200;
    let log = timr_suite::adgen::generate(&cfg);
    let dfs = Dfs::new();
    let parts: Vec<Vec<Row>> = log.rows().chunks(2_000).map(<[Row]>::to_vec).collect();
    let raw = Dataset::partitioned(timr_suite::adgen::unified_schema(), parts);
    dfs.put("raw", raw).unwrap();
    let params = BtParams {
        machines: 4,
        ..Default::default()
    };
    // Leaves `labels` and `train_rows` in the DFS for the job under test;
    // the cleaned log goes to `clean_logs` for the dashboards.
    let artifacts = BtPipeline::new(params.clone())
        .run(&dfs, &Cluster::new(), "raw", "bt")
        .unwrap();
    dfs.put_overwrite("clean_logs", dfs.get(&artifacts.clean).unwrap());

    let query = feature_selection::query(&params);
    let job = |push: bool| {
        TimrJob::new("fs", query.plan.clone())
            .with_annotation(query.annotation.clone())
            .with_machines(params.machines)
            .with_source_encoding("labels", EventEncoding::Interval)
            .with_source_encoding("train_rows", EventEncoding::Interval)
            .with_push_down(push)
    };
    let compiled = job(true).compile().unwrap();
    assert_eq!((compiled.pushed_ops, compiled.pushed_partials), (0, 2));
    assert!(compiled.partial_refusals.is_empty(), "{compiled}");
    let feature_selection = |push: bool| {
        let out = job(push).run(&dfs, &Cluster::new()).unwrap();
        published(&dfs, &[out.dataset], out.stats)
    };
    let (on, off) = (feature_selection(true), feature_selection(false));
    assert_same_bytes_and_cut("feature selection", on, off, 1.5);

    let dashboards = |push: bool| {
        let out = dashboard_job(&params, 16)
            .with_push_down(push)
            .run(&dfs, &Cluster::new())
            .unwrap();
        assert_eq!((out.datasets.len(), out.pushed_ops > 0), (16, push));
        published(&dfs, &out.datasets, out.stats)
    };
    let (on, off) = (dashboards(true), dashboards(false));
    assert_same_bytes_and_cut("dashboards", on, off, 2.0);

    let click_score = |push: bool| {
        let out = click_score_job(&params)
            .with_push_down(push)
            .run(&dfs, &Cluster::new())
            .unwrap();
        published(&dfs, &[out.dataset], out.stats)
    };
    let (on, off) = (click_score(true), click_score(false));
    assert_same_bytes_and_cut("click score", on, off, 2.0);

    let raw = shared_job(&params, 8).run(&dfs, &Cluster::new()).unwrap();
    assert_eq!(raw.pushed_ops, 0, "BotElim's fan-out must block push-down");
    assert_eq!(raw.stats.total_shuffle_bytes_saved(), 0);
}

/// A non-combinable aggregate keeps the reduction reduce-side — the
/// compiled job pushes the stateless prefix but zero partials — and
/// [`validate_mapper_plan`] refuses a mapper plan containing it.
#[test]
fn non_combinable_aggregate_stays_reduce_side() {
    let m = Member {
        hop_mult: 2,
        width_mult: 3,
        ad: 1,
        agg: AggKind::Avg,
        narrow: true,
    };
    let compiled = job(&[m], true).compile().unwrap();
    assert_eq!(
        compiled.pushed_partials, 0,
        "Avg must not partial-aggregate"
    );
    assert!(
        compiled.pushed_ops >= 1,
        "the stateless prefix still pushes"
    );

    let q = Query::new();
    let out = q.source("logs", payload()).group_apply(&["UserId"], |g| {
        g.hop_window(4, 8)
            .aggregate(vec![("A".to_string(), AggExpr::Avg(col("V")))])
    });
    let plan = q.build(vec![out]).unwrap();
    let err = validate_mapper_plan(&plan, None).unwrap_err();
    assert!(err.to_string().contains("not combinable"), "{err}");
}

/// A projection that renames the partition key away blocks the split
/// entirely when routing must be preserved, and the validator rejects
/// both a stateful mapper operator and a group-apply keyed finer than
/// the stage partitioner.
#[test]
fn renamed_key_finer_grouping_and_stateful_ops_are_refused() {
    // Rename UserId → Who: nothing may push on a UserId-partitioned stage.
    let q = Query::new();
    let out = q
        .source("logs", payload())
        .project(vec![
            ("Who".to_string(), col("UserId")),
            ("V".to_string(), col("V")),
        ])
        .group_apply(&["Who"], |g| g.hop_window(10, 20).count("N"));
    let plan = q.build(vec![out]).unwrap();
    let cols = vec!["UserId".to_string()];
    let pd = push_down(&plan, Some(&cols)).unwrap();
    assert!(!pd.any(), "key rename must block push-down");

    // GroupApply keyed (UserId) under a (UserId, KwAdId) partitioner.
    let q = Query::new();
    let out = q
        .source("logs", payload())
        .group_apply(&["UserId"], |g| g.hop_window(10, 20).count("N"));
    let plan = q.build(vec![out]).unwrap();
    let fine = vec!["UserId".to_string(), "KwAdId".to_string()];
    let err = validate_mapper_plan(&plan, Some(&fine)).unwrap_err();
    assert!(err.to_string().contains("finer"), "{err}");

    // A join can never run map-side.
    let q = Query::new();
    let a = q.source("a", payload());
    let b = q.source("b", payload());
    let plan = q
        .build(vec![a.anti_semi_join(b, &[("UserId", "UserId")])])
        .unwrap();
    let err = validate_mapper_plan(&plan, None).unwrap_err();
    assert!(err.to_string().contains("stateful"), "{err}");
}
