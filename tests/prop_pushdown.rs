//! Property tests for map-side plan push-down (PR 9): compiling the
//! exchange-free prefix of a query — and, when the aggregate straddling
//! the exchange is combinable, a factor-window partial aggregation — into
//! mapper fragments must be *byte-identical*, per query, to the
//! reduce-only plan — and both equal to the oracle on the same events
//! (paper §III-C.1) — under seeded chaos and with shuffle spilling under a
//! memory budget. Plans the split must refuse (non-combinable aggregates,
//! partition keys the prefix renames away, finer-keyed group-applies) are
//! exercised negatively.
//!
//! Since PR 16 map output keeps extent order (canonical order is
//! established once, at the reduce sink). What licenses that is checked
//! here directly: permuting the rows inside every source extent never
//! changes a published byte. The properties are
//! `tests/common/harness.rs`'s, with the dimension under test pinned.

mod common;

use common::harness::{arb_case, check, member_plan, payload, AggKind, Dim, Member, CANONICAL};
use common::oracle::{self, Tolerance};
use proptest::prelude::*;
use timr_suite::mapreduce::{
    ChaosPlan, Cluster, ClusterConfig, Dataset, Dfs, JobStats, RetryPolicy, StoredExtent,
};
use timr_suite::relation::{row, Row};
use timr_suite::temporal::agg::AggExpr;
use timr_suite::temporal::exec::bindings;
use timr_suite::temporal::expr::{col, lit};
use timr_suite::temporal::plan::{push_down, validate_mapper_plan, Operator};
use timr_suite::temporal::Query;
use timr_suite::timr::multi::MultiTimrJob;
use timr_suite::timr::{Annotation, EventEncoding, ExchangeKey, TimrJob};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Push-down is byte-identical to the reduce-only plan (the baseline)
    /// for every member query, and the scaled-out output is the relation
    /// the oracle computes from the same events.
    #[test]
    fn push_down_matches_reduce_only_and_the_reference_per_query(
        case in arb_case(&[Dim::PushDown], 3),
    ) {
        check(&case)?;
    }

    /// Seeded chaos below the retry budget plus a tight shuffle memory
    /// budget (spilling partially-sorted runs) never change the bytes of
    /// a pushed plan relative to a clean reduce-only run.
    #[test]
    fn pushed_plans_survive_chaos_and_spill(
        case in arb_case(&[Dim::PushDown, Dim::Chaos, Dim::Spill], 3),
    ) {
        check(&case)?;
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
        case in arb_case(&[Dim::RowOrder], 4),
    ) {
        check(&case)?;
    }
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
    let schema = EventEncoding::Point.dataset_schema(&payload(&CANONICAL));
    dfs.put("logs", Dataset::partitioned(schema, parts))
        .unwrap();
    dfs
}

fn job(members: &[Member], push: bool) -> MultiTimrJob {
    let plans = (members.iter())
        .map(|m| member_plan(m, &CANONICAL))
        .collect();
    MultiTimrJob::new("pd", plans)
        .with_key(ExchangeKey::keys(&["UserId"]))
        .with_machines(3)
        .with_push_down(push)
}

fn cluster() -> Cluster {
    Cluster::with_config(ClusterConfig {
        threads: 4,
        chaos: ChaosPlan::none(),
        retry: RetryPolicy::no_backoff(4),
        ..ClusterConfig::default()
    })
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
        let member = Member {
            hop_mult,
            width_mult,
            ad: 1,
            agg,
            narrow,
            slide: false,
        };
        let plan = member_plan(&member, &CANONICAL);
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
                let cluster = cluster();
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
/// equals the oracle, and the on-run's stats show fewer rows shuffled and
/// shuffle bytes saved.
#[test]
fn single_query_push_down_is_byte_identical_and_saves_shuffle() {
    let build = || {
        let q = Query::new();
        let out = q
            .source("logs", payload(&CANONICAL))
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
    let on = job(true).run(&dfs, &cluster()).unwrap();
    let off = job(false).run(&dfs, &cluster()).unwrap();
    assert_eq!(
        dfs.get(&on.dataset).unwrap().partitions,
        dfs.get(&off.dataset).unwrap().partitions,
        "single-query bytes differ with push-down"
    );
    let log = EventEncoding::Point
        .decode_stream(&rows, &payload(&CANONICAL))
        .unwrap();
    let want = oracle::run_single(&build(), &bindings(vec![("logs", log)])).unwrap();
    oracle::same_relation(&on.stream(&dfs).unwrap(), &want, &Tolerance::exact()).unwrap();
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
        slide: false,
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
    let out = q
        .source("logs", payload(&CANONICAL))
        .group_apply(&["UserId"], |g| {
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
        .source("logs", payload(&CANONICAL))
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
        .source("logs", payload(&CANONICAL))
        .group_apply(&["UserId"], |g| g.hop_window(10, 20).count("N"));
    let plan = q.build(vec![out]).unwrap();
    let fine = vec!["UserId".to_string(), "KwAdId".to_string()];
    let err = validate_mapper_plan(&plan, Some(&fine)).unwrap_err();
    assert!(err.to_string().contains("finer"), "{err}");

    // A join can never run map-side.
    let q = Query::new();
    let a = q.source("a", payload(&CANONICAL));
    let b = q.source("b", payload(&CANONICAL));
    let plan = q
        .build(vec![a.anti_semi_join(b, &[("UserId", "UserId")])])
        .unwrap();
    let err = validate_mapper_plan(&plan, None).unwrap_err();
    assert!(err.to_string().contains("stateful"), "{err}");
}
