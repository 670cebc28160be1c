//! Cross-crate integration: the full BT story on generated data.
//!
//! These tests exercise the complete dependency chain — generator → DFS →
//! TiMR jobs (temporal queries on map-reduce) → evaluation — and assert
//! the *scientific* outcomes the paper claims: planted keyword recovery,
//! positive CTR lift for KE-z, KE-z beating KE-pop, bot removal, and
//! agreement between the declarative and hand-written pipelines.

use timr_suite::adgen::{generate, GenConfig};
use timr_suite::bt::eval::{
    by_ad, keyword_set_lift, lift_coverage, scores_from_examples, split_by_time, train_models,
    Scheme,
};
use timr_suite::bt::lr::LrConfig;
use timr_suite::bt::pipeline::BtPipeline;
use timr_suite::bt::BtParams;
use timr_suite::mapreduce::{Cluster, Dataset, Dfs};

struct Setup {
    dfs: Dfs,
    params: BtParams,
    log: timr_suite::adgen::GeneratedLog,
    artifacts: timr_suite::bt::pipeline::PipelineArtifacts,
    duration: i64,
}

fn setup(seed: u64, users: usize) -> Setup {
    let mut cfg = GenConfig::small(seed);
    cfg.users = users;
    let log = generate(&cfg);
    let dfs = Dfs::new();
    dfs.put(
        "logs",
        Dataset::single(timr_suite::adgen::unified_schema(), log.rows()),
    )
    .unwrap();
    let params = BtParams {
        machines: 4,
        horizon: cfg.duration * 2,
        ..Default::default()
    };
    let artifacts = BtPipeline::new(params.clone())
        .run(&dfs, &Cluster::new(), "logs", "it")
        .unwrap();
    Setup {
        dfs,
        params,
        log,
        artifacts,
        duration: cfg.duration,
    }
}

#[test]
fn end_to_end_recovers_planted_structure_and_lifts_ctr() {
    let s = setup(101, 900);

    // 1. Keyword recovery: for every ad class, the strongest positive
    //    z-scores are dominated by planted positives.
    let scores = BtPipeline::load_scores(&s.dfs, &s.artifacts.scores).unwrap();
    let mut checked_ads = 0;
    for (ad, planted) in &s.log.truth.positive_keywords {
        let mut top: Vec<_> = scores
            .iter()
            .filter(|sc| &sc.ad == ad && sc.z > 1.96)
            .collect();
        top.sort_by(|a, b| b.z.total_cmp(&a.z));
        if top.len() < 3 {
            continue; // sparse ad at this scale
        }
        let hits = top
            .iter()
            .take(5)
            .filter(|sc| planted.contains(&sc.keyword))
            .count();
        assert!(
            hits * 3 >= top.len().min(5) * 2,
            "{ad}: planted keywords should dominate top z-scores ({hits} hits)"
        );
        checked_ads += 1;
    }
    assert!(checked_ads >= 3, "most ad classes reach significance");

    // 2. CTR lift: train on the first half, evaluate on the second; KE-z
    //    must produce positive lift at 10% coverage for at least one ad,
    //    and on average beat KE-pop.
    let examples =
        BtPipeline::load_examples(&s.dfs, &s.artifacts.labels, &s.artifacts.train_rows).unwrap();
    let (train, test) = split_by_time(&examples, s.duration / 2);
    let train_scores =
        scores_from_examples(&train, s.params.min_support, s.params.min_example_support);
    let train_by_ad = by_ad(&train);
    let test_by_ad = by_ad(&test);

    let mut kez_lift_sum = 0.0;
    let mut kepop_lift_sum = 0.0;
    let mut ads = 0.0;
    for scheme_pair in [(Scheme::KeZ { threshold: 1.28 }, Scheme::KePop { n: 30 })] {
        let kez_models = train_models(
            &train_by_ad,
            &scheme_pair.0,
            &train_scores,
            &LrConfig::default(),
        );
        let kepop_models = train_models(
            &train_by_ad,
            &scheme_pair.1,
            &train_scores,
            &LrConfig::default(),
        );
        for (ad, test_examples) in &test_by_ad {
            let (Some(a), Some(b)) = (kez_models.get(ad), kepop_models.get(ad)) else {
                continue;
            };
            if test_examples.len() < 100 {
                continue;
            }
            let ka = lift_coverage(ad, a, test_examples, &scheme_pair.0, &train_scores, &[0.1]);
            let kb = lift_coverage(ad, b, test_examples, &scheme_pair.1, &train_scores, &[0.1]);
            kez_lift_sum += ka[0].lift;
            kepop_lift_sum += kb[0].lift;
            ads += 1.0;
        }
    }
    assert!(ads >= 3.0, "enough ads evaluated: {ads}");
    assert!(
        kez_lift_sum / ads > 0.0,
        "KE-z mean lift must be positive: {}",
        kez_lift_sum / ads
    );
    assert!(
        kez_lift_sum > kepop_lift_sum,
        "KE-z ({kez_lift_sum:.3}) should beat KE-pop ({kepop_lift_sum:.3}) in total lift"
    );
}

#[test]
fn keyword_subsets_shift_ctr_in_the_planted_direction() {
    let s = setup(202, 900);
    let examples =
        BtPipeline::load_examples(&s.dfs, &s.artifacts.labels, &s.artifacts.train_rows).unwrap();
    let (train, test) = split_by_time(&examples, s.duration / 2);
    let scores = scores_from_examples(&train, s.params.min_support, s.params.min_example_support);
    let test_by_ad = by_ad(&test);

    let mut positive_lifts = 0;
    let mut checked = 0;
    for (ad, test_examples) in &test_by_ad {
        let pos: rustc_hash::FxHashSet<String> = scores
            .iter()
            .filter(|sc| &sc.ad == ad && sc.z > 1.28)
            .map(|sc| sc.keyword.clone())
            .collect();
        let neg: rustc_hash::FxHashSet<String> = scores
            .iter()
            .filter(|sc| &sc.ad == ad && sc.z < -1.28)
            .map(|sc| sc.keyword.clone())
            .collect();
        if pos.is_empty() || test_examples.len() < 200 {
            continue;
        }
        let rows = keyword_set_lift(test_examples, &pos, &neg);
        // rows[1] = ">=1 pos kw".
        if rows[1].examples > 30 {
            checked += 1;
            if rows[1].lift_pct > 0.0 {
                positive_lifts += 1;
            }
        }
    }
    assert!(checked >= 3, "checked {checked} ads");
    assert!(
        positive_lifts * 4 >= checked * 3,
        "positive-keyword subsets lift CTR for most ads: {positive_lifts}/{checked}"
    );
}

#[test]
fn bot_elimination_removes_planted_bots_activity() {
    let s = setup(303, 1000);
    let clean = s.dfs.get(&s.artifacts.clean).unwrap();
    // Clean dataset is Interval-encoded: (Time, TimeEnd, StreamId,
    // UserId, KwAdId) — UserId is column 3.
    let clean_users: rustc_hash::FxHashMap<String, u64> = {
        let mut m: rustc_hash::FxHashMap<String, u64> = Default::default();
        for r in clean.scan() {
            *m.entry(r.get(3).as_str().unwrap().to_string()).or_insert(0) += 1;
        }
        m
    };
    let raw_users: rustc_hash::FxHashMap<String, u64> = {
        let mut m: rustc_hash::FxHashMap<String, u64> = Default::default();
        for e in &s.log.events {
            *m.entry(e.user.clone()).or_insert(0) += 1;
        }
        m
    };
    // Every planted bot loses the majority of its activity; ordinary
    // users keep essentially all of theirs.
    let mut bots_suppressed = 0;
    for bot in &s.log.truth.bots {
        let raw = raw_users.get(bot).copied().unwrap_or(0);
        let kept = clean_users.get(bot).copied().unwrap_or(0);
        if raw >= 20 && (kept as f64) < 0.5 * raw as f64 {
            bots_suppressed += 1;
        }
    }
    assert!(
        bots_suppressed as f64 >= 0.8 * s.log.truth.bots.len() as f64,
        "{bots_suppressed}/{} bots suppressed",
        s.log.truth.bots.len()
    );

    let sample_normals: Vec<&String> = raw_users
        .keys()
        .filter(|u| !s.log.truth.bots.contains(*u))
        .take(50)
        .collect();
    for u in sample_normals {
        let raw = raw_users[u];
        let kept = clean_users.get(u).copied().unwrap_or(0);
        assert!(
            kept as f64 >= 0.9 * raw as f64,
            "normal user {u} lost activity: {kept}/{raw}"
        );
    }
}

#[test]
fn declarative_and_custom_pipelines_agree_at_scale() {
    let s = setup(404, 700);
    timr_suite::bt::baselines::custom::run_custom(
        &s.dfs,
        &Cluster::new(),
        "logs",
        "cust",
        &s.params,
    )
    .unwrap();
    let timr_scores = BtPipeline::load_scores(&s.dfs, &s.artifacts.scores).unwrap();
    let custom_scores = BtPipeline::load_custom_scores(&s.dfs, "cust_scores").unwrap();
    assert!(!timr_scores.is_empty());

    let custom_map: std::collections::BTreeMap<(String, String), f64> = custom_scores
        .iter()
        .map(|sc| ((sc.ad.clone(), sc.keyword.clone()), sc.z))
        .collect();
    let mut matched = 0;
    for sc in &timr_scores {
        if let Some(z) = custom_map.get(&(sc.ad.clone(), sc.keyword.clone())) {
            assert!(
                (sc.z - z).abs() < 1e-9,
                "z mismatch {}/{}: {} vs {z}",
                sc.ad,
                sc.keyword,
                sc.z
            );
            matched += 1;
        }
    }
    assert!(
        matched as f64 >= 0.9 * timr_scores.len() as f64,
        "{matched}/{} scores matched",
        timr_scores.len()
    );
}

/// The BT pipeline as four standalone TiMR jobs — BotElim, labels,
/// GenTrainData, feature selection — each reading the one before through
/// a DFS alias and an Interval source encoding. The two-job pipeline must
/// publish these bytes. Returns `[clean, labels, train_rows, scores]`.
fn four_job_reference(dfs: &Dfs, cluster: &Cluster, params: &BtParams) -> [String; 4] {
    use timr_suite::bt::queries::{bot_elim, feature_selection, train_data, BtQuery};
    use timr_suite::timr::{EventEncoding, TimrJob};
    let alias = |from: &str, to: &str| dfs.put_overwrite(to, dfs.get(from).unwrap());
    let run = |q: BtQuery, name: &str, interval_sources: &[&str]| -> String {
        let job = TimrJob::new(name, q.plan)
            .with_annotation(q.annotation)
            .with_machines(params.machines);
        (interval_sources.iter())
            .fold(job, |j, s| {
                j.with_source_encoding(s, EventEncoding::Interval)
            })
            .run(dfs, cluster)
            .unwrap()
            .dataset
    };
    let clean = run(bot_elim::query(params), "ref_botelim", &[]);
    alias(&clean, "clean_logs");
    let labels = run(
        train_data::labels_query(params),
        "ref_labels",
        &["clean_logs"],
    );
    let train_rows = run(
        train_data::train_query(params),
        "ref_train",
        &["clean_logs"],
    );
    alias(&labels, "labels");
    alias(&train_rows, "train_rows");
    let scores = run(
        feature_selection::query(params),
        "ref_scores",
        &["labels", "train_rows"],
    );
    [clean, labels, train_rows, scores]
}

/// One shared `{UserId}` stage plus feature selection publishes the very
/// extent images of the four-job composition — the cleaned log, the
/// labels, the training rows and the scores — on pool threads, under a
/// memory budget that spills, and on two forked workers.
#[test]
fn two_jobs_publish_the_four_job_composition_s_bytes() {
    use timr_suite::mapreduce::cluster::ClusterConfig;
    use timr_suite::mapreduce::BackendKind;
    let spill_dir = std::env::temp_dir().join(format!("bt-two-jobs-spill-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).unwrap();
    let configs = [
        ("threads", ClusterConfig::default()),
        (
            "spill",
            ClusterConfig {
                memory_budget_bytes: Some(16 * 1024),
                spill_dir: Some(spill_dir.clone()),
                ..ClusterConfig::default()
            },
        ),
        (
            "2 workers",
            ClusterConfig {
                backend: BackendKind::Processes { workers: 2 },
                ..ClusterConfig::default()
            },
        ),
    ];
    for seed in [42, 1729] {
        let cfg = GenConfig::small(seed);
        let logs = Dataset::single(timr_suite::adgen::unified_schema(), generate(&cfg).rows());
        let params = BtParams {
            machines: 4,
            horizon: cfg.duration * 2,
            ..Default::default()
        };
        let ref_dfs = Dfs::new();
        ref_dfs.put("logs", logs.clone()).unwrap();
        let reference = four_job_reference(&ref_dfs, &Cluster::new(), &params);
        for (what, config) in &configs {
            let dfs = Dfs::new();
            dfs.put("raw", logs.clone()).unwrap();
            let a = BtPipeline::new(params.clone())
                .run(&dfs, &Cluster::with_config(config.clone()), "raw", "bt")
                .unwrap();
            assert_eq!(a.stats.len(), 2, "{what}");
            let spilled: u64 = (a.stats.iter())
                .flat_map(|(_, s)| &s.stages)
                .map(|s| s.spill_extents)
                .sum();
            assert_eq!(spilled > 0, *what == "spill", "seed {seed}, {what}");
            let published = [&a.clean, &a.labels, &a.train_rows, &a.scores];
            for (name, (got, want)) in ["clean", "labels", "train_rows", "scores"]
                .iter()
                .zip(published.into_iter().zip(&reference))
            {
                let (got, want) = (dfs.get(got).unwrap(), ref_dfs.get(want).unwrap());
                assert!(!want.is_empty(), "seed {seed}: {name} is empty");
                assert_eq!(
                    got.partitions, want.partitions,
                    "seed {seed}, {what}: {name} differs from the four-job composition"
                );
            }
        }
    }
    std::fs::remove_dir_all(&spill_dir).ok();
}
