//! The paper's headline application end-to-end: behavioral targeting as
//! temporal queries on TiMR (paper §IV).
//!
//! Generates an ad log with planted keyword/click correlations, runs the
//! two-job pipeline (BotElim, labels and training rows in one
//! `UserId`-keyed stage, then feature selection by `AdId`), trains per-ad logistic regression on z-test-reduced
//! features, and reports what a targeting system cares about: recovered
//! keywords and CTR lift at low coverage.
//!
//! ```text
//! cargo run --release --example behavioral_targeting
//! ```

use timr_suite::adgen::{generate, GenConfig};
use timr_suite::bt::eval::{
    by_ad, lift_coverage, scores_from_examples, split_by_time, train_models, Scheme,
};
use timr_suite::bt::lr::LrConfig;
use timr_suite::bt::pipeline::BtPipeline;
use timr_suite::bt::BtParams;
use timr_suite::mapreduce::{Cluster, Dataset, Dfs};

fn main() {
    // 1. Data: one generated day, 800 users, 5 ad classes with planted
    //    positive/negative keywords (the icarly → deodorant effect).
    let mut cfg = GenConfig::small(7);
    cfg.users = 800;
    let log = generate(&cfg);
    println!(
        "generated {} events; overall CTR {:.3}",
        log.events.len(),
        log.overall_ctr()
    );

    let dfs = Dfs::new();
    dfs.put(
        "logs",
        Dataset::single(timr_suite::adgen::unified_schema(), log.rows()),
    )
    .expect("fresh DFS");

    // 2. The temporal-query pipeline on TiMR.
    let params = BtParams {
        machines: 8,
        horizon: cfg.duration * 2,
        ..Default::default()
    };
    let artifacts = BtPipeline::new(params.clone())
        .run(&dfs, &Cluster::new(), "logs", "bt")
        .expect("pipeline runs");
    for (job, stats) in &artifacts.stats {
        println!(
            "  job {job:<22} stages={} shuffled={} bytes  map {:.1} ms  reduce {:.1} ms",
            stats.stages.len(),
            stats.total_shuffle_bytes(),
            stats.total_map_time().as_secs_f64() * 1e3,
            stats.total_reduce_wall_time().as_secs_f64() * 1e3,
        );
    }

    // 3. What did feature selection find? Top keywords for the deodorant
    //    ad, checked against the generator's ground truth.
    let scores = BtPipeline::load_scores(&dfs, &artifacts.scores).expect("scores");
    let mut deo: Vec<_> = scores.iter().filter(|s| s.ad == "deodorant").collect();
    deo.sort_by(|a, b| b.z.total_cmp(&a.z));
    println!("\ntop keywords for the deodorant ad (z-test, paper Fig 17):");
    for s in deo.iter().take(6) {
        let planted = log.truth.positive_keywords["deodorant"].contains(&s.keyword);
        println!(
            "  {:<12} z = {:>6.2}   planted positive: {planted}",
            s.keyword, s.z
        );
    }

    // 4. Train and evaluate: 50/50 time split, KE-z at 80% confidence.
    let examples = BtPipeline::load_examples(&dfs, &artifacts.labels, &artifacts.train_rows)
        .expect("examples");
    let mid = cfg.duration / 2;
    let (train, test) = split_by_time(&examples, mid);
    let train_scores = scores_from_examples(&train, params.min_support, params.min_example_support);
    let scheme = Scheme::KeZ { threshold: 1.28 };
    let models = train_models(&by_ad(&train), &scheme, &train_scores, &LrConfig::default());

    println!("\nCTR lift at low coverage (test split):");
    let test_by_ad = by_ad(&test);
    for (ad, model) in &models {
        let Some(test_examples) = test_by_ad.get(ad) else {
            continue;
        };
        let curve = lift_coverage(ad, model, test_examples, &scheme, &train_scores, &[0.1]);
        println!(
            "  {:<10} lift@10% = {:+.3} (test CTR {:.3}; {} model dims, {:.2} mean UBP entries)",
            ad,
            curve[0].lift,
            curve[0].ctr - curve[0].lift,
            model.dimensions,
            model.mean_entries
        );
    }
}
