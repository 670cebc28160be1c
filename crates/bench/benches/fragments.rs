//! Example 3 / §V-B as a Criterion benchmark: GenTrainData under the
//! optimized single-`{UserId}` annotation vs the naive two-partitioning
//! annotation, plus a hash-bucketing ablation (paper §III-C.3: partition
//! by `hash(key) mod machines`, so machine count trades skew against
//! per-reducer instantiation cost).

use bt::queries::advertisers::click_score_job;
use bt::queries::train_data::{naive_annotation, train_query};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mapreduce::MapperContext;
use timr::{EventEncoding, TimrJob};

fn setup() -> (Vec<relation::Row>, bt::BtParams) {
    let mut cfg = adgen::GenConfig::small(11);
    cfg.users = 500;
    let log = adgen::generate(&cfg);
    let params = bt::BtParams {
        machines: 4,
        ..Default::default()
    };
    (log.rows(), params)
}

fn run(rows: &[relation::Row], params: &bt::BtParams, ann: timr::Annotation, name: &str) {
    let dfs = mapreduce::Dfs::new();
    let schema = EventEncoding::Point.dataset_schema(&bt::queries::log_payload());
    dfs.put(
        "clean_logs",
        mapreduce::Dataset::single(schema, rows.to_vec()),
    )
    .unwrap();
    let query = train_query(params);
    TimrJob::new(name, query.plan.clone())
        .with_annotation(ann)
        .with_machines(params.machines)
        .run(&dfs, &mapreduce::Cluster::new())
        .unwrap();
}

fn bench_fragments(c: &mut Criterion) {
    let (rows, params) = setup();
    let query = train_query(&params);
    // The raw log doubles as a "clean" log here: bot elimination is not
    // the variable under test.
    let mut group = c.benchmark_group("ex3_fragments");
    group.sample_size(10);
    group.bench_function("optimized_userid_once", |b| {
        b.iter(|| run(&rows, &params, query.annotation.clone(), "opt"))
    });
    let naive = naive_annotation(&query.plan);
    group.bench_function("naive_two_partitionings", |b| {
        b.iter(|| run(&rows, &params, naive.clone(), "naive"))
    });
    group.finish();

    // Ablation: hash-bucket (machine) count for the optimized plan.
    let mut group = c.benchmark_group("bucketing_ablation");
    group.sample_size(10);
    for machines in [1usize, 4, 16] {
        let mut p = params.clone();
        p.machines = machines;
        let q = train_query(&p);
        group.bench_with_input(BenchmarkId::from_parameter(machines), &machines, |b, _| {
            b.iter(|| run(&rows, &p, q.annotation.clone(), "bkt"))
        });
    }
    group.finish();
}

/// PR 9: the map-side DSMS fragment of the click-score job — the pushed
/// filter → projection → partial-aggregation chain run over one raw log
/// extent through the [`Mapper`] hook, vs the whole job with push-down on
/// and off (the reduce-only baseline).
///
/// [`Mapper`]: mapreduce::Mapper
fn bench_mapper_fragment(c: &mut Criterion) {
    let (rows, params) = setup();
    let compiled = click_score_job(&params).compile().unwrap();
    let mapper = compiled.stages[0]
        .mapper
        .clone()
        .expect("click-score job pushes a mapper fragment");
    let ctx = MapperContext::standalone("clickscore", 0, 0);
    let schema = EventEncoding::Point.dataset_schema(&bt::queries::log_payload());
    let extent = relation::ColumnBatch::from_rows(&schema, &rows).unwrap();

    let mut group = c.benchmark_group("mapper_fragment");
    group.sample_size(10);
    group.bench_function("dsms_mapper_extent", |b| {
        b.iter(|| mapper.map(&ctx, extent.clone()).expect("fragment maps"))
    });

    let run_job = |push: bool| {
        let dfs = mapreduce::Dfs::new();
        let schema = EventEncoding::Point.dataset_schema(&bt::queries::log_payload());
        dfs.put("logs", mapreduce::Dataset::single(schema, rows.to_vec()))
            .unwrap();
        click_score_job(&params)
            .with_push_down(push)
            .run(&dfs, &mapreduce::Cluster::new())
            .unwrap()
    };
    group.bench_function("clickscore_pushdown_on", |b| b.iter(|| run_job(true)));
    group.bench_function("clickscore_pushdown_off", |b| b.iter(|| run_job(false)));
    group.finish();
}

criterion_group!(benches, bench_fragments, bench_mapper_fragment);
criterion_main!(benches);
