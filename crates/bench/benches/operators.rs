//! Microbenchmarks for the temporal operators — the engine-level costs
//! behind every TiMR reducer (paper §II-A: "the efficient implementation
//! of aggregation and temporal join in StreamInsight consists of more than
//! 3000 lines of high-level code each"; these benches are why that
//! engineering is worth embedding rather than rewriting per job).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use relation::row;
use relation::schema::{ColumnType, Field};
use relation::Schema;
use temporal::agg::AggExpr;
use temporal::exec::{execute, BatchBindings};
use temporal::{col, Event, EventBatch, EventStream, Query};

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("UserId", ColumnType::Str),
        Field::new("V", ColumnType::Long),
    ])
}

fn point_stream(n: usize, users: usize) -> EventStream {
    EventStream::new(
        schema(),
        (0..n)
            .map(|i| Event::point(i as i64, row![format!("u{}", i % users), i as i64]))
            .collect(),
    )
}

/// Lay each named stream out once as a batch binding; a timed run takes an
/// O(1) clone of the map, as a reducer hands the engine its decoded inputs.
fn batches(pairs: &[(&str, &EventStream)]) -> BatchBindings {
    (pairs.iter())
        .map(|(name, s)| (name.to_string(), EventBatch::from_stream(s).unwrap()))
        .collect()
}

fn bench_windowed_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("windowed_count");
    for n in [1_000usize, 10_000, 50_000] {
        let input = point_stream(n, 100);
        let q = Query::new();
        let out = q
            .source("in", schema())
            .group_apply(&["UserId"], |g| g.window(500).count("N"));
        let plan = q.build(vec![out]).unwrap();
        let srcs = batches(&[("in", &input)]);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| execute(&plan, srcs.clone()).unwrap())
        });
    }
    group.finish();
}

/// GroupApply on two string keys over a SUM of a `Double`, in the shapes
/// `dsms_single` runs (seed 42, per batch):
/// - `scoring`: Scoring's (UserId, AdId), 1 000 users × 5 ads, about
///   290 k events in 5 000 groups. The key packs into 13 bits, so its groups
///   are found through the dense table;
/// - `ubp`: the UBP's (UserId, KwAdId), 1 000 users × 400 keyword-ads, each
///   user's events on 40 of them, 36.6 k events in about 24 k groups. Its
///   19-bit key is too wide for the dense table, so it goes through the
///   map, whose hash mixes the packed word: unmixed, FxHash would take a
///   bucket from the word's low bits alone, the keyword-ad's code and the
///   user's lowest bits.
fn bench_group_apply_sum(c: &mut Criterion) {
    let schema = Schema::new(vec![
        Field::new("UserId", ColumnType::Str),
        Field::new("AdId", ColumnType::Str),
        Field::new("Contribution", ColumnType::Double),
    ]);
    let mut group = c.benchmark_group("group_apply_sum");
    // (name, events, second-key values per user, second-key values)
    let shapes = [("scoring", 290_000, 5, 5), ("ubp", 36_600, 40, 400)];
    for (name, n, per_user, values) in shapes {
        let events = (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
                let user = h % 1_000;
                let ad = (user * 37 + h / 1_000 % per_user) % values;
                let payload = row![
                    format!("u{user}"),
                    format!("ad{ad}"),
                    (i % 97) as f64 * 0.01
                ];
                Event::point(i as i64, payload)
            })
            .collect();
        let input = EventStream::new(schema.clone(), events);
        let q = Query::new();
        let out = q
            .source("in", schema.clone())
            .group_apply(&["UserId", "AdId"], |g| {
                g.aggregate(vec![(
                    "Score".to_string(),
                    AggExpr::Sum(col("Contribution")),
                )])
            });
        let plan = q.build(vec![out]).unwrap();
        let srcs = batches(&[("in", &input)]);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
            b.iter(|| execute(&plan, srcs.clone()).unwrap())
        });
    }
    group.finish();
}

fn bench_temporal_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("temporal_join");
    for n in [1_000usize, 10_000] {
        // Points probing an interval synopsis — the UBP-join shape.
        let left = point_stream(n, 100);
        let right = EventStream::new(
            schema(),
            (0..n / 2)
                .map(|i| {
                    Event::interval(
                        (i * 2) as i64,
                        (i * 2 + 600) as i64,
                        row![format!("u{}", i % 100), i as i64],
                    )
                })
                .collect(),
        );
        let q = Query::new();
        let l = q.source("l", schema());
        let r = q.source("r", schema());
        let out = l.temporal_join(r, &[("UserId", "UserId")], None);
        let plan = q.build(vec![out]).unwrap();
        let srcs = batches(&[("l", &left), ("r", &right)]);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| execute(&plan, srcs.clone()).unwrap())
        });
    }
    group.finish();
}

fn bench_anti_semi_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("anti_semi_join");
    let n = 10_000usize;
    let left = point_stream(n, 100);
    let right = EventStream::new(
        schema(),
        (0..200)
            .map(|i| Event::interval(i * 50, i * 50 + 40, row![format!("u{}", i % 100), 0i64]))
            .collect(),
    );
    let q = Query::new();
    let l = q.source("l", schema());
    let r = q.source("r", schema());
    let out = l.anti_semi_join(r, &[("UserId", "UserId")]);
    let plan = q.build(vec![out]).unwrap();
    let srcs = batches(&[("l", &left), ("r", &right)]);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("points_minus_periods", |b| {
        b.iter(|| execute(&plan, srcs.clone()).unwrap())
    });
    group.finish();
}

fn bench_normalize(c: &mut Criterion) {
    let mut group = c.benchmark_group("normalize");
    let n = 20_000usize;
    let stream = EventStream::new(
        schema(),
        (0..n)
            .map(|i| {
                Event::interval(
                    (i % 1000) as i64,
                    (i % 1000 + 10) as i64,
                    row![format!("u{}", i % 50), 0i64],
                )
            })
            .collect(),
    );
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("coalesce_20k", |b| b.iter(|| stream.normalize()));
    group.finish();
}

fn bench_factor_window_combine(c: &mut Criterion) {
    // PR 8 factor-window rewrite: Q harmonic hopping-window counts over the
    // same keyed stream, executed verbatim (every query re-buckets the raw
    // events) vs after `factor_windows` (one GCD-hop factor window feeds
    // per-query combiners that merge partials).
    let mut group = c.benchmark_group("factor_window_combine");
    let n = 20_000usize;
    let srcs = batches(&[("in", &point_stream(n, 100))]);
    for queries in [2usize, 8] {
        let q = Query::new();
        let src = q.source("in", schema());
        let outs: Vec<_> = (0..queries)
            .map(|i| {
                let hop = 100 * (1 + (i % 3) as i64);
                src.clone()
                    .group_apply(&["UserId"], move |g| g.hop_window(hop, 1200).count("N"))
            })
            .collect();
        let plan = q.build(outs).unwrap();
        let (factored, groups) = temporal::plan::factor_windows(&plan).unwrap();
        assert_eq!(groups, 1, "harmonic cadences must form one factor group");
        group.throughput(Throughput::Elements((n * queries) as u64));
        group.bench_with_input(BenchmarkId::new("unfactored", queries), &plan, |b, p| {
            b.iter(|| execute(p, srcs.clone()).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("factored", queries), &factored, |b, p| {
            b.iter(|| execute(p, srcs.clone()).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_windowed_count, bench_group_apply_sum, bench_temporal_join,
        bench_anti_semi_join, bench_normalize, bench_factor_window_combine
);
criterion_main!(benches);
