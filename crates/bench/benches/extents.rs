//! The extent codec alone, over the seed-42 log (1 000 users, the
//! benchmark's default) cut into its 8 extents as `perfbench` cuts it:
//!
//! - `encode/from_rows` — batches built from rows (`ColumnBatch::from_rows`,
//!   one `Arc` per string cell), which is how every set-up seals the log;
//! - `encode/decoded` — the same batches decoded from their images (one
//!   `Arc` per distinct string), which is what every shuffle chunk seals;
//! - `encode/selection` — each decoded extent as 8 key-hash partitions,
//!   encoded straight from the batch as `RowSelection`s, as a map task
//!   seals its chunks;
//! - `decode` — the images back into batches.
//!
//! Each case reports MB/s of image bytes. Run with
//! `cargo bench -p bench --bench extents`.

use adgen::GenConfig;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use relation::extent::{decode_extent, encode_extent, RowSelection};
use relation::{ColumnBatch, Row};

const EXTENTS: usize = 8;

fn bench_extents(c: &mut Criterion) {
    let mut cfg = GenConfig::small(42);
    cfg.users = 1000;
    let rows = adgen::generate(&cfg).rows();
    let schema = adgen::unified_schema();
    let per_extent = rows.len().div_ceil(EXTENTS).max(1);
    let from_rows: Vec<ColumnBatch> = rows
        .chunks(per_extent)
        .map(|part: &[Row]| ColumnBatch::from_rows(&schema, part).unwrap())
        .collect();
    let images: Vec<Vec<u8>> = from_rows
        .iter()
        .map(|b| encode_extent(b).unwrap())
        .collect();
    let decoded: Vec<ColumnBatch> = images.iter().map(|b| decode_extent(b).unwrap()).collect();
    let partitions: Vec<Vec<Vec<u32>>> = decoded
        .iter()
        .map(|batch| {
            let user = batch.schema().index_of("UserId").unwrap();
            let mut parts = vec![Vec::new(); EXTENTS];
            for (r, h) in batch.key_hashes(&[user]).into_iter().enumerate() {
                parts[(h % EXTENTS as u64) as usize].push(r as u32);
            }
            parts
        })
        .collect();
    let bytes: usize = images.iter().map(Vec::len).sum();

    let mut group = c.benchmark_group("extents");
    group.sample_size(30);
    group.throughput(Throughput::Bytes(bytes as u64));
    group.bench_function("encode/from_rows", |b| {
        b.iter(|| {
            for batch in &from_rows {
                black_box(encode_extent(batch).unwrap());
            }
        })
    });
    group.bench_function("encode/decoded", |b| {
        b.iter(|| {
            for batch in &decoded {
                black_box(encode_extent(batch).unwrap());
            }
        })
    });
    group.bench_function("encode/selection", |b| {
        b.iter(|| {
            for (batch, parts) in decoded.iter().zip(&partitions) {
                for idx in parts {
                    black_box(encode_extent(RowSelection::new(batch, idx)).unwrap());
                }
            }
        })
    });
    group.bench_function("decode", |b| {
        b.iter(|| {
            for image in &images {
                black_box(decode_extent(image).unwrap());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_extents);
criterion_main!(benches);
