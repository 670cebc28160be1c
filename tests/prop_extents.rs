//! Property tests for the binary columnar extent format (PR 6).
//!
//! The extent codec is the native representation at every stage boundary —
//! DFS datasets, shuffle chunks, persisted files — so three properties
//! carry the whole design:
//!
//! 1. **Round-trip fidelity**: encode → decode reproduces the batch
//!    exactly for every column type, null-heavy data, and empty batches.
//! 2. **Canonical bytes**: re-encoding a decoded extent reproduces the
//!    original bytes bit-for-bit. Corruption recovery *rebuilds* extents
//!    from verified inputs and asserts byte-identity, so encoding must be
//!    a pure function of the logical content.
//! 3. **No silent decode**: flipping any single byte of an extent image is
//!    detected by the per-column/footer FxHash frames — and a cluster run
//!    whose shuffle chunks are corrupted by a [`ChaosPlan`] rebuilds them
//!    and still produces byte-identical output (paper §III-C.1).

use proptest::prelude::*;
use std::sync::Arc;
use timr_suite::mapreduce::job::IdentityReducer;
use timr_suite::mapreduce::{
    ChaosPlan, Cluster, ClusterConfig, Dataset, Dfs, Partitioner, RetryPolicy, Stage, StoredExtent,
    TaskPhase,
};
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{extent, ColumnBatch, Row, Schema, Value};

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("B", ColumnType::Bool),
        Field::new("I", ColumnType::Int),
        Field::new("L", ColumnType::Long),
        Field::new("D", ColumnType::Double),
        Field::new("S", ColumnType::Str),
    ])
}

fn arb_row() -> impl Strategy<Value = Row> {
    (
        any::<bool>(),
        -1000i32..1000,
        -1_000_000i64..1_000_000,
        -1e9f64..1e9,
        0u16..40,
        0u8..32,
    )
        .prop_map(|(b, i, l, d, s, nulls)| {
            let mut vals = vec![
                Value::Bool(b),
                Value::Int(i),
                Value::Long(l),
                Value::Double(d),
                Value::str(format!("user-{s}")),
            ];
            for (k, v) in vals.iter_mut().enumerate() {
                if nulls & (1 << k) != 0 {
                    *v = Value::Null;
                }
            }
            Row::new(vals)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Encode → decode is lossless for any mix of types and nulls,
    /// including the empty batch, and decoded extents re-encode to the
    /// exact original bytes (canonical form).
    #[test]
    fn extents_round_trip_and_are_canonical(rows in prop::collection::vec(arb_row(), 0..120)) {
        let batch = ColumnBatch::from_rows(&schema(), &rows).unwrap();
        let bytes = batch.to_extent_bytes().unwrap();
        extent::verify_extent(&bytes).unwrap();
        let (schema_back, n) = extent::extent_info(&bytes).unwrap();
        prop_assert_eq!(&schema_back, batch.schema());
        prop_assert_eq!(n, rows.len());
        let decoded = ColumnBatch::from_extent_bytes(&bytes).unwrap();
        prop_assert_eq!(decoded.to_rows(), rows);
        prop_assert_eq!(decoded.to_extent_bytes().unwrap(), bytes);
    }

    /// Any single random byte flip is detected — decode never silently
    /// returns wrong data.
    #[test]
    fn random_byte_flip_is_detected(
        rows in prop::collection::vec(arb_row(), 1..80),
        pos in 0usize..1_000_000,
    ) {
        let batch = ColumnBatch::from_rows(&schema(), &rows).unwrap();
        let mut bytes = batch.to_extent_bytes().unwrap();
        let i = pos % bytes.len();
        bytes[i] ^= 0xFF;
        let verify = extent::verify_extent(&bytes);
        let decode = ColumnBatch::from_extent_bytes(&bytes);
        prop_assert!(
            verify.is_err() && decode.is_err(),
            "flip at byte {} of {} slipped through", i, bytes.len()
        );
    }

    /// A dataset is its sealed extents: `Dataset::partitioned` then
    /// `iter`, `scan`, `len` and `batch(i)` give back exactly the rows, extent
    /// by extent; and one extent equals (and hashes like) another exactly
    /// when their images are the same bytes.
    #[test]
    fn datasets_round_trip_and_extents_are_their_bytes(
        rows in prop::collection::vec(arb_row(), 0..120),
        cuts in 1usize..5,
        flip in 0usize..1_000_000,
    ) {
        let per_extent = rows.len().div_ceil(cuts).max(1);
        let parts: Vec<Vec<Row>> = rows.chunks(per_extent).map(<[Row]>::to_vec).collect();
        let ds = Dataset::partitioned(schema(), parts.clone());
        ds.verify().unwrap();
        prop_assert_eq!(ds.len(), rows.len());
        prop_assert_eq!(ds.scan(), rows.clone());
        prop_assert_eq!(ds.iter().collect::<Vec<_>>(), rows);
        for (i, part) in parts.iter().enumerate() {
            prop_assert_eq!(ds.batch(i).unwrap().to_rows(), part.clone());
            prop_assert_eq!(ds.extents()[i].rows, part.len() as u64);
        }
        let again = Dataset::partitioned(schema(), parts);
        prop_assert_eq!(&ds.partitions, &again.partitions);
        let digest = |d: &Dataset| timr_suite::relation::hash::stable_hash(d.partitions.as_ref());
        prop_assert_eq!(digest(&ds), digest(&again));
        if let Some(first) = ds.extents().first() {
            let mut bytes = first.bytes.as_ref().clone();
            let at = flip % bytes.len();
            bytes[at] ^= 1;
            let flipped = StoredExtent { bytes: Arc::new(bytes), ..first.clone() };
            prop_assert!(&flipped != first, "a flipped byte at {} went unseen", at);
            let relabelled = StoredExtent { rows: first.rows + 1, width: 0, ..first.clone() };
            prop_assert!(&relabelled == first, "equality looks past the bytes");
        }
    }
}

/// Exhaustive sweep: every byte position of a representative extent —
/// column buffers, validity bitmaps, dictionary pages, footer, hash
/// fields, and magic — is covered by some integrity check.
#[test]
fn every_byte_position_is_protected() {
    let rows: Vec<Row> = (0..64)
        .map(|i| {
            Row::new(vec![
                Value::Bool(i % 3 == 0),
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                },
                Value::Long(i as i64 * 1_000_003),
                Value::Double(i as f64 * 0.25),
                Value::str(format!("kw{}", i % 5)), // dictionary-friendly
            ])
        })
        .collect();
    let batch = ColumnBatch::from_rows(&schema(), &rows).unwrap();
    let bytes = batch.to_extent_bytes().unwrap();
    for i in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0xFF;
        assert!(
            ColumnBatch::from_extent_bytes(&corrupted).is_err(),
            "byte {i} of {} decoded despite corruption",
            bytes.len()
        );
    }
}

/// Truncation at any length is detected, never decoded as a shorter batch.
#[test]
fn every_truncation_is_detected() {
    let rows: Vec<Row> = (0..32)
        .map(|i| {
            Row::new(vec![
                Value::Bool(true),
                Value::Int(i),
                Value::Long(0),
                Value::Double(0.0),
                Value::str("u"),
            ])
        })
        .collect();
    let batch = ColumnBatch::from_rows(&schema(), &rows).unwrap();
    let bytes = batch.to_extent_bytes().unwrap();
    for len in 0..bytes.len() {
        assert!(
            ColumnBatch::from_extent_bytes(&bytes[..len]).is_err(),
            "truncation to {len} of {} decoded",
            bytes.len()
        );
    }
}

/// ChaosPlan corrupt targeting now lands on binary column buffers: the
/// cluster detects the damage via the per-column frames, rebuilds the
/// chunk from verified inputs, and the job output stays byte-identical to
/// a clean run — with and without a memory budget forcing spilled chunks.
#[test]
fn chaos_corruption_of_binary_extents_rebuilds_byte_identically() {
    let schema = Schema::timestamped(vec![
        Field::new("UserId", ColumnType::Str),
        Field::new("N", ColumnType::Long),
    ]);
    let rows: Vec<Row> = (0..400)
        .map(|i| {
            Row::new(vec![
                Value::Long(i),
                Value::str(format!("u{}", i % 11)),
                Value::Long(i * 3),
            ])
        })
        .collect();
    let input = || {
        Dataset::partitioned(
            schema.clone(),
            rows.chunks(100).map(|c| c.to_vec()).collect(),
        )
    };
    let stage = || {
        Stage::new(
            "copy",
            vec!["in".into()],
            "out",
            Partitioner::KeyHash {
                columns: vec!["UserId".into()],
            },
            4,
            Arc::new(IdentityReducer),
        )
        .unwrap()
    };
    let run = |chaos: ChaosPlan, budget: Option<u64>| {
        let dfs = Dfs::new();
        dfs.put("in", input()).unwrap();
        let cluster = Cluster::with_config(ClusterConfig {
            threads: 4,
            chaos,
            retry: RetryPolicy::no_backoff(3),
            memory_budget_bytes: budget,
            ..ClusterConfig::default()
        });
        let stats = cluster.run_stage(&dfs, &stage()).unwrap();
        (dfs.get("out").unwrap().partitions.as_ref().clone(), stats)
    };
    let (clean, _) = run(ChaosPlan::none(), None);
    for budget in [None, Some(2048)] {
        let (recovered, stats) = run(
            ChaosPlan::none()
                .corrupt("copy", TaskPhase::Shuffle, 0)
                .corrupt("copy", TaskPhase::Shuffle, 3),
            budget,
        );
        assert_eq!(
            clean, recovered,
            "rebuild must be byte-identical (budget={budget:?})"
        );
        assert_eq!(stats.corruption_detected, 2, "budget={budget:?}");
        assert!(stats.task_retries >= 2, "budget={budget:?}");
    }
}

/// The encoded image is a persisted format: the bytes of a fixed batch —
/// dictionary-coded and raw strings, nulls in every column — are pinned
/// by digest, so an encoder change that alters them cannot pass as a
/// refactor. (Digests taken at commit 7678c1d, before the one-pass
/// dictionary builder.)
#[test]
fn encoded_bytes_are_pinned() {
    let rows = |distinct: i32| -> Vec<Row> {
        (0..200)
            .map(|i| {
                if i % 13 == 0 {
                    return Row::new(vec![Value::Null; 5]);
                }
                Row::new(vec![
                    Value::Bool(i % 3 == 0),
                    Value::Int(i - 100),
                    Value::Long(i as i64 * 1_000_003),
                    Value::Double(i as f64 / 7.0),
                    Value::str(format!("user-{}", i % distinct)),
                ])
            })
            .collect()
    };
    for (distinct, len, digest) in [
        (9, PINNED_DICT.0, PINNED_DICT.1),
        (1000, PINNED_RAW.0, PINNED_RAW.1),
    ] {
        let bytes = ColumnBatch::from_rows(&schema(), &rows(distinct))
            .unwrap()
            .to_extent_bytes()
            .unwrap();
        assert_eq!(
            (bytes.len(), timr_suite::relation::hash::stable_hash(&bytes)),
            (len, digest),
            "{distinct} distinct strings"
        );
    }
}

const PINNED_DICT: (usize, u64) = (3310, 18161363459153134814);
const PINNED_RAW: (usize, u64) = (4616, 14424499352856005425);
