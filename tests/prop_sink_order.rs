//! The reduce sink's canonical order (`EventEncoding::encode_sink`, an
//! integer sort on lifetime keys and column words) against the comparator
//! sort it replaced (`common::sink_order`): on random event batches both
//! must seal to the same extent bytes.
//!
//! The batches cover every column type, nullable; `Long` and `Int`
//! extremes beside nulls; NaNs of both signs, both zeros and both
//! infinities; strings whose dictionary holds unused entries and entries
//! added after its rank table was read; lifetimes a few ticks apart (heavy
//! ties), more than 2^32 apart, and across the whole `Time` range (the
//! `u128` key); inputs in random order, already sorted, reversed, and in a
//! few sorted runs.

mod common;

use common::sink_order;
use std::sync::Arc;
use timr_suite::relation::column::{Column, ColumnData, Validity};
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{ColumnBatch, Dictionary, Schema, StrCodes};
use timr_suite::temporal::{EventBatch, Time};
use timr_suite::timr::EventEncoding;

type Rng = proptest::TestRng;

fn pick<T: Copy>(rng: &mut Rng, of: &[T]) -> T {
    of[rng.below(of.len() as u64) as usize]
}

/// A dictionary interned out of string order, its rank table read, then
/// grown: codes 0..5 were ranked before codes 5..8 existed. Code 3 is
/// never used.
fn dictionary() -> Arc<Dictionary> {
    let mut dict = Dictionary::new();
    for s in ["m", "", "zz", "unused", "a\0"] {
        dict.intern(s);
    }
    let _ = dict.ranks();
    for s in ["a", "mm", "\u{ff}"] {
        dict.intern(s);
    }
    Arc::new(dict)
}

/// `n` cells of `ty`, each null with probability `nulls / 8`, drawn from
/// a few values so that rows tie.
fn column(ty: ColumnType, n: usize, nulls: u64, dict: &Arc<Dictionary>, rng: &mut Rng) -> Column {
    let null_flags: Vec<bool> = (0..n).map(|_| rng.below(8) < nulls).collect();
    let data = match ty {
        ColumnType::Bool => ColumnData::Bool((0..n).map(|_| rng.below(2) == 1).collect()),
        ColumnType::Int => {
            let ints = [i32::MIN, -1, 0, 7, i32::MAX];
            ColumnData::Int((0..n).map(|_| pick(rng, &ints)).collect())
        }
        ColumnType::Long => {
            let longs = [i64::MIN, i64::MIN + 1, -1, 0, 1 << 40, i64::MAX];
            ColumnData::Long((0..n).map(|_| pick(rng, &longs)).collect())
        }
        ColumnType::Double => {
            let doubles = [
                f64::NAN,
                -f64::NAN,
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -2.5,
                1.0,
            ];
            ColumnData::Double((0..n).map(|_| pick(rng, &doubles)).collect())
        }
        ColumnType::Str => {
            let used = [0u32, 1, 2, 4, 5, 6, 7];
            let codes = (0..n).map(|_| pick(rng, &used)).collect();
            ColumnData::Str(StrCodes::new(Arc::clone(dict), codes))
        }
    };
    Column::new(data, Validity::from_null_flags(&null_flags))
}

/// `n` lifetimes of one of four shapes: a few ticks apart, so that rows
/// tie; more than 2^32 apart; across the whole `Time` range; or points.
fn lifetimes(n: usize, rng: &mut Rng) -> (Vec<Time>, Vec<Time>, EventEncoding) {
    let shape = rng.below(4);
    let mut vt = Vec::with_capacity(n);
    let mut ve = Vec::with_capacity(n);
    for _ in 0..n {
        let (le, re) = match shape {
            0 => {
                let le = rng.below(4) as Time;
                (le, le + 1 + rng.below(3) as Time)
            }
            1 => {
                let le = pick(rng, &[0, 1 << 33, 1 << 40, 5]) + rng.below(2) as Time;
                (le, le + pick(rng, &[1, 1 << 35]))
            }
            2 => {
                let le = pick(rng, &[Time::MIN, Time::MIN + 1, -1, 0, Time::MAX - 1]);
                (le, pick(rng, &[le + 1, Time::MAX]))
            }
            _ => {
                let le = pick(rng, &[Time::MIN, 0, 3, Time::MAX - 1]);
                (le, le + 1)
            }
        };
        vt.push(le);
        ve.push(re);
    }
    let enc = match shape {
        3 => EventEncoding::Point,
        _ => EventEncoding::Interval,
    };
    (vt, ve, enc)
}

/// A random batch and the encoding its lifetimes fit.
fn arb_batch(rng: &mut Rng) -> (EventBatch, EventEncoding) {
    let types = [
        ColumnType::Bool,
        ColumnType::Int,
        ColumnType::Long,
        ColumnType::Double,
        ColumnType::Str,
    ];
    let width = 1 + rng.below(6) as usize;
    let n = rng.below(300) as usize;
    let nulls = rng.below(5);
    let dict = dictionary();
    let (fields, columns): (Vec<Field>, Vec<Column>) = (0..width)
        .map(|c| {
            let ty = pick(rng, &types);
            let field = Field::new(format!("C{c}"), ty);
            (field, column(ty, n, nulls, &dict, rng))
        })
        .unzip();
    let (vt, ve, enc) = lifetimes(n, rng);
    let payload = ColumnBatch::new(Schema::new(fields), columns, n);
    (EventBatch::new(vt, ve, payload), enc)
}

/// `batch`'s rows in the order `idx` names.
fn permute(batch: &EventBatch, idx: &[u32]) -> EventBatch {
    let at = |t: &[Time]| idx.iter().map(|&i| t[i as usize]).collect();
    EventBatch::new(at(batch.vt()), at(batch.ve()), batch.payload().gather(idx))
}

/// `batch` rearranged: as it is, in canonical order, reversed, or in `k`
/// chunks each in canonical order.
fn arrange(batch: EventBatch, rng: &mut Rng) -> EventBatch {
    let sorted = sink_order::canonical_order(&batch);
    match rng.below(4) {
        0 => batch,
        1 => permute(&batch, &sorted),
        2 => permute(&batch, &sorted.into_iter().rev().collect::<Vec<_>>()),
        _ => {
            let mut position = vec![0; sorted.len()];
            for (p, &i) in sorted.iter().enumerate() {
                position[i as usize] = p;
            }
            let k = 2 + rng.below(4) as usize;
            let mut idx: Vec<u32> = (0..batch.len() as u32).collect();
            for chunk in idx.chunks_mut(batch.len().div_ceil(k).max(1)) {
                chunk.sort_by_key(|&i| position[i as usize]);
            }
            permute(&batch, &idx)
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(512))]

    #[test]
    fn the_sink_seals_the_comparator_sort_s_bytes(
        case in proptest::composed(|rng| {
            let (batch, enc) = arb_batch(rng);
            (arrange(batch, rng), enc)
        }),
    ) {
        let (batch, enc) = case;
        let want = sink_order::encode_sink(enc, &batch).to_extent_bytes().unwrap();
        let got = enc.encode_sink(batch).unwrap().to_extent_bytes().unwrap();
        proptest::prop_assert!(got == want, "sealed bytes differ");
    }
}

/// Rows that tie on every lifetime and on every column but the last one,
/// in one run of 200: the last column decides, nulls first, strings by
/// rank.
#[test]
fn long_tie_runs_are_decided_by_the_last_column() {
    let dict = dictionary();
    let n = 200;
    let codes: Vec<u32> = (0..n).map(|i| [7u32, 2, 5, 0, 1][i % 5]).collect();
    let nulls: Vec<bool> = (0..n).map(|i| i % 7 == 0).collect();
    let schema = Schema::new(vec![
        Field::new("L", ColumnType::Long),
        Field::new("S", ColumnType::Str),
    ]);
    let columns = vec![
        Column::new(ColumnData::Long(vec![i64::MIN; n]), None),
        Column::new(
            ColumnData::Str(StrCodes::new(dict, codes)),
            Validity::from_null_flags(&nulls),
        ),
    ];
    let batch = EventBatch::new(vec![1; n], vec![2; n], ColumnBatch::new(schema, columns, n));
    let enc = EventEncoding::Interval;
    let want = sink_order::encode_sink(enc, &batch)
        .to_extent_bytes()
        .unwrap();
    assert_eq!(
        enc.encode_sink(batch).unwrap().to_extent_bytes().unwrap(),
        want
    );
}
