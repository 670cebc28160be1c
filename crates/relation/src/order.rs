//! Order-preserving words: one `u64` per cell whose unsigned order is the
//! order of the cells ([`Column::cmp_cells`], which is [`crate::Value`]'s
//! order inside one column).
//!
//! Sorting by words compares integers and reads no column twice. Two
//! sorts use them, and this module is their one definition:
//! - GroupApply orders its groups by normalized keys, one word per key
//!   cell (`temporal::key`);
//! - the reduce sink puts a partition in canonical order, refining rows
//!   that tie on their lifetime column by column (`timr::bridge`).
//!
//! A valid cell's word:
//! - `Bool`: 1 or 2;
//! - `Int`: the value with its sign bit flipped, plus 1;
//! - `Long`: the value with its sign bit flipped, which takes every word;
//! - `Double`: the bits in IEEE total order ([`f64::total_cmp`]), which
//!   also take every word;
//! - a string: 1 plus its rank in its dictionary ([`Dictionary::ranks`]),
//!   so the order is the strings' order whatever the codes are.
//!
//! A null's word is 0. It is below every other word of a `Bool`, `Int` or
//! string column, so it is exact there. In a `Long` or `Double` column it
//! shares 0 with the lowest value ([`null_word_exact`]). A sort that must
//! be exact puts the cell's validity ahead of its word.
//!
//! [`column_words`] reads a column's words for a list of slots, matching
//! the column's type once; it is the one place a cell becomes a word.
//!
//! [`Dictionary::ranks`]: crate::Dictionary::ranks

use crate::column::{Column, ColumnData};

/// The word of a boolean: 1 or 2 (0 is a null's).
fn bool_word(b: bool) -> u64 {
    1 + b as u64
}

/// The word of an `Int`: its offset from `i32::MIN`, plus 1 (0 is a
/// null's).
fn int_word(v: i32) -> u64 {
    1 + (v as u32 ^ 1 << 31) as u64
}

/// The word of a `Long`: its offset from `i64::MIN`, every word taken, so
/// a null (below `i64::MIN`) shares 0 inexactly.
fn long_word(v: i64) -> u64 {
    v as u64 ^ 1 << 63
}

/// The word of a `Double` in IEEE total order ([`f64::total_cmp`]): a
/// negative value's bits flipped, a positive one's sign bit set. Every word
/// is taken, as for `Long`.
fn double_word(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The words of the slots of `column` that `rows` names, each beside its
/// slot, appended to `out` in the order of `rows`. A null's word is 0; it
/// is exact where [`null_word_exact`] says so. The column's type is matched
/// once, not per slot.
pub fn column_words(column: &Column, rows: &[u32], out: &mut Vec<(u64, u32)>) {
    macro_rules! fill {
        ($word:expr) => {{
            let word = $word;
            match column.validity() {
                None => out.extend(rows.iter().map(|&i| (word(i as usize), i))),
                Some(v) => out.extend(rows.iter().map(|&i| match v.is_valid(i as usize) {
                    true => (word(i as usize), i),
                    false => (0, i),
                })),
            }
        }};
    }
    match column.data() {
        ColumnData::Bool(d) => fill!(|i: usize| bool_word(d[i])),
        ColumnData::Int(d) => fill!(|i: usize| int_word(d[i])),
        ColumnData::Long(d) => fill!(|i: usize| long_word(d[i])),
        ColumnData::Double(d) => fill!(|i: usize| double_word(d[i])),
        ColumnData::Str(d) => {
            let (ranks, codes) = (d.dict().ranks(), d.codes());
            fill!(|i: usize| 1 + u64::from(ranks[codes[i] as usize]))
        }
    }
}

/// Whether a null's word, 0, is exact in `column`: below every other word
/// of a `Bool`, `Int` or string column, but shared with the lowest value
/// of a `Long` or `Double` one.
pub fn null_word_exact(column: &Column) -> bool {
    !matches!(column.data(), ColumnData::Long(_) | ColumnData::Double(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Validity;
    use crate::dict::{Dictionary, StrCodes};
    use std::cmp::Ordering;
    use std::sync::Arc;

    /// Cells where a word is least sure of itself: the extremes of `Int`
    /// and `Long`, both zeros, both NaNs and the infinities, and strings
    /// that share prefixes.
    fn column(ty: usize, rng: &mut proptest::TestRng) -> Column {
        let n = 1 + rng.below(20) as usize;
        let mut pick = |k: usize| rng.below(k as u64) as usize;
        let picks: Vec<usize> = (0..2 * n).map(|_| pick(16)).collect();
        let nulls: Vec<bool> = picks[n..].iter().map(|&p| p < 4).collect();
        let data = match ty {
            0 => ColumnData::Bool(picks[..n].iter().map(|&p| p % 2 == 1).collect()),
            1 => {
                let ints = [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX];
                ColumnData::Int(picks[..n].iter().map(|&p| ints[p % ints.len()]).collect())
            }
            2 => {
                let longs = [i64::MIN, i64::MIN + 1, -1, 0, 1, 1 << 32, i64::MAX];
                ColumnData::Long(picks[..n].iter().map(|&p| longs[p % longs.len()]).collect())
            }
            3 => {
                let doubles = [
                    -0.0,
                    0.0,
                    f64::NAN,
                    -f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::MIN_POSITIVE,
                    -1.5,
                    f64::MAX,
                ];
                let d = picks[..n].iter().map(|&p| doubles[p % doubles.len()]);
                ColumnData::Double(d.collect())
            }
            _ => {
                // Entries interned out of string order, one never used, and
                // two added after the rank table was first read.
                let mut dict = Dictionary::new();
                for s in ["b", "", "abc", "unused", "ab\0"] {
                    dict.intern(s);
                }
                let _ = dict.ranks();
                for s in ["a", "abd"] {
                    dict.intern(s);
                }
                let used = [0u32, 1, 2, 4, 5, 6];
                let codes = picks[..n].iter().map(|&p| used[p % used.len()]).collect();
                ColumnData::Str(StrCodes::new(Arc::new(dict), codes))
            }
        };
        Column::new(data, Validity::from_null_flags(&nulls))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The words order a column as its comparator does: validity, then
        /// the word, is exactly `cmp_cells`; the word alone agrees with it
        /// wherever it differs or both words are exact.
        #[test]
        fn words_order_as_cmp_cells(
            c in proptest::composed(|rng| column(rng.below(5) as usize, rng)),
        ) {
            let slots: Vec<u32> = (0..c.len() as u32).rev().collect();
            let mut words = Vec::new();
            column_words(&c, &slots, &mut words);
            let word = |i: usize| {
                let (w, slot) = words[c.len() - 1 - i];
                assert_eq!(slot as usize, i);
                (w, c.is_valid(i) || null_word_exact(&c))
            };
            for i in 0..c.len() {
                for j in 0..c.len() {
                    let want = c.cmp_cells(i, j);
                    let ((wi, ei), (wj, ej)) = (word(i), word(j));
                    let exact = (c.is_valid(i), wi).cmp(&(c.is_valid(j), wj));
                    proptest::prop_assert_eq!(exact, want, "slots {} {}", i, j);
                    if wi != wj || (ei && ej) {
                        proptest::prop_assert_eq!(wi.cmp(&wj), want, "slots {} {}", i, j);
                    }
                }
            }
        }
    }

    #[test]
    fn integer_words_flip_the_sign_bit() {
        assert_eq!(long_word(i64::MIN), 0);
        assert_eq!(long_word(-1), (1 << 63) - 1);
        assert_eq!(long_word(0), 1 << 63);
        assert_eq!(long_word(i64::MAX), u64::MAX);
        assert_eq!(int_word(i32::MIN), 1);
        assert_eq!(int_word(i32::MAX), 1 << 32);
        assert!(bool_word(false) < bool_word(true));
        assert_eq!(double_word(-0.0).cmp(&double_word(0.0)), Ordering::Less);
        assert!(double_word(f64::NEG_INFINITY) < double_word(-f64::MAX));
        assert!(double_word(f64::MAX) < double_word(f64::INFINITY));
        assert!(double_word(f64::INFINITY) < double_word(f64::NAN));
        assert!(double_word(-f64::NAN) < double_word(f64::NEG_INFINITY));
    }
}
