//! Zero-allocation grouping/join keys.
//!
//! A `Vec<Value>` key per *event*, used as a `HashMap` key, costs one heap
//! allocation plus value clones for every event. A [`KeySelector`] instead
//! resolves the key columns to indices once and reads the key cells **in
//! place**. A key is only materialized with [`KeySelector::extract_batch`]
//! when one is needed per *group*, never per event.
//!
//! Inside one batch, a key is its **exact words** ([`GroupWords`]), one
//! integer per key cell: a string's code in its column's dictionary (whose
//! entries are distinct, so equal codes are equal strings and the converse
//! holds), an `Int`'s, `Long`'s or `Bool`'s value and a `Double`'s bits
//! (bit equality is [`relation::Column::cells_equal`]'s: `-0.0 ≠ 0.0`, a
//! NaN equals itself), and for a column with nulls a null flag of its own.
//! Two rows share a key exactly when their words are equal, so GroupApply
//! groups on integers and compares no cell. When every cell's words fit in
//! 64 bits together the key is one packed word; otherwise it is a row of
//! words.
//!
//! Across two batches — a join's sides, whose dictionaries differ — a key
//! is hashed in place ([`KeySelector::group_hashes`]: a string cell reads
//! its dictionary's cached hash, so no key byte is hashed), and distinct
//! keys that collide on the hash are separated by comparing cells.
//!
//! Keys are ordered through **normalized keys** ([`NormalizedKeys`]): each
//! key cell becomes one `u64` whose order is the cells' order, so sorting
//! groups compares integers and reads no column. The words are
//! [`relation::order`]'s, the definition the reduce sink's canonical order
//! shares. A string's word is its rank in its dictionary, which is exact. A
//! word that does not determine its cell — a null in a 64-bit column — is
//! marked inexact, and only a tie on such a word asks the exact comparator
//! ([`KeySelector::cmp_batch`]). When a key's words fit in 64 bits
//! together ([`KeySelector::packed_ranks`]) they are packed into one, and
//! groups sort on that integer alone.

use crate::error::{Result, TemporalError};
use relation::order::{column_words, null_word_exact};
use relation::{Column, ColumnBatch, ColumnData, Schema, Value};
use std::cmp::Ordering;

/// Every row's group key in one batch, as exact words (see the module
/// docs): equal words, equal keys.
#[derive(Debug)]
pub(crate) struct GroupWords {
    /// Words per row: 1 when the key is packed.
    pub(crate) width: usize,
    /// Row `i`'s key is `words[i * width..][..width]`.
    pub(crate) words: Vec<u64>,
    /// A packed key's width in bits: it takes the low `bits` bits of its
    /// one word. `None` for a wider key.
    pub(crate) packed_bits: Option<u32>,
}

/// A bijection of `u64` that spreads every input bit over the low bits:
/// what a key's words go through before a map hashes them. FxHash takes a
/// bucket from the low bits of one multiply, and those depend only on the
/// word's low bits, which in a packed key are its last column's and the
/// lowest of the one before.
#[inline]
pub(crate) fn mix(mut w: u64) -> u64 {
    // The 64-bit finalizer of MurmurHash3.
    w ^= w >> 33;
    w = w.wrapping_mul(0xff51_afd7_ed55_8ccd);
    w ^= w >> 33;
    w = w.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    w ^ w >> 33
}

/// Bits needed to write `max`.
fn bits_for(max: u64) -> u32 {
    u64::BITS - max.leading_zeros()
}

/// How many bits a valid cell's exact word takes in `column`: a string's
/// code, an integer's or boolean's value, a double's bits.
fn value_bits(column: &Column) -> u32 {
    match column.data() {
        ColumnData::Bool(_) => 1,
        ColumnData::Int(_) => 32,
        ColumnData::Long(_) | ColumnData::Double(_) => 64,
        ColumnData::Str(d) => bits_for(d.dict().len().saturating_sub(1) as u64),
    }
}

/// Call `put(i, word)` with the exact word of every row's cell of `column`,
/// 0 for a null. The column's type is matched once, not per row.
#[inline]
fn cell_words(column: &Column, mut put: impl FnMut(usize, u64)) {
    macro_rules! each {
        ($d:expr, $word:expr) => {{
            let word = $word;
            match column.validity() {
                None => ($d.iter().enumerate()).for_each(|(i, &x)| put(i, word(x))),
                Some(v) => ($d.iter().enumerate())
                    .for_each(|(i, &x)| put(i, if v.is_valid(i) { word(x) } else { 0 })),
            }
        }};
    }
    match column.data() {
        ColumnData::Bool(d) => each!(d, |x: bool| x as u64),
        ColumnData::Int(d) => each!(d, |x: i32| x as u32 as u64),
        ColumnData::Long(d) => each!(d, |x: i64| x as u64),
        ColumnData::Double(d) => each!(d, f64::to_bits),
        ColumnData::Str(d) => each!(d.codes(), u64::from),
    }
}

/// Key columns of one schema, resolved to indices.
#[derive(Debug, Clone)]
pub struct KeySelector {
    indices: Vec<usize>,
}

impl KeySelector {
    /// Resolve `names` against `schema`.
    pub fn new<S: AsRef<str>>(schema: &Schema, names: &[S]) -> Result<Self> {
        let indices = names
            .iter()
            .map(|n| schema.index_of(n.as_ref()).map_err(TemporalError::from))
            .collect::<Result<Vec<_>>>()?;
        Ok(KeySelector { indices })
    }

    /// The engine's key hash of every row ([`ColumnBatch::group_hashes`]):
    /// equal keys hash equal in any batch, whatever its dictionaries, and
    /// nothing outside one operator sees it.
    pub fn group_hashes(&self, batch: &ColumnBatch) -> Vec<u64> {
        batch.group_hashes(&self.indices)
    }

    /// Order rows `i` and `j` of a column batch by their key cells — the
    /// order of their materialized keys, read off the key columns.
    pub fn cmp_batch(&self, batch: &ColumnBatch, i: usize, j: usize) -> Ordering {
        self.indices
            .iter()
            .map(|&c| batch.column(c).cmp_cells(i, j))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Materialize the key of row `i` of a column batch (used once per
    /// group, not per event).
    pub fn extract_batch(&self, batch: &ColumnBatch, i: usize) -> Vec<Value> {
        self.indices
            .iter()
            .map(|&c| batch.column(c).value(i))
            .collect()
    }

    /// The resolved key column indices.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Every row's key as exact words: packed into one word when the key
    /// columns' value bits and null flags fit in 64 together, else one
    /// word per key column and then the null flags.
    pub(crate) fn group_words(&self, batch: &ColumnBatch) -> GroupWords {
        let n = batch.len();
        let columns: Vec<&Column> = self.indices.iter().map(|&c| batch.column(c)).collect();
        let nullable = |c: &Column| c.validity().is_some();
        let bits: u32 = (columns.iter())
            .map(|c| value_bits(c) + nullable(c) as u32)
            .sum();
        if bits <= u64::BITS {
            let mut words = vec![0u64; n];
            for column in &columns {
                let value = value_bits(column);
                let shift = value + nullable(column) as u32;
                cell_words(column, |i, w| {
                    words[i] = words[i].checked_shl(shift).unwrap_or(0) | w;
                });
                if let Some(v) = column.validity() {
                    let null = 1u64 << value;
                    (words.iter_mut().enumerate())
                        .filter(|(i, _)| !v.is_valid(*i))
                        .for_each(|(_, w)| *w |= null);
                }
            }
            return GroupWords {
                width: 1,
                words,
                packed_bits: Some(bits),
            };
        }
        // The null flags follow the cells, 64 to a word.
        let cells = columns.len();
        let width = cells + cells.div_ceil(64);
        let mut words = vec![0u64; n * width];
        for (c, column) in columns.iter().enumerate() {
            cell_words(column, |i, w| words[i * width + c] = w);
            if let Some(v) = column.validity() {
                for i in (0..n).filter(|&i| !v.is_valid(i)) {
                    words[i * width + cells + c / 64] |= 1 << (c % 64);
                }
            }
        }
        GroupWords {
            width,
            words,
            packed_bits: None,
        }
    }

    /// The keys of the batch rows `rows`, each as one word whose order is
    /// the keys' order, when the key columns' order words
    /// ([`relation::order`]) fit in 64 bits together: a string's rank word
    /// takes the bits of its dictionary's length, an `Int`'s 33, a
    /// `Bool`'s 2, a `Long`'s or `Double`'s 64, and one more ahead of it
    /// when the column has nulls, whose word 0 is inexact there. `None`
    /// when they do not fit.
    pub(crate) fn packed_ranks(&self, batch: &ColumnBatch, rows: &[u32]) -> Option<Vec<u64>> {
        let columns: Vec<&Column> = self.indices.iter().map(|&c| batch.column(c)).collect();
        let bits = |c: &Column| match c.data() {
            ColumnData::Bool(_) => 2,
            ColumnData::Int(_) => 33,
            ColumnData::Long(_) | ColumnData::Double(_) => 64 + c.validity().is_some() as u32,
            ColumnData::Str(d) => bits_for(d.dict().len() as u64),
        };
        if columns.iter().map(|c| bits(c)).sum::<u32>() > u64::BITS {
            return None;
        }
        let mut keys = vec![0u64; rows.len()];
        let mut words = Vec::with_capacity(rows.len());
        for column in columns {
            words.clear();
            column_words(column, rows, &mut words);
            let shift = bits(column);
            for (key, &(word, _)) in keys.iter_mut().zip(&words) {
                *key = key.checked_shl(shift).unwrap_or(0) | word;
            }
        }
        Some(keys)
    }

    /// The normalized keys of the batch rows `rows`, key `k` being row
    /// `rows[k]`'s, read straight off the key columns.
    pub(crate) fn normalize_batch(&self, batch: &ColumnBatch, rows: &[usize]) -> NormalizedKeys {
        let mut keys = NormalizedKeys::new(self.indices.len(), rows.len());
        let rows: Vec<u32> = rows.iter().map(|&i| i as u32).collect();
        let mut words = Vec::with_capacity(rows.len());
        for (c, &col) in self.indices.iter().enumerate() {
            let column = batch.column(col);
            let null_exact = null_word_exact(column);
            words.clear();
            column_words(column, &rows, &mut words);
            for (k, &(word, i)) in words.iter().enumerate() {
                keys.set(k, c, (word, null_exact || column.is_valid(i as usize)));
            }
        }
        keys
    }
}

/// Keys as order-preserving words, one per key cell: if two cells' words
/// differ, their order is the cells' order; if the words are equal and
/// both are exact, the cells are equal.
#[derive(Debug)]
pub(crate) struct NormalizedKeys {
    /// Cells per key.
    width: usize,
    /// Key `k`'s cell `c` at `k * width + c`.
    words: Vec<u64>,
    exact: Vec<bool>,
}

impl NormalizedKeys {
    fn new(width: usize, keys: usize) -> NormalizedKeys {
        NormalizedKeys {
            width,
            words: vec![0; width * keys],
            exact: vec![true; width * keys],
        }
    }

    fn set(&mut self, k: usize, c: usize, (word, exact): (u64, bool)) {
        self.words[k * self.width + c] = word;
        self.exact[k * self.width + c] = exact;
    }

    /// Order keys `a` and `b` by their words, cell by cell: `None` when the
    /// first cell they tie on has an inexact word, which the words cannot
    /// order.
    #[inline]
    pub(crate) fn cmp(&self, a: usize, b: usize) -> Option<Ordering> {
        let (a, b) = (a * self.width, b * self.width);
        for c in 0..self.width {
            let (x, y) = (a + c, b + c);
            match self.words[x].cmp(&self.words[y]) {
                Ordering::Equal if self.exact[x] && self.exact[y] => {}
                Ordering::Equal => return None,
                order => return Some(order),
            }
        }
        Some(Ordering::Equal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::hash::{key_hash, values_hash};
    use relation::row;
    use relation::schema::{ColumnType, Field};
    use relation::Row;

    /// The key of `row` under `sel`, materialized: the reference the batch
    /// methods are held to.
    fn extract(sel: &KeySelector, row: &Row) -> Vec<Value> {
        sel.indices().iter().map(|&i| row.get(i).clone()).collect()
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("Time", ColumnType::Long),
            Field::new("UserId", ColumnType::Str),
            Field::new("KwAdId", ColumnType::Str),
        ])
    }

    #[test]
    fn hash_agrees_with_materialized_key_hash() {
        let s = schema();
        let sel = KeySelector::new(&s, &["UserId", "KwAdId"]).unwrap();
        let r = row![5i64, "u1", "adA"];
        assert_eq!(key_hash(&r, sel.indices()), values_hash(&extract(&sel, &r)));
    }

    /// Two batches laid out apart hold their strings under different
    /// codes; equal keys still hash equal, unequal ones (here) do not.
    #[test]
    fn group_hashes_agree_across_dictionaries() {
        let s = schema();
        let sel = KeySelector::new(&s, &["UserId", "KwAdId"]).unwrap();
        let null_user = |t: i64| Row::new(vec![Value::Long(t), Value::Null, Value::str("adA")]);
        let a = vec![
            row![5i64, "u1", "adA"],
            row![6i64, "u2", "adB"],
            null_user(7),
        ];
        let b = vec![
            null_user(1),
            row![2i64, "u3", "adC"],
            row![3i64, "u1", "adA"],
        ];
        let hash = |rows: &[Row]| sel.group_hashes(&ColumnBatch::from_rows(&s, rows).unwrap());
        let (ha, hb) = (hash(&a), hash(&b));
        for (i, x) in a.iter().enumerate() {
            for (j, y) in b.iter().enumerate() {
                let equal = extract(&sel, x) == extract(&sel, y);
                assert_eq!(ha[i] == hb[j], equal, "rows {i} and {j}");
            }
        }
    }

    /// Row `i`'s words.
    fn group_key(words: &GroupWords, i: usize) -> Vec<u64> {
        words.words[i * words.width..][..words.width].to_vec()
    }

    #[test]
    fn batch_compare_and_extract_agree_with_the_rows() {
        let s = schema();
        let sel = KeySelector::new(&s, &["UserId", "KwAdId"]).unwrap();
        let rows = vec![
            row![5i64, "u1", "adA"],
            row![6i64, "u1", "adA"],
            row![7i64, "u1", "adB"],
            relation::Row::new(vec![Value::Long(8), Value::Null, Value::str("adA")]),
            relation::Row::new(vec![Value::Long(9), Value::Null, Value::str("adA")]),
        ];
        let batch = ColumnBatch::from_rows(&s, &rows).unwrap();
        for (i, a) in rows.iter().enumerate() {
            assert_eq!(sel.extract_batch(&batch, i), extract(&sel, a));
            for (j, b) in rows.iter().enumerate() {
                assert_eq!(
                    group_key(&sel.group_words(&batch), i)
                        == group_key(&sel.group_words(&batch), j),
                    extract(&sel, a) == extract(&sel, b)
                );
                assert_eq!(
                    sel.cmp_batch(&batch, i, j),
                    extract(&sel, a).cmp(&extract(&sel, b))
                );
            }
        }
    }

    /// Cells built to sit where a normalized word is least sure of itself:
    /// nulls, the empty string, NUL bytes, strings that share 7-, 8- and
    /// 15-byte prefixes, the extremes of `Long` and `Int`, `-0.0`, both
    /// NaNs and the infinities.
    fn adversarial(ty: ColumnType, rng: &mut proptest::TestRng) -> Value {
        if rng.below(6) == 0 {
            return Value::Null;
        }
        let pick = |rng: &mut proptest::TestRng, n: usize| rng.below(n as u64) as usize;
        match ty {
            ColumnType::Bool => Value::Bool(rng.below(2) == 1),
            ColumnType::Int => {
                let ints = [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX];
                Value::Int(ints[pick(rng, ints.len())])
            }
            ColumnType::Long => {
                let longs = [i64::MIN, i64::MIN + 1, -1, 0, 1, 1 << 32, i64::MAX];
                Value::Long(longs[pick(rng, longs.len())])
            }
            ColumnType::Double => {
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
                Value::Double(doubles[pick(rng, doubles.len())])
            }
            ColumnType::Str => {
                let strs = [
                    "",
                    "\0",
                    "\0\0",
                    "a",
                    "a\0",
                    "abcdefg",
                    "abcdefg\0",
                    "abcdefgh",
                    "abcdefgi",
                    "abcdefgh\0",
                    "abcdefghijklmno",
                    "abcdefghijklmnp",
                    "abcdefghijklmno\0",
                    "abcdefghijklmnoX",
                    "\u{ff}",
                    "é",
                ];
                Value::str(strs[pick(rng, strs.len())])
            }
        }
    }

    /// Every column type, then a `Long` column a row may fill with a
    /// string (row storage allows it; a batch has no such row).
    fn typed_schema() -> Schema {
        Schema::new(vec![
            Field::new("S", ColumnType::Str),
            Field::new("L", ColumnType::Long),
            Field::new("D", ColumnType::Double),
            Field::new("I", ColumnType::Int),
            Field::new("B", ColumnType::Bool),
            Field::new("T", ColumnType::Str),
            Field::new("M", ColumnType::Long),
        ])
    }

    fn arb_rows(rng: &mut proptest::TestRng) -> Vec<Row> {
        let schema = typed_schema();
        let n = 1 + rng.below(24) as usize;
        (0..n)
            .map(|_| {
                let mut cells: Vec<Value> = (schema.fields().iter())
                    .map(|f| adversarial(f.ty, rng))
                    .collect();
                if rng.below(4) == 0 {
                    cells[6] = Value::str("mixed");
                }
                Row::new(cells)
            })
            .collect()
    }

    /// The selectors under test: each column alone, and pairs whose first
    /// cell is often an inexact tie (long strings, null `Long`s).
    fn selectors() -> Vec<KeySelector> {
        let keys: [&[&str]; 10] = [
            &["S"],
            &["L"],
            &["D"],
            &["I"],
            &["B"],
            &["S", "L"],
            &["L", "S"],
            &["S", "T"],
            &["D", "I", "B"],
            &["M", "S"],
        ];
        (keys.iter())
            .map(|k| KeySelector::new(&typed_schema(), k).unwrap())
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The normalized-key order is the exact order, key for key: where
        /// the words decide, they decide as `cmp_batch` does (where they do
        /// not, the sort asks it), and that is the materialized keys' order.
        /// A packed rank word orders as it does, and two rows have equal
        /// group words exactly when their keys are equal.
        #[test]
        fn normalized_keys_order_as_the_exact_comparators(
            rows in proptest::composed(arb_rows),
        ) {
            let all: Vec<usize> = (0..rows.len()).collect();
            let batch_rows: Vec<Row> = (rows.iter())
                .map(|r| {
                    let mut cells = r.values().to_vec();
                    if cells[6].as_str().is_some() {
                        cells[6] = Value::Null;
                    }
                    Row::new(cells)
                })
                .collect();
            let batch = ColumnBatch::from_rows(&typed_schema(), &batch_rows).unwrap();
            let rows_u32: Vec<u32> = (0..rows.len() as u32).collect();
            for sel in selectors() {
                let on_batch = sel.normalize_batch(&batch, &all);
                let packed = sel.packed_ranks(&batch, &rows_u32);
                let words = sel.group_words(&batch);
                for i in 0..rows.len() {
                    for j in 0..rows.len() {
                        let want = sel.cmp_batch(&batch, i, j);
                        let keys = (extract(&sel, &batch_rows[i]), extract(&sel, &batch_rows[j]));
                        proptest::prop_assert_eq!(want, keys.0.cmp(&keys.1));
                        if let Some(order) = on_batch.cmp(i, j) {
                            proptest::prop_assert_eq!(order, want);
                        }
                        if let Some(packed) = &packed {
                            proptest::prop_assert_eq!(packed[i].cmp(&packed[j]), want);
                        }
                        let same = group_key(&words, i) == group_key(&words, j);
                        proptest::prop_assert_eq!(same, want.is_eq());
                    }
                }
            }
        }
    }

    /// Strings (by dictionary rank, whatever their length), `Int`s, `Bool`s
    /// and nulls in those columns have exact words: the comparator is never
    /// asked about them.
    #[test]
    fn short_keys_need_no_exact_comparison() {
        let schema = Schema::new(vec![
            Field::new("S", ColumnType::Str),
            Field::new("I", ColumnType::Int),
        ]);
        let rows = vec![
            row!["u1", 3i32],
            row!["u1", 2i32],
            Row::new(vec![Value::Null, Value::Int(1)]),
            row!["abcdefg", 1i32],
            row!["", 1i32],
            row!["abcdefghij", 1i32],
            row!["abcdefghik", 1i32],
        ];
        let batch = ColumnBatch::from_rows(&schema, &rows).unwrap();
        let sel = KeySelector::new(&schema, &["S", "I"]).unwrap();
        let keys = sel.normalize_batch(&batch, &[0, 1, 2, 3, 4, 5, 6]);
        for i in 0..rows.len() {
            for j in 0..rows.len() {
                assert_eq!(keys.cmp(i, j), Some(sel.cmp_batch(&batch, i, j)));
            }
        }
    }

    #[test]
    fn unknown_key_column_errors() {
        assert!(KeySelector::new(&schema(), &["Nope"]).is_err());
    }
}
