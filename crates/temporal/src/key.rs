//! Zero-allocation grouping/join keys: hash-then-compare.
//!
//! A `Vec<Value>` key per *event*, used as a `HashMap` key, costs one heap
//! allocation plus value clones for every event on both sides of a join. A
//! [`KeySelector`] instead resolves the key columns to indices once, hashes
//! the key cells **in place** ([`KeySelector::group_hashes`]: a string cell
//! reads its dictionary's cached hash, so no key byte is hashed), and
//! buckets by the 64-bit hash. Distinct keys that collide on the hash are
//! separated by an index-wise [`Value`] equality check against a
//! representative row — the same strict `PartialEq` a `Vec<Value>` map key
//! compares with, which for two strings of one dictionary compares codes —
//! so two events share a key exactly when their key cells are equal. A key
//! is only materialized with [`KeySelector::extract_batch`] when one is
//! needed per *group*, never per event.
//!
//! Keys are ordered through **normalized keys** ([`NormalizedKeys`]): each
//! key cell becomes one `u64` whose order is the cells' order, so sorting
//! groups compares integers and reads no column. The words are
//! [`relation::order`]'s, the definition the reduce sink's canonical order
//! shares. A string's word is its rank in its dictionary, which is exact. A
//! word that does not determine its cell — a null in a 64-bit column — is
//! marked inexact, and only a tie on such a word asks the exact comparator
//! ([`KeySelector::cmp_batch`]).

use crate::error::{Result, TemporalError};
use relation::order::{column_words, null_word_exact};
use relation::{ColumnBatch, Schema, Value};
use std::cmp::Ordering;

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

    /// Whether rows `i` and `j` of a column batch share a key: index-wise
    /// strict [`Value`] equality of their key cells, read off the key
    /// columns.
    pub fn matches_batch(&self, batch: &ColumnBatch, i: usize, j: usize) -> bool {
        self.indices
            .iter()
            .all(|&c| batch.column(c).cells_equal(i, j))
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
                    sel.matches_batch(&batch, i, j),
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
            for sel in selectors() {
                let on_batch = sel.normalize_batch(&batch, &all);
                for i in 0..rows.len() {
                    for j in 0..rows.len() {
                        let want = sel.cmp_batch(&batch, i, j);
                        let keys = (extract(&sel, &batch_rows[i]), extract(&sel, &batch_rows[j]));
                        proptest::prop_assert_eq!(want, keys.0.cmp(&keys.1));
                        if let Some(order) = on_batch.cmp(i, j) {
                            proptest::prop_assert_eq!(order, want);
                        }
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
