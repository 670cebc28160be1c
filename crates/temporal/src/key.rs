//! Zero-allocation grouping/join keys: hash-then-compare.
//!
//! The interpreted operators materialized a `Vec<Value>` key per *event* to
//! use as a `HashMap` key — one heap allocation plus value clones for every
//! event on both sides of a join. A [`KeySelector`] instead resolves the key
//! columns to indices once, hashes the key cells **in place**
//! ([`relation::hash::key_hash`], deterministic FxHash), and buckets by the
//! 64-bit hash. Distinct keys that collide on the hash are separated by an
//! index-wise [`Value`] equality check against a representative row — the
//! same strict `PartialEq` the old `Vec<Value>` map keys used — so operator
//! results are bit-for-bit identical to the interpreted path. A key is only
//! materialized with [`KeySelector::extract`] when one is needed per *group*
//! (e.g. GroupApply's deterministic sorted-key group order), never per event.

use crate::error::{Result, TemporalError};
use relation::hash::key_hash;
use relation::{ColumnBatch, Row, Schema, Value};
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

    /// Deterministic 64-bit hash of the key cells of `row`, with no key
    /// materialization.
    pub fn hash(&self, row: &Row) -> u64 {
        key_hash(row, &self.indices)
    }

    /// Key hash of every row of a column batch — bit-identical to calling
    /// [`Self::hash`] on each gathered row, but the cells are hashed
    /// straight out of the columns with no row materialization.
    pub fn hash_batch(&self, batch: &ColumnBatch) -> Vec<u64> {
        batch.key_hashes(&self.indices)
    }

    /// Whether rows `i` and `j` of a column batch share a key — what
    /// [`Self::matches_same`] says of the gathered rows, read off the key
    /// columns.
    pub fn matches_batch(&self, batch: &ColumnBatch, i: usize, j: usize) -> bool {
        self.indices
            .iter()
            .all(|&c| batch.column(c).cells_equal(i, j))
    }

    /// Order rows `i` and `j` of a column batch by their key cells — what
    /// [`Self::cmp_same`] says of the gathered rows, read off the key
    /// columns.
    pub fn cmp_batch(&self, batch: &ColumnBatch, i: usize, j: usize) -> Ordering {
        self.indices
            .iter()
            .map(|&c| batch.column(c).cmp_cells(i, j))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Materialize the key of row `i` of a column batch ([`Self::extract`]
    /// of the gathered row).
    pub fn extract_batch(&self, batch: &ColumnBatch, i: usize) -> Vec<Value> {
        self.indices
            .iter()
            .map(|&c| batch.column(c).value(i))
            .collect()
    }

    /// Whether `a`'s key under `self` equals `b`'s key under `other`
    /// (index-wise strict [`Value`] equality, as `Vec<Value>` map keys used).
    pub fn matches(&self, a: &Row, other: &KeySelector, b: &Row) -> bool {
        debug_assert_eq!(self.indices.len(), other.indices.len());
        self.indices
            .iter()
            .zip(&other.indices)
            .all(|(&i, &j)| a.get(i) == b.get(j))
    }

    /// Whether two rows of the same schema share a key.
    pub fn matches_same(&self, a: &Row, b: &Row) -> bool {
        self.matches(a, self, b)
    }

    /// Order two rows of the same schema by their key cells — the order of
    /// their [`Self::extract`]ed keys, without materializing either.
    pub fn cmp_same(&self, a: &Row, b: &Row) -> Ordering {
        self.indices
            .iter()
            .map(|&i| a.get(i).cmp(b.get(i)))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Materialize the key (used once per group, not per event).
    pub fn extract(&self, row: &Row) -> Vec<Value> {
        self.indices.iter().map(|&i| row.get(i).clone()).collect()
    }

    /// The resolved key column indices.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::hash::values_hash;
    use relation::row;
    use relation::schema::{ColumnType, Field};

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
        assert_eq!(sel.hash(&r), values_hash(&sel.extract(&r)));
    }

    #[test]
    fn hash_batch_agrees_with_row_hash() {
        let s = schema();
        let sel = KeySelector::new(&s, &["UserId", "KwAdId"]).unwrap();
        let rows = vec![
            row![5i64, "u1", "adA"],
            row![6i64, "u2", "adB"],
            relation::Row::new(vec![
                relation::Value::Long(7),
                relation::Value::Null,
                relation::Value::str("adA"),
            ]),
        ];
        let batch = ColumnBatch::from_rows(&s, &rows).unwrap();
        let hashes = sel.hash_batch(&batch);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(hashes[i], sel.hash(r), "row {i}");
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
            assert_eq!(sel.extract_batch(&batch, i), sel.extract(a));
            for (j, b) in rows.iter().enumerate() {
                assert_eq!(sel.matches_batch(&batch, i, j), sel.matches_same(a, b));
                assert_eq!(sel.cmp_batch(&batch, i, j), sel.cmp_same(a, b));
            }
        }
    }

    #[test]
    fn matches_compares_cells_across_schemas() {
        let left = schema();
        let right = Schema::new(vec![Field::new("Uid", ColumnType::Str)]);
        let lsel = KeySelector::new(&left, &["UserId"]).unwrap();
        let rsel = KeySelector::new(&right, &["Uid"]).unwrap();
        let a = row![1i64, "u1", "adA"];
        assert!(lsel.matches(&a, &rsel, &row!["u1"]));
        assert!(!lsel.matches(&a, &rsel, &row!["u2"]));
        assert!(lsel.matches_same(&a, &row![9i64, "u1", "other"]));
    }

    #[test]
    fn cmp_same_is_the_order_of_extracted_keys() {
        let sel = KeySelector::new(&schema(), &["UserId", "KwAdId"]).unwrap();
        let rows = [
            row![9i64, "u1", "adB"],
            row![1i64, "u2", "adA"],
            row![5i64, "u1", "adA"],
            row![7i64, "u1", "adB"],
        ];
        for a in &rows {
            for b in &rows {
                assert_eq!(sel.cmp_same(a, b), sel.extract(a).cmp(&sel.extract(b)));
            }
        }
    }

    #[test]
    fn unknown_key_column_errors() {
        assert!(KeySelector::new(&schema(), &["Nope"]).is_err());
    }
}
