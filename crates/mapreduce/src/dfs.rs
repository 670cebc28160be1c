//! The in-memory distributed file system.
//!
//! Stands in for Cosmos/HDFS/GFS: named datasets made of partition
//! "extents". An extent *is* its stored form ([`StoredExtent`]): the framed
//! binary columnar image ([`relation::extent`]) plus its row count and
//! width. There is no decoded working copy — [`Dataset::batch`] is the one
//! decode, and it verifies every per-column frame and the footer, so every
//! consumer (the cluster's map scan, persistence, the row views tests and
//! loaders use) detects corruption instead of silently processing damaged
//! data. Rows that do not inhabit the schema have no image and cannot be
//! stored.

use crate::error::{MrError, Result};
use parking_lot::RwLock;
use relation::{ColumnBatch, DatasetStats, RelationError, Row, Schema};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One sealed extent: the image and what its footer says about it. Equal
/// (and hashed) by its bytes alone — the row count and width are functions
/// of them.
#[derive(Clone)]
pub struct StoredExtent {
    /// Encoded extent (see [`relation::extent`] for the layout).
    pub bytes: Arc<Vec<u8>>,
    /// Rows the image holds.
    pub rows: u64,
    /// Sum of the rows' [`Row::width`]s — the unit the shuffle counters
    /// charge — taken off the columns where the extent is sealed or loaded.
    pub width: u64,
}

impl StoredExtent {
    /// Seal a batch into its stored form. Errors, naming the column, when
    /// the batch's schema is not `schema`.
    pub fn seal(schema: &Schema, batch: &ColumnBatch) -> relation::Result<StoredExtent> {
        conform(schema, batch.schema())?;
        Ok(StoredExtent {
            bytes: Arc::new(batch.to_extent_bytes()?),
            rows: batch.len() as u64,
            width: batch.width(),
        })
    }

    /// Check the image's frames, and its footer against `schema` and this
    /// extent's row count, without decoding a column.
    pub fn verify(&self, schema: &Schema) -> relation::Result<()> {
        relation::extent::verify_extent(&self.bytes)?;
        let (held, rows) = relation::extent::extent_info(&self.bytes)?;
        conform(schema, &held)?;
        if rows as u64 != self.rows {
            return Err(RelationError::Corrupt(format!(
                "image holds {rows} row(s), its extent says {}",
                self.rows
            )));
        }
        Ok(())
    }
}

impl PartialEq for StoredExtent {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for StoredExtent {}

impl Hash for StoredExtent {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bytes.hash(state);
    }
}

impl std::fmt::Debug for StoredExtent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fx = relation::hash::stable_hash(self.bytes.as_slice());
        write!(
            f,
            "StoredExtent({} rows, {} B, fx {fx:#018x})",
            self.rows,
            self.bytes.len()
        )
    }
}

/// `actual` is `expected`, or the first column that differs, by name and
/// type.
pub(crate) fn conform(expected: &Schema, actual: &Schema) -> relation::Result<()> {
    if expected.len() != actual.len() {
        return Err(RelationError::ArityMismatch {
            expected: expected.len(),
            actual: actual.len(),
        });
    }
    match (expected.fields().iter().zip(actual.fields())).find(|(e, a)| e != a) {
        None => Ok(()),
        Some((e, a)) => Err(RelationError::TypeMismatch {
            column: e.name.clone(),
            expected: e.ty.to_string(),
            actual: match e.name == a.name {
                true => a.ty.to_string(),
                false => format!("`{}`: {}", a.name, a.ty),
            },
        }),
    }
}

/// One stored dataset: a schema and its sealed extents.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Row schema.
    pub schema: Schema,
    /// Extents, sealed. A freshly-loaded dataset may have any number;
    /// stage outputs have one per reduce partition.
    pub partitions: Arc<Vec<StoredExtent>>,
}

impl Dataset {
    /// Build a single-partition dataset.
    pub fn single(schema: Schema, rows: Vec<Row>) -> Self {
        Dataset::partitioned(schema, vec![rows])
    }

    /// Build from explicit partitions, sealing every extent. Panics, with
    /// the text of [`MrError::IllTyped`], if a row does not inhabit
    /// `schema` — a programming error in whatever built the rows, like a
    /// duplicate column in `Schema::new`.
    pub fn partitioned(schema: Schema, partitions: Vec<Vec<Row>>) -> Self {
        let extents = (partitions.iter().enumerate())
            .map(|(i, rows)| {
                ColumnBatch::from_rows(&schema, rows)
                    .and_then(|batch| StoredExtent::seal(&schema, &batch))
                    .unwrap_or_else(|cause| {
                        let site = format!("extent {i}");
                        panic!("{}", MrError::IllTyped { site, cause })
                    })
            })
            .collect();
        Dataset {
            schema,
            partitions: Arc::new(extents),
        }
    }

    /// Stored forms, one per extent.
    pub fn extents(&self) -> &[StoredExtent] {
        &self.partitions
    }

    /// The framed binary image of extent `i` (shippable/persistable
    /// without re-encoding); `None` past the last extent.
    pub fn binary_extent(&self, i: usize) -> Option<&Arc<Vec<u8>>> {
        self.partitions.get(i).map(|stored| &stored.bytes)
    }

    /// Decode extent `i` — the one decode. Every frame is checked first, so
    /// damaged bytes, or an image of another schema, are
    /// [`MrError::Corrupt`], never rows.
    pub fn batch(&self, i: usize) -> Result<ColumnBatch> {
        let corrupt = |why: String| MrError::Corrupt {
            what: format!("extent {i}: {why}"),
        };
        let batch = ColumnBatch::from_extent_bytes(&self.partitions[i].bytes)
            .map_err(|e| corrupt(e.to_string()))?;
        conform(&self.schema, batch.schema()).map_err(|e| corrupt(e.to_string()))?;
        Ok(batch)
    }

    /// Verify extent `i`'s image against its frames, the schema and its row
    /// count, without decoding it. Indices past the last extent pass
    /// vacuously.
    pub fn verify_extent(&self, i: usize) -> Result<()> {
        let Some(stored) = self.partitions.get(i) else {
            return Ok(());
        };
        stored.verify(&self.schema).map_err(|e| MrError::Corrupt {
            what: format!("extent {i}: {e}"),
        })
    }

    /// Verify every extent.
    pub fn verify(&self) -> Result<()> {
        (0..self.partitions.len()).try_for_each(|i| self.verify_extent(i))
    }

    /// Total row count, from the extents' row counts.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|e| e.rows as usize).sum()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All rows, decoded and concatenated in partition order.
    pub fn scan(&self) -> Vec<Row> {
        self.iter().collect()
    }

    /// Owned rows in partition order, decoded one extent at a time — for
    /// tests, examples and loaders; jobs read [`Dataset::batch`]. Panics,
    /// with the text of [`MrError::Corrupt`], at a damaged extent.
    pub fn iter(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.partitions.len()).flat_map(move |i| match self.batch(i) {
            Ok(batch) => batch.to_rows(),
            Err(e) => panic!("{e}"),
        })
    }

    /// Compute exact statistics for the optimizer, one extent decoded at a
    /// time.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats::compute(&self.schema, self.iter())
    }
}

/// The distributed file system: a concurrent name → dataset map.
#[derive(Debug, Default)]
pub struct Dfs {
    datasets: RwLock<BTreeMap<String, Dataset>>,
}

impl Dfs {
    /// Empty DFS.
    pub fn new() -> Self {
        Dfs::default()
    }

    /// Store a dataset under `name`. Fails if the name is taken
    /// (datasets are immutable once written, like Cosmos extents).
    pub fn put(&self, name: impl Into<String>, dataset: Dataset) -> Result<()> {
        let name = name.into();
        let mut map = self.datasets.write();
        if map.contains_key(&name) {
            return Err(MrError::DatasetExists(name));
        }
        map.insert(name, dataset);
        Ok(())
    }

    /// Store, replacing any existing dataset (for iterative experiments).
    pub fn put_overwrite(&self, name: impl Into<String>, dataset: Dataset) {
        self.datasets.write().insert(name.into(), dataset);
    }

    /// Fetch a dataset by name (cheap: extents are shared).
    pub fn get(&self, name: &str) -> Result<Dataset> {
        self.datasets
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| MrError::NoSuchDataset(name.to_string()))
    }

    /// Remove a dataset.
    pub fn remove(&self, name: &str) -> Result<Dataset> {
        self.datasets
            .write()
            .remove(name)
            .ok_or_else(|| MrError::NoSuchDataset(name.to_string()))
    }

    /// Whether a dataset exists.
    pub fn contains(&self, name: &str) -> bool {
        self.datasets.read().contains_key(name)
    }

    /// Names of all stored datasets.
    pub fn list(&self) -> Vec<String> {
        self.datasets.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::row;
    use relation::schema::{ColumnType, Field};

    fn schema() -> Schema {
        Schema::timestamped(vec![Field::new("UserId", ColumnType::Str)])
    }

    fn sample() -> Dataset {
        Dataset::partitioned(
            schema(),
            vec![
                vec![row![1i64, "u1"], row![2i64, "u2"]],
                vec![row![3i64, "u3"]],
            ],
        )
    }

    /// `ds` with extent `i`'s image replaced by `damage(image)`.
    fn damaged(ds: &Dataset, i: usize, damage: impl Fn(&mut Vec<u8>)) -> Dataset {
        let mut extents = ds.extents().to_vec();
        let mut bytes = extents[i].bytes.as_ref().clone();
        damage(&mut bytes);
        extents[i].bytes = Arc::new(bytes);
        Dataset {
            schema: ds.schema.clone(),
            partitions: Arc::new(extents),
        }
    }

    #[test]
    fn put_get_scan() {
        let dfs = Dfs::new();
        dfs.put("logs", sample()).unwrap();
        let ds = dfs.get("logs").unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.scan()[2], row![3i64, "u3"]);
    }

    #[test]
    fn a_sealed_extent_knows_its_rows_and_their_width() {
        let ds = sample();
        for (i, stored) in ds.extents().iter().enumerate() {
            let rows = ds.batch(i).unwrap().to_rows();
            assert_eq!(stored.rows, rows.len() as u64);
            let walked: usize = rows.iter().map(Row::width).sum();
            assert_eq!(stored.width, walked as u64);
        }
    }

    #[test]
    fn duplicate_put_rejected_but_overwrite_allowed() {
        let dfs = Dfs::new();
        dfs.put("x", sample()).unwrap();
        assert!(matches!(
            dfs.put("x", sample()),
            Err(MrError::DatasetExists(_))
        ));
        dfs.put_overwrite("x", Dataset::single(schema(), vec![]));
        assert_eq!(dfs.get("x").unwrap().len(), 0);
    }

    #[test]
    fn missing_dataset_errors() {
        let dfs = Dfs::new();
        assert!(matches!(dfs.get("nope"), Err(MrError::NoSuchDataset(_))));
        assert!(dfs.remove("nope").is_err());
    }

    #[test]
    fn iter_matches_scan_order() {
        let ds = sample();
        let rows: Vec<Row> = ds.iter().collect();
        assert_eq!(rows, ds.scan());
        assert_eq!(ds.iter().count(), ds.len());
    }

    #[test]
    fn stats_reflect_contents() {
        let stats = sample().stats();
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.distinct_of("UserId"), Some(3));
    }

    #[test]
    fn extents_are_framed_and_verify_clean() {
        let ds = sample();
        assert_eq!(ds.extents().len(), 2);
        assert!(ds.binary_extent(0).is_some());
        assert!(ds.binary_extent(1).is_some());
        assert!(ds.binary_extent(2).is_none());
        ds.verify().unwrap();
        ds.verify_extent(0).unwrap();
        // Indices past the extent list pass vacuously rather than panic.
        ds.verify_extent(99).unwrap();
    }

    #[test]
    fn damaged_binary_bytes_fail_verification_and_decode() {
        let ds = sample();
        let flipped = damaged(&ds, 0, |b| {
            let mid = b.len() / 2;
            b[mid] ^= 0xFF;
        });
        let truncated = damaged(&ds, 1, |b| b.truncate(b.len() - 3));
        for (bad, i) in [(flipped, 0), (truncated, 1)] {
            for err in [bad.verify_extent(i).unwrap_err(), bad.batch(i).unwrap_err()] {
                let MrError::Corrupt { what } = &err else {
                    panic!("expected Corrupt, got {err:?}");
                };
                assert!(what.starts_with(&format!("extent {i}: ")), "{what}");
            }
            assert!(bad.verify().is_err());
            assert!(bad.verify_extent(1 - i).is_ok());
        }
    }

    /// An image of another schema — or one whose footer disagrees with the
    /// extent's row count — is corrupt, not a dataset of other rows.
    #[test]
    fn an_image_of_another_shape_is_corrupt() {
        let ds = sample();
        let other = Dataset::single(
            Schema::timestamped(vec![Field::new("UserId", ColumnType::Long)]),
            vec![row![1i64, 7i64]],
        );
        let swapped = Dataset {
            schema: ds.schema.clone(),
            partitions: Arc::new(vec![other.extents()[0].clone()]),
        };
        let want = "type mismatch in `UserId`: expected str, got long";
        for err in [
            swapped.verify_extent(0).unwrap_err(),
            swapped.batch(0).unwrap_err(),
        ] {
            assert!(err.to_string().contains(want), "{err}");
        }
        let mut miscounted = ds.extents()[0].clone();
        miscounted.rows += 1;
        let err = miscounted.verify(&ds.schema).unwrap_err().to_string();
        assert!(
            err.contains("image holds 2 row(s), its extent says 3"),
            "{err}"
        );
    }

    /// Equality and hashing see the bytes and nothing else.
    #[test]
    fn stored_extents_are_equal_by_bytes() {
        let (a, b) = (sample(), sample());
        assert_eq!(a.partitions, b.partitions);
        let hash = |ds: &Dataset| relation::hash::stable_hash(ds.partitions.as_ref());
        assert_eq!(hash(&a), hash(&b));
        let mut wider = a.extents()[0].clone();
        wider.width += 1;
        assert_eq!(wider, a.extents()[0]);
        let flipped = damaged(&a, 1, |b| b[0] ^= 1);
        assert_ne!(flipped.partitions, a.partitions);
        assert_ne!(hash(&flipped), hash(&a));
    }

    /// A row that does not inhabit the schema has no image: building the
    /// dataset names the extent and the offending cell.
    #[test]
    #[should_panic(
        expected = "ill-typed row in extent 1: type mismatch in `Time`: expected long, got str"
    )]
    fn ill_typed_rows_cannot_be_stored() {
        Dataset::partitioned(
            schema(),
            vec![vec![row![1i64, "ok"]], vec![row!["not-a-time", "u"]]],
        );
    }

    /// A batch of another schema cannot be sealed under this one.
    #[test]
    fn seal_names_the_column_that_disagrees() {
        let batch = ColumnBatch::from_rows(
            &Schema::timestamped(vec![Field::new("UserId", ColumnType::Long)]),
            &[row![1i64, 2i64]],
        )
        .unwrap();
        let err = StoredExtent::seal(&schema(), &batch).unwrap_err();
        assert_eq!(
            err,
            RelationError::TypeMismatch {
                column: "UserId".into(),
                expected: "str".into(),
                actual: "long".into(),
            }
        );
        let narrow = ColumnBatch::from_rows(&Schema::new(vec![]), &[]).unwrap();
        assert!(matches!(
            StoredExtent::seal(&schema(), &narrow),
            Err(RelationError::ArityMismatch {
                expected: 2,
                actual: 0
            })
        ));
    }
}
