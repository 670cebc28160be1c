//! The in-memory distributed file system.
//!
//! Stands in for Cosmos/HDFS/GFS: named datasets made of partition "extents"
//! of rows. Every dataset keeps a decoded working copy (the `partitions` row
//! vectors the map phase scans) plus, per extent, its **stored form**
//! ([`StoredExtent`]): the framed binary columnar image
//! ([`relation::extent`]) of the rows. Rows that do not inhabit the schema
//! have no image and cannot be stored.
//!
//! The stored form carries integrity frames — per-column FxHash frames
//! inside the image, a length + checksum frame over the decoded rows — so
//! consumers ([`Dataset::verify_extent`], the cluster's map scan,
//! persistence) detect corruption instead of silently processing damaged
//! data.

use crate::chaos::ExtentFrame;
use crate::error::{MrError, Result};
use parking_lot::RwLock;
use relation::{ColumnBatch, DatasetStats, Row, Schema};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The stored (shippable) form of one extent.
#[derive(Debug, Clone)]
pub struct StoredExtent {
    /// Encoded extent (see [`relation::extent`] for the layout).
    pub bytes: Arc<Vec<u8>>,
    /// Frame over the decoded rows (detects bit rot in the working copy
    /// without decoding `bytes`).
    pub frame: ExtentFrame,
    /// Sum of the decoded rows' [`Row::width`]s — the unit the shuffle
    /// counters charge — taken once, off the columns, where the extent is
    /// sealed or loaded, so no reader walks the rows for it.
    pub width: u64,
}

impl StoredExtent {
    /// Seal one partition of rows into its stored form. Errors, naming the
    /// offending cell, when a row does not inhabit `schema`.
    pub(crate) fn seal(schema: &Schema, rows: &[Row]) -> relation::Result<StoredExtent> {
        let batch = ColumnBatch::from_rows(schema, rows)?;
        Ok(StoredExtent {
            bytes: Arc::new(batch.to_extent_bytes()?),
            frame: ExtentFrame::compute(rows),
            width: batch.width(),
        })
    }
}

/// One stored dataset: schema, decoded partitioned rows, and per-extent
/// stored forms with integrity frames.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Row schema.
    pub schema: Schema,
    /// Partitions (extents), decoded. A freshly-loaded dataset may have
    /// any number; stage outputs have one per reduce partition.
    pub partitions: Arc<Vec<Vec<Row>>>,
    /// One stored form per extent.
    extents: Arc<Vec<StoredExtent>>,
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
        let extents = partitions
            .iter()
            .enumerate()
            .map(|(i, p)| {
                StoredExtent::seal(&schema, p).unwrap_or_else(|cause| {
                    let site = format!("extent {i}");
                    panic!("{}", MrError::IllTyped { site, cause })
                })
            })
            .collect();
        Dataset {
            schema,
            partitions: Arc::new(partitions),
            extents: Arc::new(extents),
        }
    }

    /// Build from already-computed stored extents (persistence load path:
    /// the binary bytes read from disk are kept verbatim, not re-encoded).
    pub(crate) fn from_stored(
        schema: Schema,
        partitions: Vec<Vec<Row>>,
        extents: Vec<StoredExtent>,
    ) -> Self {
        debug_assert_eq!(partitions.len(), extents.len());
        Dataset {
            schema,
            partitions: Arc::new(partitions),
            extents: Arc::new(extents),
        }
    }

    /// Stored forms, one per extent.
    pub fn extents(&self) -> &[StoredExtent] {
        &self.extents
    }

    /// The framed binary image of extent `i` (shippable/persistable
    /// without re-encoding); `None` past the last extent.
    pub fn binary_extent(&self, i: usize) -> Option<&Arc<Vec<u8>>> {
        self.extents.get(i).map(|stored| &stored.bytes)
    }

    /// Verify extent `i`: the decoded rows against their frame, and the
    /// binary image against its per-column frames. Indices past the last
    /// extent pass vacuously.
    pub fn verify_extent(&self, i: usize) -> Result<()> {
        let (Some(stored), Some(rows)) = (self.extents.get(i), self.partitions.get(i)) else {
            return Ok(());
        };
        let corrupt = |why: String| MrError::Corrupt {
            what: format!("extent {i}: {why}"),
        };
        stored.frame.verify(rows).map_err(corrupt)?;
        relation::extent::verify_extent(&stored.bytes).map_err(|e| corrupt(e.to_string()))
    }

    /// Verify every extent against its frame.
    pub fn verify(&self) -> Result<()> {
        (0..self.partitions.len()).try_for_each(|i| self.verify_extent(i))
    }

    /// Total row count.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All rows, concatenated in partition order.
    ///
    /// This materializes a deep copy; prefer [`Dataset::iter`] when
    /// borrowed access is enough.
    pub fn scan(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.len());
        for p in self.partitions.iter() {
            out.extend(p.iter().cloned());
        }
        out
    }

    /// Borrowing iteration over all rows in partition order — the same
    /// order as [`Dataset::scan`], without copying anything.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.partitions.iter().flatten()
    }

    /// Compute exact statistics for the optimizer, streaming over the
    /// shared partitions (no copy of the dataset is materialized).
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

    /// Fetch a dataset by name (cheap: partitions are shared).
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
    use relation::schema::{ColumnType, Field};
    use relation::{codec, row};

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

    #[test]
    fn put_get_scan() {
        let dfs = Dfs::new();
        dfs.put("logs", sample()).unwrap();
        let ds = dfs.get("logs").unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.scan()[2], row![3i64, "u3"]);
    }

    #[test]
    fn a_sealed_extent_knows_the_width_of_its_rows() {
        let ds = sample();
        for (stored, rows) in ds.extents().iter().zip(ds.partitions.iter()) {
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
    fn rows_survive_text_codec_round_trip() {
        // DFS contents must be representable as text extents.
        let ds = sample();
        let text = codec::encode_rows(&ds.scan());
        let back = codec::decode_rows(&text, &ds.schema).unwrap();
        assert_eq!(back, ds.scan());
    }

    #[test]
    fn iter_matches_scan_order() {
        let ds = sample();
        let borrowed: Vec<Row> = ds.iter().cloned().collect();
        assert_eq!(borrowed, ds.scan());
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
    fn damaged_extent_fails_verification() {
        let ds = sample();
        // Rebuild a dataset that keeps the original stored extents but
        // damages the decoded working copy (bit rot under unchanged
        // frames).
        let mut parts: Vec<Vec<Row>> = ds.partitions.as_ref().clone();
        parts[1].pop();
        let damaged = Dataset {
            schema: ds.schema.clone(),
            partitions: Arc::new(parts),
            extents: ds.extents.clone(),
        };
        assert!(damaged.verify_extent(0).is_ok());
        let err = damaged.verify_extent(1).unwrap_err();
        assert!(matches!(err, MrError::Corrupt { .. }), "{err}");
        assert!(damaged.verify().is_err());
    }

    #[test]
    fn damaged_binary_bytes_fail_verification() {
        let ds = sample();
        // Flip one byte inside the stored binary extent while leaving the
        // decoded rows intact: the per-column frames must catch it.
        let mut extents: Vec<StoredExtent> = ds.extents().to_vec();
        let mut damaged_bytes = extents[0].bytes.as_ref().clone();
        let mid = damaged_bytes.len() / 2;
        damaged_bytes[mid] ^= 0xFF;
        extents[0].bytes = Arc::new(damaged_bytes);
        let damaged = Dataset {
            schema: ds.schema.clone(),
            partitions: ds.partitions.clone(),
            extents: Arc::new(extents),
        };
        let err = damaged.verify_extent(0).unwrap_err();
        assert!(matches!(err, MrError::Corrupt { .. }), "{err}");
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
}
