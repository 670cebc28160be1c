//! DFS persistence: datasets as binary columnar extents on disk.
//!
//! Cosmos/HDFS store datasets as append-only extents; this module gives the
//! in-memory [`crate::Dfs`] the same durability surface so workloads can be
//! staged once and reused across runs (the experiments binary regenerates
//! data, but a downstream user will want to point TiMR at files).
//!
//! Layout under a root directory:
//!
//! ```text
//! <root>/<dataset>/schema           # one `name:type` per line
//! <root>/<dataset>/part-00000.bin   # framed binary columnar extent
//! <root>/<dataset>/part-00001.bin
//! ```
//!
//! Part files are [`relation::extent`] images written byte-for-byte from
//! the dataset's in-memory extents: per-column typed buffers with validity
//! bitmaps, per-column FxHash integrity frames, and a trailing footer — a
//! layout an mmap-based reader could consume in place. Loading verifies
//! every column frame and the footer hash, so a truncated or bit-flipped
//! extent surfaces as [`MrError::Corrupt`] naming the file — it is never
//! silently decoded. A `part-*` file that is not a `.bin` image is not a
//! part of this layout, so it is the same named error, never skipped.
//!
//! Dataset names are restricted to `[A-Za-z0-9._-]` so a name can never
//! escape the root directory.

use crate::dfs::{Dataset, Dfs, StoredExtent};
use crate::error::{MrError, Result};
use relation::schema::{ColumnType, Field};
use relation::{ColumnBatch, Schema};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn io_err(e: std::io::Error, what: &str, path: &Path) -> MrError {
    MrError::Io {
        what: what.to_string(),
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

fn corrupt(path: &Path, why: impl std::fmt::Display) -> MrError {
    MrError::Corrupt {
        what: format!("extent `{}`: {why}", path.display()),
    }
}

fn check_name(name: &str) -> Result<()> {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(())
    } else {
        Err(MrError::BadStage(format!(
            "dataset name `{name}` is not filesystem-safe"
        )))
    }
}

fn type_tag(ty: ColumnType) -> &'static str {
    match ty {
        ColumnType::Bool => "bool",
        ColumnType::Int => "int",
        ColumnType::Long => "long",
        ColumnType::Double => "double",
        ColumnType::Str => "str",
    }
}

fn parse_type(tag: &str) -> Result<ColumnType> {
    Ok(match tag {
        "bool" => ColumnType::Bool,
        "int" => ColumnType::Int,
        "long" => ColumnType::Long,
        "double" => ColumnType::Double,
        "str" => ColumnType::Str,
        other => {
            return Err(MrError::BadStage(format!(
                "unknown column type `{other}` in schema file"
            )))
        }
    })
}

fn write_schema_file(dir: &Path, schema: &Schema) -> Result<()> {
    let mut schema_text = String::new();
    for f in schema.fields() {
        schema_text.push_str(&format!("{}:{}\n", f.name, type_tag(f.ty)));
    }
    let schema_path = dir.join("schema");
    fs::write(&schema_path, schema_text).map_err(|e| io_err(e, "write schema", &schema_path))
}

/// The `part-*` files under `dir`, in name order.
fn part_files(dir: &Path) -> Result<Vec<PathBuf>> {
    let mut parts: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| io_err(e, "list extents", dir))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("part-"))
        })
        .collect();
    parts.sort();
    Ok(parts)
}

/// Write one dataset to `<root>/<name>/`: each extent's in-memory image,
/// byte for byte. Existing `part-*` files are removed first, so a re-save
/// never leaves a stale extent behind (a dataset shrinking).
pub fn save_dataset(root: &Path, name: &str, dataset: &Dataset) -> Result<()> {
    check_name(name)?;
    let dir = root.join(name);
    fs::create_dir_all(&dir).map_err(|e| io_err(e, "create dataset dir", &dir))?;
    for path in part_files(&dir)? {
        fs::remove_file(&path).map_err(|e| io_err(e, "remove stale extent", &path))?;
    }
    write_schema_file(&dir, &dataset.schema)?;
    for (i, stored) in dataset.partitions.iter().enumerate() {
        let path = dir.join(format!("part-{i:05}.bin"));
        fs::write(&path, stored.bytes.as_ref())
            .map_err(|e| io_err(e, "write binary extent", &path))?;
    }
    Ok(())
}

/// Load one part file verbatim. It is decoded once — which checks every
/// frame — to check its schema and take its width.
fn load_extent(path: &Path, schema: &Schema) -> Result<StoredExtent> {
    if path.extension().is_none_or(|ext| ext != "bin") {
        return Err(corrupt(
            path,
            "not a binary extent image (`part-NNNNN.bin`)",
        ));
    }
    let bytes = fs::read(path).map_err(|e| io_err(e, "read extent", path))?;
    let batch = ColumnBatch::from_extent_bytes(&bytes).map_err(|e| corrupt(path, e))?;
    if batch.schema() != schema {
        return Err(corrupt(
            path,
            "schema disagrees with the dataset's schema file",
        ));
    }
    let (rows, width) = (batch.len() as u64, batch.width());
    let bytes = Arc::new(bytes);
    Ok(StoredExtent { bytes, rows, width })
}

/// Read one dataset from `<root>/<name>/`: its schema file, then every
/// `part-NNNNN.bin` image in name order, each verified on the way in.
pub fn load_dataset(root: &Path, name: &str) -> Result<Dataset> {
    check_name(name)?;
    let dir = root.join(name);
    let schema_path = dir.join("schema");
    let schema_text =
        fs::read_to_string(&schema_path).map_err(|e| io_err(e, "read schema", &schema_path))?;
    let mut fields = Vec::new();
    for line in schema_text.lines() {
        let (col, tag) = line.split_once(':').ok_or_else(|| {
            MrError::BadStage(format!("malformed schema line `{line}` in `{name}`"))
        })?;
        fields.push(Field::new(col, parse_type(tag)?));
    }
    let schema = Schema::new(fields);
    let extents = part_files(&dir)?
        .iter()
        .map(|path| load_extent(path, &schema))
        .collect::<Result<Vec<_>>>()?;
    Ok(Dataset {
        schema,
        partitions: Arc::new(extents),
    })
}

impl Dfs {
    /// Persist every dataset to `<root>/<name>/` directories (native
    /// binary extents).
    pub fn save_to_dir(&self, root: impl AsRef<Path>) -> Result<()> {
        let root = root.as_ref();
        for name in self.list() {
            save_dataset(root, &name, &self.get(&name)?)?;
        }
        Ok(())
    }

    /// Load every dataset directory under `root` into a fresh DFS.
    pub fn load_from_dir(root: impl AsRef<Path>) -> Result<Dfs> {
        let root = root.as_ref();
        let dfs = Dfs::new();
        let entries = fs::read_dir(root).map_err(|e| io_err(e, "list datasets", root))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(e, "list datasets", root))?;
            if !entry.path().is_dir() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().to_string();
            dfs.put(&name, load_dataset(root, &name)?)?;
        }
        Ok(dfs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::extent::EXTENT_MAGIC;
    use relation::{row, Value};

    fn sample() -> Dataset {
        let schema = Schema::timestamped(vec![
            Field::new("UserId", ColumnType::Str),
            Field::new("Score", ColumnType::Double),
        ]);
        Dataset::partitioned(
            schema,
            vec![
                vec![
                    row![1i64, "u1", 0.5f64],
                    row![2i64, "tab\tin\nname", -1.25f64],
                ],
                vec![],
                vec![relation::Row::new(vec![
                    Value::Long(3),
                    Value::Null,
                    Value::Double(0.0),
                ])],
            ],
        )
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("timr-dfs-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `load_dataset` fails with `Corrupt`, and the message names `file`.
    fn assert_corrupt_naming(root: &Path, file: &str) {
        match load_dataset(root, "logs").unwrap_err() {
            MrError::Corrupt { what } => assert!(what.contains(file), "{what}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn dataset_round_trips_through_disk() {
        let root = temp_root("roundtrip");
        let original = sample();
        save_dataset(&root, "logs", &original).unwrap();
        let loaded = load_dataset(&root, "logs").unwrap();
        assert_eq!(loaded.schema, original.schema);
        assert_eq!(
            loaded.partitions, original.partitions,
            "byte-identical images"
        );
        assert_eq!(loaded.extents()[0].width, original.extents()[0].width);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn whole_dfs_round_trips() {
        let root = temp_root("dfs");
        let dfs = Dfs::new();
        dfs.put("a", sample()).unwrap();
        dfs.put("b.2024-01", sample()).unwrap();
        dfs.save_to_dir(&root).unwrap();

        let loaded = Dfs::load_from_dir(&root).unwrap();
        assert_eq!(
            loaded.list(),
            vec!["a".to_string(), "b.2024-01".to_string()]
        );
        assert_eq!(
            loaded.get("a").unwrap().scan(),
            dfs.get("a").unwrap().scan()
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn unsafe_names_rejected() {
        let root = temp_root("names");
        assert!(save_dataset(&root, "../escape", &sample()).is_err());
        assert!(save_dataset(&root, "", &sample()).is_err());
        assert!(load_dataset(&root, "a/b").is_err());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn missing_dataset_errors_are_typed_io() {
        let root = temp_root("missing");
        let err = load_dataset(&root, "nope").unwrap_err();
        assert!(matches!(err, MrError::Io { .. }), "{err}");
        assert!(err.to_string().contains("read schema"), "{err}");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn native_extents_are_binary_images() {
        let root = temp_root("binparts");
        save_dataset(&root, "logs", &sample()).unwrap();
        let bytes = fs::read(root.join("logs/part-00000.bin")).unwrap();
        assert_eq!(&bytes[bytes.len() - 8..], &EXTENT_MAGIC);
        // The on-disk image is byte-identical to the in-memory extent.
        assert_eq!(
            bytes.as_slice(),
            sample().binary_extent(0).unwrap().as_slice()
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn bit_flipped_binary_extent_is_detected_never_decoded() {
        let root = temp_root("binflip");
        save_dataset(&root, "logs", &sample()).unwrap();
        let path = root.join("logs/part-00000.bin");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        let err = load_dataset(&root, "logs").unwrap_err();
        match err {
            MrError::Corrupt { what } => assert!(what.contains("part-00000.bin"), "{what}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn truncated_binary_extent_is_corrupt() {
        let root = temp_root("truncate");
        save_dataset(&root, "logs", &sample()).unwrap();
        let path = root.join("logs/part-00000.bin");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        assert_corrupt_naming(&root, "part-00000.bin");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn a_stray_part_file_is_corrupt_never_skipped() {
        let root = temp_root("stray");
        save_dataset(&root, "logs", &sample()).unwrap();
        // Valid bytes under a name outside the layout still fail: the file
        // is named, not parsed as something else and not passed over.
        let image = fs::read(root.join("logs/part-00001.bin")).unwrap();
        fs::write(root.join("logs/part-00001"), image).unwrap();
        assert_corrupt_naming(&root, "part-00001`");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn resave_clears_stale_parts() {
        let root = temp_root("stale");
        // Three partitions, then one: the two stale images must vanish, or
        // the loader would see partitions the dataset no longer has.
        save_dataset(&root, "logs", &sample()).unwrap();
        let shrunk = Dataset::partitioned(sample().schema, vec![sample().scan()]);
        save_dataset(&root, "logs", &shrunk).unwrap();
        let loaded = load_dataset(&root, "logs").unwrap();
        assert_eq!(loaded.partitions, shrunk.partitions);
        assert!(!root.join("logs/part-00001.bin").exists());
        assert!(!root.join("logs/part-00002.bin").exists());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn schema_mismatch_on_binary_extent_is_corrupt() {
        let root = temp_root("schemamismatch");
        save_dataset(&root, "logs", &sample()).unwrap();
        // Rewrite the schema file with a different column type.
        let schema_path = root.join("logs/schema");
        let text = fs::read_to_string(&schema_path).unwrap();
        fs::write(&schema_path, text.replace("Score:double", "Score:long")).unwrap();
        let err = load_dataset(&root, "logs").unwrap_err();
        match err {
            MrError::Corrupt { what } => assert!(what.contains("schema"), "{what}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(root);
    }
}
