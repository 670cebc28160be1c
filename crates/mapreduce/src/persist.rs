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
//! Native part files are [`relation::extent`] images written byte-for-byte
//! from the dataset's in-memory extents: per-column typed buffers with
//! validity bitmaps, per-column FxHash integrity frames, and a trailing
//! footer — a layout an mmap-based reader could consume in place. Loading
//! verifies every column frame and the footer hash, so a truncated or
//! bit-flipped extent surfaces as [`MrError::Corrupt`] — it is never
//! silently decoded.
//!
//! The text codec survives in two roles. [`save_dataset_text`] is the
//! human-inspectable debug writer: extension-less `part-NNNNN` files
//! holding a fixed-width frame header line
//!
//! ```text
//! #timr rows=<20-digit count> fx=<16-hex line-wise FxHash of the body>
//! ```
//!
//! followed by one [`relation::codec`] line per row, streamed through a
//! buffered writer (the header is patched in place once the body hash is
//! known — the whole extent is never materialized in memory). The frame
//! hash feeds each encoded line and a newline to the hasher separately, so
//! the loader can verify by iterating `lines()` without rebuilding the
//! body. And on the read side any extension-less `part-NNNNN` file — with
//! or without a frame header — still loads, so pre-binary directories
//! remain readable. The loader parses every cell by its schema type, so
//! what it loads always has a binary image, and a loaded dataset is native
//! whichever form its files were in.
//!
//! Dataset names are restricted to `[A-Za-z0-9._-]` so a name can never
//! escape the root directory.

use crate::dfs::{Dataset, Dfs, StoredExtent};
use crate::error::{MrError, Result};
use relation::schema::{ColumnType, Field};
use relation::{codec, ColumnBatch, Row, Schema};
use rustc_hash::FxHasher;
use std::fs;
use std::hash::Hasher;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic prefix of a framed text extent file's header line.
const FRAME_PREFIX: &str = "#timr ";

fn io_err(e: std::io::Error, what: &str, path: &Path) -> MrError {
    MrError::Io {
        what: what.to_string(),
        path: path.display().to_string(),
        message: e.to_string(),
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

/// Line-wise FxHash of a text extent body: each line and its newline fed
/// to the hasher as separate writes, matching [`write_text_extent`], so
/// verification never rebuilds the body string.
fn text_body_hash(body: &str) -> u64 {
    let mut h = FxHasher::default();
    for line in body.lines() {
        h.write(line.as_bytes());
        h.write(b"\n");
    }
    h.finish()
}

/// The fixed-width frame header line, so a placeholder written before the
/// body can be patched in place once the streaming hash is known.
fn write_frame_header(w: &mut impl Write, rows: u64, fx: u64) -> std::io::Result<()> {
    writeln!(w, "{FRAME_PREFIX}rows={rows:020} fx={fx:016x}")
}

/// Stream one extent as framed text into `file`: placeholder header, one
/// codec line per row through a reused line buffer (allocation-flat), then
/// seek back and patch the real row count + hash into the header.
fn write_text_extent(file: fs::File, partition: &[Row]) -> std::io::Result<()> {
    let mut w = BufWriter::new(file);
    write_frame_header(&mut w, partition.len() as u64, 0)?;
    let mut h = FxHasher::default();
    let mut line = String::new();
    for row in partition {
        line.clear();
        codec::encode_row_into(row, &mut line);
        h.write(line.as_bytes());
        h.write(b"\n");
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
    }
    let fx = h.finish();
    w.flush()?;
    let mut file = w
        .into_inner()
        .map_err(std::io::IntoInnerError::into_error)?;
    file.seek(SeekFrom::Start(0))?;
    write_frame_header(&mut file, partition.len() as u64, fx)
}

/// Split a framed text extent into `(expected rows, expected hash, body)`,
/// or `None` for headerless (pre-frame) files.
fn parse_frame(text: &str) -> Option<Result<(u64, u64, &str)>> {
    let rest = text.strip_prefix(FRAME_PREFIX)?;
    let parse = || -> Option<(u64, u64, &str)> {
        let (header, body) = rest.split_once('\n')?;
        let (rows_kv, fx_kv) = header.split_once(' ')?;
        let rows = rows_kv.strip_prefix("rows=")?.parse().ok()?;
        let fx = u64::from_str_radix(fx_kv.strip_prefix("fx=")?, 16).ok()?;
        Some((rows, fx, body))
    };
    Some(parse().ok_or_else(|| MrError::Corrupt {
        what: format!(
            "malformed extent frame header `{}`",
            rest.lines().next().unwrap_or("")
        ),
    }))
}

fn write_schema_file(dir: &Path, schema: &Schema) -> Result<()> {
    let mut schema_text = String::new();
    for f in schema.fields() {
        schema_text.push_str(&format!("{}:{}\n", f.name, type_tag(f.ty)));
    }
    let schema_path = dir.join("schema");
    fs::write(&schema_path, schema_text).map_err(|e| io_err(e, "write schema", &schema_path))
}

/// Remove existing `part-*` files so a re-save never leaves stale extents
/// (a dataset shrinking, or flipping between binary and text parts).
fn clear_stale_parts(dir: &Path) -> Result<()> {
    let entries = fs::read_dir(dir).map_err(|e| io_err(e, "list extents", dir))?;
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        let is_part = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("part-"));
        if is_part {
            fs::remove_file(&path).map_err(|e| io_err(e, "remove stale extent", &path))?;
        }
    }
    Ok(())
}

fn save_dataset_impl(root: &Path, name: &str, dataset: &Dataset, force_text: bool) -> Result<()> {
    check_name(name)?;
    let dir = root.join(name);
    fs::create_dir_all(&dir).map_err(|e| io_err(e, "create dataset dir", &dir))?;
    clear_stale_parts(&dir)?;
    write_schema_file(&dir, &dataset.schema)?;

    for (i, stored) in dataset.partitions.iter().enumerate() {
        if force_text {
            let path = dir.join(format!("part-{i:05}"));
            let rows = dataset.batch(i)?.to_rows();
            let file = fs::File::create(&path).map_err(|e| io_err(e, "write extent", &path))?;
            write_text_extent(file, &rows).map_err(|e| io_err(e, "write extent", &path))?;
        } else {
            let path = dir.join(format!("part-{i:05}.bin"));
            fs::write(&path, stored.bytes.as_ref())
                .map_err(|e| io_err(e, "write binary extent", &path))?;
        }
    }
    Ok(())
}

/// Write one dataset to `<root>/<name>/` in the native binary extent
/// format: each extent's in-memory image, byte for byte.
pub fn save_dataset(root: &Path, name: &str, dataset: &Dataset) -> Result<()> {
    save_dataset_impl(root, name, dataset, false)
}

/// Write one dataset to `<root>/<name>/` as framed text extents — the
/// human-inspectable debug form of the same data.
pub fn save_dataset_text(root: &Path, name: &str, dataset: &Dataset) -> Result<()> {
    save_dataset_impl(root, name, dataset, true)
}

/// Load one binary part file verbatim. It is decoded once — which checks
/// every frame — to check its schema and take its width.
fn load_binary_extent(path: &Path, schema: &Schema) -> Result<StoredExtent> {
    let bytes = fs::read(path).map_err(|e| io_err(e, "read extent", path))?;
    let batch = ColumnBatch::from_extent_bytes(&bytes).map_err(|e| MrError::Corrupt {
        what: format!("extent `{}`: {e}", path.display()),
    })?;
    if batch.schema() != schema {
        return Err(MrError::Corrupt {
            what: format!(
                "extent `{}`: schema disagrees with the dataset's schema file",
                path.display()
            ),
        });
    }
    let (rows, width) = (batch.len() as u64, batch.width());
    let bytes = Arc::new(bytes);
    Ok(StoredExtent { bytes, rows, width })
}

fn load_text_extent(path: &Path, schema: &Schema) -> Result<Vec<Row>> {
    let text = fs::read_to_string(path).map_err(|e| io_err(e, "read extent", path))?;
    match parse_frame(&text) {
        Some(framed) => {
            let (expected_rows, expected_fx, body) = framed?;
            let fx = text_body_hash(body);
            if fx != expected_fx {
                return Err(MrError::Corrupt {
                    what: format!(
                        "extent `{}`: checksum mismatch: {fx:#018x}, frame says {expected_fx:#018x}",
                        path.display()
                    ),
                });
            }
            let rows = codec::decode_rows(body, schema)?;
            if rows.len() as u64 != expected_rows {
                return Err(MrError::Corrupt {
                    what: format!(
                        "extent `{}`: length mismatch: {} row(s), frame says {expected_rows}",
                        path.display(),
                        rows.len()
                    ),
                });
            }
            Ok(rows)
        }
        // Headerless pre-frame file: decode without verification.
        None => Ok(codec::decode_rows(&text, schema)?),
    }
}

/// Read one dataset from `<root>/<name>/`, accepting native binary
/// (`part-NNNNN.bin`) and legacy/debug text (`part-NNNNN`) extents side
/// by side. Text-loaded partitions are re-encoded into binary extents on
/// the way in, so a loaded dataset is always in native form.
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

    let mut parts: Vec<PathBuf> = fs::read_dir(&dir)
        .map_err(|e| io_err(e, "list extents", &dir))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("part-"))
        })
        .collect();
    parts.sort();

    let mut extents = Vec::with_capacity(parts.len());
    for path in parts {
        extents.push(match path.extension().is_some_and(|ext| ext == "bin") {
            true => load_binary_extent(&path, &schema)?,
            false => {
                let batch = ColumnBatch::from_rows(&schema, &load_text_extent(&path, &schema)?)?;
                StoredExtent::seal(&schema, &batch)?
            }
        });
    }
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
    fn text_dataset_round_trips_through_disk() {
        let root = temp_root("roundtrip-text");
        let original = sample();
        save_dataset_text(&root, "logs", &original).unwrap();
        let loaded = load_dataset(&root, "logs").unwrap();
        assert_eq!(loaded.schema, original.schema);
        // Text-loaded partitions come back as the very images they left.
        assert_eq!(
            loaded.partitions, original.partitions,
            "byte-identical images"
        );
        assert_eq!(loaded.scan(), original.scan());
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
        assert!(
            !root.join("logs/part-00000").exists(),
            "native save must not also write text parts"
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn text_extent_files_carry_frame_headers() {
        let root = temp_root("frames");
        save_dataset_text(&root, "logs", &sample()).unwrap();
        let text = fs::read_to_string(root.join("logs/part-00000")).unwrap();
        let (rows, fx, body) = parse_frame(&text).unwrap().unwrap();
        assert_eq!(rows, 2);
        assert_eq!(fx, text_body_hash(body));
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
    fn bit_flipped_text_extent_is_detected_never_decoded() {
        let root = temp_root("bitflip");
        save_dataset_text(&root, "logs", &sample()).unwrap();
        let path = root.join("logs/part-00000");
        // Flip one byte of the body without touching the frame header.
        let text = fs::read_to_string(&path).unwrap();
        let flipped = text.replacen("u1", "u2", 1);
        assert_ne!(text, flipped, "corruption must actually change the file");
        fs::write(&path, flipped).unwrap();
        let err = load_dataset(&root, "logs").unwrap_err();
        match err {
            MrError::Corrupt { what } => assert!(what.contains("checksum mismatch"), "{what}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn truncated_extent_is_detected() {
        let root = temp_root("truncate");
        save_dataset_text(&root, "logs", &sample()).unwrap();
        let path = root.join("logs/part-00000");
        let text = fs::read_to_string(&path).unwrap();
        // Drop the last row but keep the header intact.
        let truncated: String = {
            let mut lines: Vec<&str> = text.lines().collect();
            lines.pop();
            lines.join("\n") + "\n"
        };
        fs::write(&path, truncated).unwrap();
        let err = load_dataset(&root, "logs").unwrap_err();
        assert!(matches!(err, MrError::Corrupt { .. }), "{err}");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn malformed_frame_header_is_corrupt() {
        let root = temp_root("badheader");
        save_dataset_text(&root, "logs", &sample()).unwrap();
        let path = root.join("logs/part-00001");
        fs::write(&path, "#timr rows=zzz fx=nothex\n").unwrap();
        let err = load_dataset(&root, "logs").unwrap_err();
        assert!(matches!(err, MrError::Corrupt { .. }), "{err}");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn headerless_legacy_extents_still_load() {
        let root = temp_root("legacy");
        let original = sample();
        save_dataset_text(&root, "logs", &original).unwrap();
        // Rewrite every extent without its frame header (pre-frame format).
        for i in 0..original.partitions.len() {
            let path = root.join(format!("logs/part-{i:05}"));
            let text = fs::read_to_string(&path).unwrap();
            let body = text.split_once('\n').map(|(_, b)| b).unwrap_or("");
            fs::write(&path, body).unwrap();
        }
        let loaded = load_dataset(&root, "logs").unwrap();
        assert_eq!(loaded.partitions, original.partitions);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn resave_clears_stale_parts() {
        let root = temp_root("stale");
        // Text save, then native re-save: the text parts must vanish, or
        // the loader would see every partition twice.
        save_dataset_text(&root, "logs", &sample()).unwrap();
        save_dataset(&root, "logs", &sample()).unwrap();
        let loaded = load_dataset(&root, "logs").unwrap();
        assert_eq!(loaded.partitions.len(), 3);
        assert!(!root.join("logs/part-00000").exists());
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
