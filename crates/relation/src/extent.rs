//! Binary columnar extent codec: the native on-wire/on-disk form of a
//! [`ColumnBatch`].
//!
//! Layout (little-endian, Parquet-style trailing footer so a reader — or an
//! mmap — can locate everything from the tail without scanning):
//!
//! ```text
//! [col 0 section][col 1 section]…[footer][footer_hash: u64][footer_len: u32][magic: 8]
//! ```
//!
//! Each column section is `[validity words][data buffer]` (the validity
//! words are present only when the column has at least one null). The
//! footer records the schema (names + types), the row count, and — per
//! column — the encoding tag, the absolute section offset/length, and an
//! FxHash integrity frame over the section bytes; the footer itself is
//! framed by `footer_hash`. Any single flipped byte therefore lands either
//! under a column frame, under the footer frame, or in the fixed tail
//! (magic / lengths) — decoding detects all three and never silently
//! returns rows from damaged bytes.
//!
//! Per-type data encodings (chosen for the BT logs, where small integers
//! and heavily-repeated identifier strings dominate):
//!
//! - `Bool` — one bit per row;
//! - `Int` / `Long` — zigzag LEB128 varints;
//! - `Double` — fixed 8-byte IEEE bit patterns;
//! - `Str` — dictionary (first-occurrence order, varint indices) when the
//!   distinct count is low, raw length-prefixed bytes otherwise.
//!
//! Encoding is **canonical**: null slots encode the type's placeholder
//! (`false` / `0` / `""`) regardless of what the in-memory placeholder
//! holds, validity words carry zero trailing bits, and every encoding
//! decision is a pure function of the logical cell values. Re-encoding a
//! decoded extent — or an extent rebuilt row-by-row from verified sources —
//! is byte-identical, which is what lets corruption recovery assert
//! bit-for-bit repair.

use crate::column::{Column, ColumnBatch, ColumnData, Validity};
use crate::error::{RelationError, Result};
use crate::schema::{ColumnType, Field, Schema};
use rustc_hash::{FxHashMap, FxHasher};
use std::hash::Hasher;
use std::sync::Arc;

/// Trailing magic identifying a binary extent (version 1).
pub const EXTENT_MAGIC: [u8; 8] = *b"TIMRXT01";

/// Fixed tail width: `footer_hash (8) + footer_len (4) + magic (8)`.
const TAIL: usize = 20;

fn corrupt(msg: impl Into<String>) -> RelationError {
    RelationError::Corrupt(msg.into())
}

fn fx_hash(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

fn type_tag(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Bool => 0,
        ColumnType::Int => 1,
        ColumnType::Long => 2,
        ColumnType::Double => 3,
        ColumnType::Str => 4,
    }
}

fn parse_type_tag(tag: u8) -> Result<ColumnType> {
    Ok(match tag {
        0 => ColumnType::Bool,
        1 => ColumnType::Int,
        2 => ColumnType::Long,
        3 => ColumnType::Double,
        4 => ColumnType::Str,
        other => return Err(corrupt(format!("unknown column type tag {other}"))),
    })
}

/// Data-buffer encoding, recorded per column in the footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Encoding {
    BitpackBool,
    VarintInt,
    VarintLong,
    FixedDouble,
    RawStr,
    DictStr,
}

impl Encoding {
    fn tag(self) -> u8 {
        match self {
            Encoding::BitpackBool => 0,
            Encoding::VarintInt => 1,
            Encoding::VarintLong => 2,
            Encoding::FixedDouble => 3,
            Encoding::RawStr => 4,
            Encoding::DictStr => 5,
        }
    }

    fn from_tag(tag: u8) -> Result<Encoding> {
        Ok(match tag {
            0 => Encoding::BitpackBool,
            1 => Encoding::VarintInt,
            2 => Encoding::VarintLong,
            3 => Encoding::FixedDouble,
            4 => Encoding::RawStr,
            5 => Encoding::DictStr,
            other => return Err(corrupt(format!("unknown encoding tag {other}"))),
        })
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "truncated extent: needed {n} byte(s), {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                // The final byte of a canonical 10-byte varint carries one
                // significant bit; anything wider overflows u64.
                if shift == 63 && b > 1 {
                    break;
                }
                return Ok(v);
            }
        }
        Err(corrupt("varint overflows 64 bits"))
    }
}

/// Per-column footer entry.
struct ColMeta {
    field: Field,
    enc: Encoding,
    has_validity: bool,
    off: u64,
    len: u64,
    hash: u64,
}

/// Parsed footer: schema, row count, and per-column section directory
/// (section ranges are pre-checked against the body during parsing).
struct Footer {
    rows: usize,
    cols: Vec<ColMeta>,
}

/// Parse and frame-check the tail + footer; column sections stay untouched.
fn parse_footer(bytes: &[u8]) -> Result<Footer> {
    if bytes.len() < TAIL {
        return Err(corrupt(format!(
            "extent too short for tail: {} byte(s)",
            bytes.len()
        )));
    }
    let tail = &bytes[bytes.len() - TAIL..];
    if tail[12..] != EXTENT_MAGIC {
        return Err(corrupt("bad extent magic"));
    }
    let footer_hash = u64::from_le_bytes(tail[..8].try_into().expect("8"));
    let footer_len = u32::from_le_bytes(tail[8..12].try_into().expect("4")) as usize;
    let body_end = (bytes.len() - TAIL)
        .checked_sub(footer_len)
        .ok_or_else(|| corrupt("footer length out of range"))?;
    let footer = &bytes[body_end..bytes.len() - TAIL];
    let got = fx_hash(footer);
    if got != footer_hash {
        return Err(corrupt(format!(
            "footer checksum mismatch: {got:#018x}, frame says {footer_hash:#018x}"
        )));
    }
    let mut r = Reader::new(footer);
    let rows = usize::try_from(r.u64()?).map_err(|_| corrupt("row count overflows usize"))?;
    let n_cols = r.u32()? as usize;
    let mut cols = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let name_len = r.u16()? as usize;
        let name = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| corrupt("column name is not UTF-8"))?
            .to_string();
        let ty = parse_type_tag(r.u8()?)?;
        let enc = Encoding::from_tag(r.u8()?)?;
        let has_validity = match r.u8()? {
            0 => false,
            1 => true,
            other => return Err(corrupt(format!("bad validity flag {other}"))),
        };
        let off = r.u64()?;
        let len = r.u64()?;
        let end = off
            .checked_add(len)
            .ok_or_else(|| corrupt("column section range overflows"))?;
        if end > body_end as u64 {
            return Err(corrupt(format!(
                "column section [{off}, {end}) exceeds body of {body_end} byte(s)"
            )));
        }
        let hash = r.u64()?;
        cols.push(ColMeta {
            field: Field::new(name, ty),
            enc,
            has_validity,
            off,
            len,
            hash,
        });
    }
    if r.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing byte(s) after footer entries",
            r.remaining()
        )));
    }
    Ok(Footer { rows, cols })
}

/// Verify every integrity frame of an encoded extent — footer and
/// per-column — without materializing any rows. `Err` means the bytes are
/// damaged (or are not a binary extent at all).
pub fn verify_extent(bytes: &[u8]) -> Result<()> {
    let footer = parse_footer(bytes)?;
    for c in &footer.cols {
        let section = &bytes[c.off as usize..(c.off + c.len) as usize];
        let got = fx_hash(section);
        if got != c.hash {
            return Err(corrupt(format!(
                "column `{}` checksum mismatch: {got:#018x}, frame says {:#018x}",
                c.field.name, c.hash
            )));
        }
    }
    Ok(())
}

/// Schema and row count of an encoded extent, from the footer alone.
pub fn extent_info(bytes: &[u8]) -> Result<(Schema, usize)> {
    let footer = parse_footer(bytes)?;
    let fields = footer.cols.into_iter().map(|c| c.field).collect();
    Ok((Schema::new(fields), footer.rows))
}

/// Canonical per-slot string: the cell's value, or `""` at null slots.
fn slot_str<'a>(d: &'a [Arc<str>], validity: Option<&Validity>, i: usize) -> &'a str {
    match validity {
        Some(v) if !v.is_valid(i) => "",
        _ => &d[i],
    }
}

fn encode_column(batch_rows: usize, field: &Field, col: &Column, out: &mut Vec<u8>) -> Result<()> {
    let validity = col
        .validity()
        .filter(|v| (0..v.len()).any(|i| !v.is_valid(i)));
    if let Some(v) = validity {
        // Rebuild words from the logical bits so trailing garbage can never
        // leak into the encoding.
        let mut words = vec![0u64; batch_rows.div_ceil(64)];
        for i in 0..batch_rows {
            if v.is_valid(i) {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        for w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    let valid = |i: usize| validity.is_none_or(|v| v.is_valid(i));
    let mismatch = || {
        Err(RelationError::TypeMismatch {
            column: field.name.clone(),
            expected: field.ty.to_string(),
            actual: "mismatched column storage".to_string(),
        })
    };
    // An all-null column may carry storage of any variant (nothing can
    // observe it); encode it as placeholders of the declared type.
    let all_null = (0..batch_rows).all(|i| !valid(i));
    match (field.ty, col.data()) {
        (ColumnType::Bool, data) => {
            let mut bits = vec![0u8; batch_rows.div_ceil(8)];
            match data {
                ColumnData::Bool(d) => {
                    for i in 0..batch_rows {
                        if valid(i) && d[i] {
                            bits[i / 8] |= 1 << (i % 8);
                        }
                    }
                }
                _ if all_null => {}
                _ => return mismatch(),
            }
            out.extend_from_slice(&bits);
        }
        (ColumnType::Int, data) => match data {
            ColumnData::Int(d) => {
                for (i, &v) in d.iter().enumerate().take(batch_rows) {
                    put_varint(out, zigzag(if valid(i) { i64::from(v) } else { 0 }));
                }
            }
            _ if all_null => out.extend(std::iter::repeat_n(0u8, batch_rows)),
            _ => return mismatch(),
        },
        (ColumnType::Long, data) => match data {
            ColumnData::Long(d) => {
                for (i, &v) in d.iter().enumerate().take(batch_rows) {
                    put_varint(out, zigzag(if valid(i) { v } else { 0 }));
                }
            }
            _ if all_null => out.extend(std::iter::repeat_n(0u8, batch_rows)),
            _ => return mismatch(),
        },
        (ColumnType::Double, data) => match data {
            ColumnData::Double(d) => {
                for (i, &v) in d.iter().enumerate().take(batch_rows) {
                    let bits = if valid(i) { v.to_bits() } else { 0 };
                    out.extend_from_slice(&bits.to_le_bytes());
                }
            }
            _ if all_null => out.extend(std::iter::repeat_n(0u8, batch_rows * 8)),
            _ => return mismatch(),
        },
        (ColumnType::Str, data) => {
            let empty: [Arc<str>; 0] = [];
            let d: &[Arc<str>] = match data {
                ColumnData::Str(d) => d,
                _ if all_null => &empty,
                _ => return mismatch(),
            };
            let at = |i: usize| -> &str {
                if d.is_empty() {
                    ""
                } else {
                    slot_str(d, validity, i)
                }
            };
            encode_str_data(batch_rows, at, out);
        }
    }
    Ok(())
}

/// Encode a string column: dictionary when identifiers repeat heavily
/// (the BT logs' `UserId`/`KwAdId` shape), raw length-prefixed otherwise.
/// The choice is a pure function of the cell values, so re-encoding is
/// deterministic.
fn encode_str_data<'a>(rows: usize, at: impl Fn(usize) -> &'a str, out: &mut Vec<u8>) {
    // One hash probe per cell: the entry either yields the string's code
    // or assigns the next one (first-occurrence order).
    let mut dict: FxHashMap<&str, u32> = FxHashMap::default();
    let mut order: Vec<&str> = Vec::new();
    let mut codes: Vec<u32> = Vec::with_capacity(rows);
    for i in 0..rows {
        let s = at(i);
        let code = *dict.entry(s).or_insert_with(|| {
            order.push(s);
            u32::try_from(order.len() - 1).expect("an extent holds fewer than 2^32 strings")
        });
        codes.push(code);
    }
    let use_dict = rows >= 8 && order.len() * 4 <= rows * 3;
    if use_dict {
        out.push(1);
        put_varint(out, order.len() as u64);
        for s in &order {
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        for code in codes {
            put_varint(out, u64::from(code));
        }
    } else {
        out.push(0);
        for i in 0..rows {
            let s = at(i);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn str_encoding_of(section: &[u8], validity_words: usize) -> Result<Encoding> {
    // The first data byte after the validity words discriminates raw/dict.
    match section.get(validity_words * 8) {
        Some(0) => Ok(Encoding::RawStr),
        Some(1) => Ok(Encoding::DictStr),
        Some(other) => Err(corrupt(format!("bad string encoding marker {other}"))),
        None => Err(corrupt("string column section is empty")),
    }
}

/// Encode a [`ColumnBatch`] into a framed binary extent.
///
/// Errors only when a column's storage variant contradicts its declared
/// type on a non-null slot (possible for batches assembled outside
/// [`ColumnBatch::from_rows`]); such a batch has no image.
pub fn encode_extent(batch: &ColumnBatch) -> Result<Vec<u8>> {
    let rows = batch.len();
    let mut out = Vec::new();
    let mut metas: Vec<ColMeta> = Vec::with_capacity(batch.schema().len());
    for (field, col) in batch.schema().fields().iter().zip(batch.columns()) {
        let off = out.len() as u64;
        let validity = col
            .validity()
            .filter(|v| (0..v.len()).any(|i| !v.is_valid(i)));
        encode_column(rows, field, col, &mut out)?;
        let len = out.len() as u64 - off;
        let enc = match field.ty {
            ColumnType::Bool => Encoding::BitpackBool,
            ColumnType::Int => Encoding::VarintInt,
            ColumnType::Long => Encoding::VarintLong,
            ColumnType::Double => Encoding::FixedDouble,
            ColumnType::Str => {
                let words = if validity.is_some() {
                    rows.div_ceil(64)
                } else {
                    0
                };
                str_encoding_of(&out[off as usize..], words)?
            }
        };
        metas.push(ColMeta {
            field: field.clone(),
            enc,
            has_validity: validity.is_some(),
            off,
            len,
            hash: fx_hash(&out[off as usize..]),
        });
    }
    let mut footer = Vec::new();
    footer.extend_from_slice(&(rows as u64).to_le_bytes());
    footer.extend_from_slice(&(metas.len() as u32).to_le_bytes());
    for m in &metas {
        footer.extend_from_slice(&(m.field.name.len() as u16).to_le_bytes());
        footer.extend_from_slice(m.field.name.as_bytes());
        footer.push(type_tag(m.field.ty));
        footer.push(m.enc.tag());
        footer.push(u8::from(m.has_validity));
        footer.extend_from_slice(&m.off.to_le_bytes());
        footer.extend_from_slice(&m.len.to_le_bytes());
        footer.extend_from_slice(&m.hash.to_le_bytes());
    }
    let footer_hash = fx_hash(&footer);
    let footer_len = footer.len() as u32;
    out.extend_from_slice(&footer);
    out.extend_from_slice(&footer_hash.to_le_bytes());
    out.extend_from_slice(&footer_len.to_le_bytes());
    out.extend_from_slice(&EXTENT_MAGIC);
    Ok(out)
}

fn decode_validity(r: &mut Reader<'_>, rows: usize) -> Result<Option<Validity>> {
    let mut words = Vec::with_capacity(rows.div_ceil(64));
    for _ in 0..rows.div_ceil(64) {
        words.push(r.u64()?);
    }
    Ok(Validity::from_words(words, rows))
}

fn decode_column(meta: &ColMeta, section: &[u8], rows: usize) -> Result<Column> {
    let mut r = Reader::new(section);
    let validity = if meta.has_validity {
        let v = decode_validity(&mut r, rows)?;
        if v.is_none() {
            return Err(corrupt(format!(
                "column `{}` carries a validity section with no nulls",
                meta.field.name
            )));
        }
        v
    } else {
        None
    };
    let data = match meta.enc {
        Encoding::BitpackBool => {
            let bits = r.take(rows.div_ceil(8))?;
            ColumnData::Bool((0..rows).map(|i| bits[i / 8] >> (i % 8) & 1 == 1).collect())
        }
        Encoding::VarintInt => {
            let mut d = Vec::with_capacity(rows);
            for _ in 0..rows {
                let v = unzigzag(r.varint()?);
                d.push(
                    i32::try_from(v).map_err(|_| corrupt(format!("int cell {v} out of range")))?,
                );
            }
            ColumnData::Int(d)
        }
        Encoding::VarintLong => {
            let mut d = Vec::with_capacity(rows);
            for _ in 0..rows {
                d.push(unzigzag(r.varint()?));
            }
            ColumnData::Long(d)
        }
        Encoding::FixedDouble => {
            let raw = r.take(rows * 8)?;
            ColumnData::Double(
                raw.chunks_exact(8)
                    .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8"))))
                    .collect(),
            )
        }
        Encoding::RawStr | Encoding::DictStr => {
            let marker = r.u8()?;
            let want = u8::from(meta.enc == Encoding::DictStr);
            if marker != want {
                return Err(corrupt(format!(
                    "string encoding marker {marker} contradicts footer tag"
                )));
            }
            let read_str = |r: &mut Reader<'_>| -> Result<Arc<str>> {
                let len = usize::try_from(r.varint()?)
                    .map_err(|_| corrupt("string length overflows usize"))?;
                let raw = r.take(len)?;
                Ok(Arc::from(
                    std::str::from_utf8(raw).map_err(|_| corrupt("string cell is not UTF-8"))?,
                ))
            };
            if meta.enc == Encoding::DictStr {
                let dict_len = usize::try_from(r.varint()?)
                    .map_err(|_| corrupt("dictionary length overflows usize"))?;
                if dict_len > section.len() {
                    return Err(corrupt("dictionary length exceeds section"));
                }
                let mut dict = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    dict.push(read_str(&mut r)?);
                }
                let mut d = Vec::with_capacity(rows);
                for _ in 0..rows {
                    let idx = usize::try_from(r.varint()?)
                        .ok()
                        .filter(|&i| i < dict.len())
                        .ok_or_else(|| corrupt("dictionary index out of range"))?;
                    d.push(Arc::clone(&dict[idx]));
                }
                ColumnData::Str(d)
            } else {
                let mut d = Vec::with_capacity(rows);
                for _ in 0..rows {
                    d.push(read_str(&mut r)?);
                }
                ColumnData::Str(d)
            }
        }
    };
    if r.remaining() != 0 {
        return Err(corrupt(format!(
            "column `{}` has {} undecoded trailing byte(s)",
            meta.field.name,
            r.remaining()
        )));
    }
    Ok(Column::new(data, validity))
}

/// Decode a framed binary extent back into a [`ColumnBatch`].
///
/// Every integrity frame is verified before any data is materialized;
/// damaged bytes yield `Err`, never rows.
pub fn decode_extent(bytes: &[u8]) -> Result<ColumnBatch> {
    let footer = parse_footer(bytes)?;
    let mut columns = Vec::with_capacity(footer.cols.len());
    let mut fields = Vec::with_capacity(footer.cols.len());
    for meta in &footer.cols {
        let section = &bytes[meta.off as usize..(meta.off + meta.len) as usize];
        let got = fx_hash(section);
        if got != meta.hash {
            return Err(corrupt(format!(
                "column `{}` checksum mismatch: {got:#018x}, frame says {:#018x}",
                meta.field.name, meta.hash
            )));
        }
        columns.push(decode_column(meta, section, footer.rows)?);
        fields.push(meta.field.clone());
    }
    Ok(ColumnBatch::new(Schema::new(fields), columns, footer.rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::row::Row;
    use crate::value::Value;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("B", ColumnType::Bool),
            Field::new("I", ColumnType::Int),
            Field::new("L", ColumnType::Long),
            Field::new("D", ColumnType::Double),
            Field::new("S", ColumnType::Str),
        ])
    }

    fn rows() -> Vec<Row> {
        (0..100)
            .map(|i| {
                if i % 7 == 0 {
                    Row::new(vec![Value::Null; 5])
                } else {
                    row![
                        i % 2 == 0,
                        i - 50,
                        (i as i64) * 1_000_003,
                        i as f64 / 3.0,
                        format!("user-{}", i % 5)
                    ]
                }
            })
            .collect()
    }

    #[test]
    fn round_trip_is_lossless_and_canonical() {
        let batch = ColumnBatch::from_rows(&schema(), &rows()).unwrap();
        let bytes = encode_extent(&batch).unwrap();
        verify_extent(&bytes).unwrap();
        let back = decode_extent(&bytes).unwrap();
        assert_eq!(back.schema(), batch.schema());
        assert_eq!(back.to_rows(), rows());
        assert_eq!(encode_extent(&back).unwrap(), bytes, "re-encode differs");
    }

    #[test]
    fn empty_batch_round_trips() {
        let batch = ColumnBatch::from_rows(&schema(), &[]).unwrap();
        let bytes = encode_extent(&batch).unwrap();
        let back = decode_extent(&bytes).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.schema(), batch.schema());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let batch = ColumnBatch::from_rows(&schema(), &rows()[..20]).unwrap();
        let bytes = encode_extent(&batch).unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xff;
            assert!(
                decode_extent(&bad).is_err(),
                "flipped byte {i} decoded silently"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let batch = ColumnBatch::from_rows(&schema(), &rows()).unwrap();
        let bytes = encode_extent(&batch).unwrap();
        for cut in [0, 1, TAIL - 1, TAIL, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_extent(&bytes[..cut]).is_err(), "cut {cut} decoded");
        }
    }

    #[test]
    fn extent_info_reads_schema_without_decoding() {
        let batch = ColumnBatch::from_rows(&schema(), &rows()).unwrap();
        let bytes = encode_extent(&batch).unwrap();
        let (s, n) = extent_info(&bytes).unwrap();
        assert_eq!(s, schema());
        assert_eq!(n, rows().len());
    }

    #[test]
    fn dictionary_beats_raw_on_repeated_identifiers() {
        let s = Schema::new(vec![Field::new("U", ColumnType::Str)]);
        let repeated: Vec<Row> = (0..1000)
            .map(|i| row![format!("user-{:04}", i % 20)])
            .collect();
        let distinct: Vec<Row> = (0..1000).map(|i| row![format!("user-{i:04}")]).collect();
        let enc = |rows: &[Row]| {
            encode_extent(&ColumnBatch::from_rows(&s, rows).unwrap())
                .unwrap()
                .len()
        };
        assert!(enc(&repeated) * 3 < enc(&distinct));
        let batch = ColumnBatch::from_rows(&s, &repeated).unwrap();
        let back = decode_extent(&encode_extent(&batch).unwrap()).unwrap();
        assert_eq!(back.to_rows(), repeated);
    }

    #[test]
    fn all_null_column_with_foreign_storage_encodes() {
        // `BatchEval::into_column` materializes all-null columns as Bool
        // placeholder storage regardless of schema type.
        let s = Schema::new(vec![Field::new("L", ColumnType::Long)]);
        let mut v = Validity::new();
        v.push(false);
        v.push(false);
        let col = Column::new(ColumnData::Bool(vec![false, false]), Some(v));
        let batch = ColumnBatch::new(s.clone(), vec![col], 2);
        let back = decode_extent(&encode_extent(&batch).unwrap()).unwrap();
        assert_eq!(back.to_rows(), vec![Row::new(vec![Value::Null]); 2]);
    }
}
