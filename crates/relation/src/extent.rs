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
//! returns rows from damaged bytes. A row count that a column's section is
//! too short to hold is rejected from the footer alone, before anything is
//! allocated for it. A zero-column image has no section to bound it, so its
//! row count is taken as written: a zero-column batch of any length is a
//! batch the encoder writes, and decoding one allocates nothing per row,
//! but a caller that turns a forged one into rows allocates what it claims.
//!
//! Per-type data encodings (chosen for the BT logs, where small integers
//! and heavily-repeated identifier strings dominate):
//!
//! - `Bool` — one bit per row;
//! - `Int` / `Long` — zigzag LEB128 varints;
//! - `Double` — fixed 8-byte IEEE bit patterns;
//! - `Str` — dictionary (first-occurrence order, varint indices) when the
//!   distinct count is low, raw length-prefixed bytes otherwise. A
//!   dictionary section never repeats an entry.
//!
//! Encoding is **canonical**: null slots encode the type's placeholder
//! (`false` / `0` / `""`) regardless of what the in-memory placeholder
//! holds, validity words carry zero trailing bits, and every encoding
//! decision is a pure function of the logical cell values. Re-encoding a
//! decoded extent — or an extent rebuilt row-by-row from verified sources —
//! is byte-identical, which is what lets corruption recovery assert
//! bit-for-bit repair.
//!
//! How the codec runs — none of this shows in the bytes:
//!
//! - [`encode_extent`] encodes a [`RowSelection`]: a whole batch, or the
//!   rows of one shuffle partition in the order given. It reads the cells
//!   where they are, so sealing a partition builds no gathered copy of it;
//!   for a whole batch it tests for nulls by counting validity bits a word
//!   at a time.
//! - A string column is already codes into a dictionary of distinct
//!   strings ([`crate::dict`]), so the image's dictionary is a renumbering:
//!   each picked code gets the next image code at its first appearance,
//!   through an array indexed by code (a map when the column's dictionary
//!   is much larger than the selection). Null slots encode `""`, which
//!   shares the code of a `""` entry. No string is hashed, and the scan
//!   stops as soon as the distinct count rules the dictionary out.
//! - The decoder hands the image's dictionary through as the column's: it
//!   allocates one string per distinct entry and reads each row's code. A
//!   raw section is interned as it is read, so it too allocates one string
//!   per distinct value.
//! - The decoder reads a varint of one to three bytes — every varint of
//!   the BT logs — from one eight-byte load, ending it at the first byte
//!   whose mask clears. Longer varints, and any starting within eight
//!   bytes of the section's end, take the byte-at-a-time path, so exactly
//!   the same inputs are accepted and rejected.

use crate::column::{Column, ColumnBatch, ColumnData, Validity};
use crate::dict::{Dictionary, StrCodes, NO_CODE};
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

    /// The fewest bytes a section of this encoding can take for `rows`
    /// rows: varints, dictionary indices and raw lengths take at least a
    /// byte per row, doubles eight, bools an eighth, validity words a
    /// sixty-fourth (×8); string data leads with a marker byte, and a
    /// dictionary with its length. `None` when that overflows.
    fn min_section_len(self, rows: usize, has_validity: bool) -> Option<usize> {
        let words = match has_validity {
            true => rows.div_ceil(64).checked_mul(8)?,
            false => 0,
        };
        let data = match self {
            Encoding::BitpackBool => rows.div_ceil(8),
            Encoding::VarintInt | Encoding::VarintLong => rows,
            Encoding::FixedDouble => rows.checked_mul(8)?,
            Encoding::RawStr => rows.checked_add(1)?,
            Encoding::DictStr => rows.checked_add(2)?,
        };
        words.checked_add(data)
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

    /// The next eight bytes as a little-endian word, if there are eight.
    #[inline(always)]
    fn word(&self) -> Option<u64> {
        let w = self.buf.get(self.pos..self.pos + 8)?;
        Some(u64::from_le_bytes(w.try_into().expect("8")))
    }

    /// One LEB128 varint, read from one eight-byte load when it is one to
    /// three bytes long ([`word_varint`]). The rest — longer varints, and
    /// any starting within eight bytes of the end — go byte by byte
    /// ([`Reader::varint_bytewise`]), which is what decides every error.
    #[inline(always)]
    fn varint(&mut self) -> Result<u64> {
        match self.word().and_then(word_varint) {
            Some((v, len)) => {
                self.pos += len;
                Ok(v)
            }
            None => self.varint_bytewise(),
        }
    }

    #[cold]
    fn varint_bytewise(&mut self) -> Result<u64> {
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

/// The varint at the start of the little-endian `word` and its length in
/// bytes, if it is one to three bytes long: the stop bit is found by one
/// mask per byte — branches the predictor learns, so the next read's
/// position does not wait on this one's arithmetic.
#[inline(always)]
fn word_varint(word: u64) -> Option<(u64, usize)> {
    if word & 0x80 == 0 {
        return Some((word & 0x7f, 1));
    }
    if word & 0x8000 == 0 {
        return Some(((word & 0x7f) | (word & 0x7f00) >> 1, 2));
    }
    if word & 0x80_0000 == 0 {
        let v = (word & 0x7f) | (word & 0x7f00) >> 1 | (word & 0x7f_0000) >> 2;
        return Some((v, 3));
    }
    None
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
        if enc
            .min_section_len(rows, has_validity)
            .is_none_or(|min| min as u64 > len)
        {
            return Err(corrupt(format!(
                "row count {rows} exceeds what column `{name}`'s section of {len} byte(s) can hold"
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

/// The rows of a batch an extent image holds, in order: every row of the
/// batch, or a selection of them. Encoding `RowSelection::new(batch, idx)`
/// writes the bytes `batch.gather(idx)` would encode to, without building
/// the gathered batch.
#[derive(Debug, Clone, Copy)]
pub struct RowSelection<'a> {
    batch: &'a ColumnBatch,
    idx: Option<&'a [u32]>,
}

impl<'a> RowSelection<'a> {
    /// The rows of `batch` at `idx`, in that order (indices may repeat and
    /// appear in any order; an index out of range panics, as in
    /// [`ColumnBatch::gather`]).
    pub fn new(batch: &'a ColumnBatch, idx: &'a [u32]) -> RowSelection<'a> {
        RowSelection {
            batch,
            idx: Some(idx),
        }
    }
}

impl<'a> From<&'a ColumnBatch> for RowSelection<'a> {
    fn from(batch: &'a ColumnBatch) -> RowSelection<'a> {
        RowSelection { batch, idx: None }
    }
}

/// Which slot of the batch row `j` of the image reads: the identity for a
/// whole batch, an index list for a selection. Generic, so the whole-batch
/// loops carry no indirection.
trait Pick: Copy {
    fn len(self) -> usize;
    fn slot(self, j: usize) -> usize;
    /// The picked slots' bitmap, `None` when none of them is null.
    fn validity(self, v: &Validity) -> Option<Validity>;
}

#[derive(Clone, Copy)]
struct AllRows(usize);

impl Pick for AllRows {
    fn len(self) -> usize {
        self.0
    }

    fn slot(self, j: usize) -> usize {
        j
    }

    fn validity(self, v: &Validity) -> Option<Validity> {
        Validity::from_words(v.words().to_vec(), self.0)
    }
}

impl Pick for &[u32] {
    fn len(self) -> usize {
        <[u32]>::len(self)
    }

    fn slot(self, j: usize) -> usize {
        self[j] as usize
    }

    fn validity(self, v: &Validity) -> Option<Validity> {
        v.gather(self)
    }
}

/// The image dictionary of `rows` string cells, cell `j` being code
/// `code(j)` (below `n_codes`) of a dictionary of distinct strings: the
/// codes in first-appearance order and each row's image code — or `None`
/// when the dictionary encoding is ruled out (`rows < 8`, or
/// `distinct·4 > rows·3`). The scan stops at the first code that rules it
/// out.
fn first_appearance(
    rows: usize,
    n_codes: usize,
    code: &impl Fn(usize) -> u32,
) -> Option<(Vec<u32>, Vec<u32>)> {
    if rows < 8 {
        return None;
    }
    let max_distinct = rows * 3 / 4;
    let mut order: Vec<u32> = Vec::new();
    let mut out: Vec<u32> = Vec::with_capacity(rows);
    let next = |c: u32, order: &mut Vec<u32>| {
        order.push(c);
        (order.len() - 1) as u32
    };
    if n_codes <= 2 * rows + 64 {
        let mut remap = vec![NO_CODE; n_codes];
        for j in 0..rows {
            let c = code(j);
            let r = &mut remap[c as usize];
            if *r == NO_CODE {
                *r = next(c, &mut order);
                if order.len() > max_distinct {
                    return None;
                }
            }
            out.push(*r);
        }
    } else {
        let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
        for j in 0..rows {
            let c = code(j);
            let r = *remap.entry(c).or_insert_with(|| next(c, &mut order));
            if order.len() > max_distinct {
                return None;
            }
            out.push(r);
        }
    }
    Some((order, out))
}

/// Encode `rows` string cells, cell `j` being `entry(code(j))` for codes
/// below `n_codes` that name distinct strings: dictionary when identifiers
/// repeat heavily (the BT logs' `UserId`/`KwAdId` shape), raw
/// length-prefixed otherwise. The choice is a pure function of the cell
/// values, so re-encoding is deterministic.
fn encode_str<'a>(
    rows: usize,
    n_codes: usize,
    code: impl Fn(usize) -> u32,
    entry: impl Fn(u32) -> &'a str,
    out: &mut Vec<u8>,
) -> Encoding {
    if let Some((order, codes)) = first_appearance(rows, n_codes, &code) {
        out.push(1);
        put_varint(out, order.len() as u64);
        for &c in &order {
            let s = entry(c);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        out.reserve(codes.len());
        for code in codes {
            put_varint(out, u64::from(code));
        }
        Encoding::DictStr
    } else {
        out.push(0);
        for j in 0..rows {
            let s = entry(code(j));
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Encoding::RawStr
    }
}

/// [`encode_str`] over a string column's picked slots. A null slot encodes
/// `""`: the code of the dictionary's `""` entry, or one past its end.
fn encode_codes(
    d: &StrCodes,
    pick: impl Pick,
    validity: Option<&Validity>,
    out: &mut Vec<u8>,
) -> Encoding {
    let dict = d.dict();
    let n = dict.len() as u32;
    let empty = match validity {
        Some(_) => dict.find("").unwrap_or(n),
        None => n,
    };
    let codes = d.codes();
    let code = |j: usize| match validity.is_none_or(|v| v.is_valid(j)) {
        true => codes[pick.slot(j)],
        false => empty,
    };
    let entry = |c: u32| -> &str {
        match c == n {
            true => "",
            false => dict.get(c),
        }
    };
    encode_str(pick.len(), dict.len() + 1, code, entry, out)
}

/// Zigzag varints of `rows` integer cells, `0` at null slots.
fn put_varints(
    out: &mut Vec<u8>,
    rows: usize,
    valid: impl Fn(usize) -> bool,
    cell: impl Fn(usize) -> i64,
) {
    out.reserve(rows);
    for j in 0..rows {
        put_varint(out, zigzag(if valid(j) { cell(j) } else { 0 }));
    }
}

/// Encode the data buffer of one column's picked rows; `validity` is their
/// bitmap (`None`: no null among them).
fn encode_data(
    field: &Field,
    data: &ColumnData,
    pick: impl Pick,
    validity: Option<&Validity>,
    out: &mut Vec<u8>,
) -> Result<Encoding> {
    let rows = pick.len();
    let valid = |j: usize| validity.is_none_or(|v| v.is_valid(j));
    // An all-null column may carry storage of any variant (nothing can
    // observe it); encode it as placeholders of the declared type.
    let all_null = validity.map_or(rows == 0, |v| v.words().iter().all(|&w| w == 0));
    Ok(match (field.ty, data) {
        (ColumnType::Bool, ColumnData::Bool(d)) => {
            let start = out.len();
            out.resize(start + rows.div_ceil(8), 0);
            for j in 0..rows {
                if valid(j) && d[pick.slot(j)] {
                    out[start + j / 8] |= 1 << (j % 8);
                }
            }
            Encoding::BitpackBool
        }
        (ColumnType::Int, ColumnData::Int(d)) => {
            put_varints(out, rows, valid, |j| i64::from(d[pick.slot(j)]));
            Encoding::VarintInt
        }
        (ColumnType::Long, ColumnData::Long(d)) => {
            put_varints(out, rows, valid, |j| d[pick.slot(j)]);
            Encoding::VarintLong
        }
        (ColumnType::Double, ColumnData::Double(d)) => {
            out.reserve(rows * 8);
            for j in 0..rows {
                let bits = if valid(j) {
                    d[pick.slot(j)].to_bits()
                } else {
                    0
                };
                out.extend_from_slice(&bits.to_le_bytes());
            }
            Encoding::FixedDouble
        }
        (ColumnType::Str, ColumnData::Str(d)) => encode_codes(d, pick, validity, out),
        (ty, _) if all_null => match ty {
            ColumnType::Bool => {
                out.resize(out.len() + rows.div_ceil(8), 0);
                Encoding::BitpackBool
            }
            ColumnType::Int => {
                out.resize(out.len() + rows, 0);
                Encoding::VarintInt
            }
            ColumnType::Long => {
                out.resize(out.len() + rows, 0);
                Encoding::VarintLong
            }
            ColumnType::Double => {
                out.resize(out.len() + rows * 8, 0);
                Encoding::FixedDouble
            }
            ColumnType::Str => encode_str(rows, 1, |_| 0, |_| "", out),
        },
        _ => {
            return Err(RelationError::TypeMismatch {
                column: field.name.clone(),
                expected: field.ty.to_string(),
                actual: "mismatched column storage".to_string(),
            })
        }
    })
}

/// Encode rows of a [`ColumnBatch`] — the whole batch (`&batch`) or a
/// [`RowSelection`] — into a framed binary extent.
///
/// Errors only when a column's storage variant contradicts its declared
/// type on a non-null picked slot (possible for batches assembled outside
/// [`ColumnBatch::from_rows`]); such rows have no image.
pub fn encode_extent<'a>(rows: impl Into<RowSelection<'a>>) -> Result<Vec<u8>> {
    let RowSelection { batch, idx } = rows.into();
    match idx {
        None => encode_picked(batch, AllRows(batch.len())),
        Some(idx) => encode_picked(batch, idx),
    }
}

fn encode_picked(batch: &ColumnBatch, pick: impl Pick) -> Result<Vec<u8>> {
    let rows = pick.len();
    let fields = batch.schema().fields();
    let mut out = Vec::new();
    // Per column: encoding, validity flag, offset, length, frame.
    let mut sections: Vec<(Encoding, bool, u64, u64, u64)> = Vec::with_capacity(fields.len());
    for (field, col) in fields.iter().zip(batch.columns()) {
        let off = out.len();
        let validity = col.validity().and_then(|v| pick.validity(v));
        if let Some(v) = &validity {
            for w in v.words() {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        let enc = encode_data(field, col.data(), pick, validity.as_ref(), &mut out)?;
        let section = &out[off..];
        sections.push((
            enc,
            validity.is_some(),
            off as u64,
            section.len() as u64,
            fx_hash(section),
        ));
    }
    let footer_start = out.len();
    out.extend_from_slice(&(rows as u64).to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (field, &(enc, has_validity, off, len, hash)) in fields.iter().zip(&sections) {
        out.extend_from_slice(&(field.name.len() as u16).to_le_bytes());
        out.extend_from_slice(field.name.as_bytes());
        out.push(type_tag(field.ty));
        out.push(enc.tag());
        out.push(u8::from(has_validity));
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&hash.to_le_bytes());
    }
    let footer_hash = fx_hash(&out[footer_start..]);
    let footer_len = (out.len() - footer_start) as u32;
    out.extend_from_slice(&footer_hash.to_le_bytes());
    out.extend_from_slice(&footer_len.to_le_bytes());
    out.extend_from_slice(&EXTENT_MAGIC);
    Ok(out)
}

fn decode_validity(r: &mut Reader<'_>, rows: usize) -> Result<Option<Validity>> {
    let words = r
        .take(rows.div_ceil(64) * 8)?
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8")))
        .collect();
    Ok(Validity::from_words(words, rows))
}

fn decode_column<'a>(meta: &ColMeta, section: &'a [u8], rows: usize) -> Result<Column> {
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
            let read_str = |r: &mut Reader<'a>| -> Result<&'a str> {
                let len = usize::try_from(r.varint()?)
                    .map_err(|_| corrupt("string length overflows usize"))?;
                let raw = r.take(len)?;
                std::str::from_utf8(raw).map_err(|_| corrupt("string cell is not UTF-8"))
            };
            let mut codes = Vec::with_capacity(rows);
            let dict = if meta.enc == Encoding::DictStr {
                // Every entry takes at least its length byte.
                let dict_len = usize::try_from(r.varint()?)
                    .map_err(|_| corrupt("dictionary length overflows usize"))?;
                if dict_len > r.remaining() {
                    return Err(corrupt("dictionary length exceeds section"));
                }
                let mut dict = Dictionary::with_capacity(dict_len);
                for _ in 0..dict_len {
                    if !dict.push_distinct(read_str(&mut r)?) {
                        return Err(corrupt("dictionary entry repeats"));
                    }
                }
                for _ in 0..rows {
                    let code = r.varint()?;
                    if code >= dict_len as u64 {
                        return Err(corrupt("dictionary index out of range"));
                    }
                    codes.push(code as u32);
                }
                dict
            } else {
                let mut dict = Dictionary::new();
                for _ in 0..rows {
                    codes.push(dict.intern(read_str(&mut r)?));
                }
                dict
            };
            ColumnData::Str(StrCodes::new(Arc::new(dict), codes))
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

    /// No section bounds a zero-column image's row count: it round-trips,
    /// and a forged one is taken as written without allocating for it.
    #[test]
    fn zero_column_row_count_is_taken_as_written() {
        let batch = ColumnBatch::new(Schema::new(vec![]), vec![], 3);
        let image = encode_extent(&batch).unwrap();
        assert_eq!(decode_extent(&image).unwrap().len(), 3);
        let forged = forge_rows(&image, 1 << 40);
        verify_extent(&forged).unwrap();
        assert_eq!(extent_info(&forged).unwrap().1, 1 << 40);
        let back = decode_extent(&forged).unwrap();
        assert_eq!((back.len(), back.columns().len()), (1 << 40, 0));
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
        // A column whose every slot is null may carry storage of another
        // type than its field's (`ColumnBatch::check_types` accepts it).
        let s = Schema::new(vec![Field::new("L", ColumnType::Long)]);
        let mut v = Validity::new();
        v.push(false);
        v.push(false);
        let col = Column::new(ColumnData::Bool(vec![false, false]), Some(v));
        let batch = ColumnBatch::new(s.clone(), vec![col], 2);
        let back = decode_extent(&encode_extent(&batch).unwrap()).unwrap();
        assert_eq!(back.to_rows(), vec![Row::new(vec![Value::Null]); 2]);
    }

    // ---- Oracles: the encoder and the varint reader as they were before
    // the encoder took a row selection and the reader a word at a time.

    fn oracle_put_varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push((v as u8) | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    fn oracle_encode_column(
        batch_rows: usize,
        field: &Field,
        col: &Column,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let validity = col
            .validity()
            .filter(|v| (0..v.len()).any(|i| !v.is_valid(i)));
        if let Some(v) = validity {
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
                        oracle_put_varint(out, zigzag(if valid(i) { i64::from(v) } else { 0 }));
                    }
                }
                _ if all_null => out.extend(std::iter::repeat_n(0u8, batch_rows)),
                _ => return mismatch(),
            },
            (ColumnType::Long, data) => match data {
                ColumnData::Long(d) => {
                    for (i, &v) in d.iter().enumerate().take(batch_rows) {
                        oracle_put_varint(out, zigzag(if valid(i) { v } else { 0 }));
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
                // The cells as values, never as codes: a null reads `""`.
                let cells: Vec<Value> = match data {
                    ColumnData::Str(_) => (0..batch_rows).map(|i| col.value(i)).collect(),
                    _ if all_null => vec![Value::Null; batch_rows],
                    _ => return mismatch(),
                };
                let at = |i: usize| -> &str { cells[i].as_str().unwrap_or("") };
                oracle_encode_str_data(batch_rows, at, out);
            }
        }
        Ok(())
    }

    fn oracle_encode_str_data<'a>(rows: usize, at: impl Fn(usize) -> &'a str, out: &mut Vec<u8>) {
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
            oracle_put_varint(out, order.len() as u64);
            for s in &order {
                oracle_put_varint(out, s.len() as u64);
                out.extend_from_slice(s.as_bytes());
            }
            for code in codes {
                oracle_put_varint(out, u64::from(code));
            }
        } else {
            out.push(0);
            for i in 0..rows {
                let s = at(i);
                oracle_put_varint(out, s.len() as u64);
                out.extend_from_slice(s.as_bytes());
            }
        }
    }

    fn oracle_str_encoding_of(section: &[u8], validity_words: usize) -> Result<Encoding> {
        match section.get(validity_words * 8) {
            Some(0) => Ok(Encoding::RawStr),
            Some(1) => Ok(Encoding::DictStr),
            Some(other) => Err(corrupt(format!("bad string encoding marker {other}"))),
            None => Err(corrupt("string column section is empty")),
        }
    }

    /// The whole-batch encoder the selection encoder replaced, verbatim.
    fn oracle_encode(batch: &ColumnBatch) -> Result<Vec<u8>> {
        let rows = batch.len();
        let mut out = Vec::new();
        let mut metas: Vec<ColMeta> = Vec::with_capacity(batch.schema().len());
        for (field, col) in batch.schema().fields().iter().zip(batch.columns()) {
            let off = out.len() as u64;
            let validity = col
                .validity()
                .filter(|v| (0..v.len()).any(|i| !v.is_valid(i)));
            oracle_encode_column(rows, field, col, &mut out)?;
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
                    oracle_str_encoding_of(&out[off as usize..], words)?
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

    /// The byte-at-a-time varint read the word-at-a-time one replaced,
    /// verbatim.
    fn oracle_varint(r: &mut Reader<'_>) -> Result<u64> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = r.u8()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if shift == 63 && b > 1 {
                    break;
                }
                return Ok(v);
            }
        }
        Err(corrupt("varint overflows 64 bits"))
    }

    // ---- The selection encoder against the oracle.

    /// A bitmap from per-slot validity; with `keep_dense`, a bitmap with
    /// no null stays a bitmap (the encoder must still write none).
    fn bitmap(valid: &[bool], keep_dense: bool) -> Option<Validity> {
        if !keep_dense && valid.iter().all(|&v| v) {
            return None;
        }
        let mut v = Validity::new();
        for &ok in valid {
            v.push(ok);
        }
        Some(v)
    }

    fn oracle_schema() -> Schema {
        Schema::new(vec![
            Field::new("B", ColumnType::Bool),
            Field::new("I", ColumnType::Int),
            Field::new("L", ColumnType::Long),
            Field::new("D", ColumnType::Double),
            Field::new("Shared", ColumnType::Str),
            Field::new("Fresh", ColumnType::Str),
            Field::new("Foreign", ColumnType::Long),
        ])
    }

    /// A batch of `rows` rows whose string cells take `distinct` texts
    /// (`""` among them): `Shared` interns them in first-appearance order,
    /// `Fresh` indexes a dictionary of the texts in reverse, with two
    /// entries no cell names (one of them `""` when `distinct` is 1).
    /// `Foreign` is all null over Bool storage. Null slots hold
    /// non-placeholder storage.
    fn oracle_batch(rng: &mut proptest::TestRng, rows: usize, distinct: usize) -> ColumnBatch {
        let pool: Vec<String> = (0..distinct)
            .map(|k| match k {
                0 => String::new(),
                k => format!("user-{k}"),
            })
            .collect();
        let null_rate = rng.below(4);
        let mut nulls = |keep_dense: bool| -> Option<Validity> {
            let valid: Vec<bool> = (0..rows).map(|_| rng.below(4) >= null_rate).collect();
            bitmap(&valid, keep_dense)
        };
        let (vb, vi, vl, vd, vs, vf) = (
            nulls(false),
            nulls(true),
            nulls(false),
            nulls(false),
            nulls(true),
            nulls(false),
        );
        let picks: Vec<usize> = (0..rows)
            .map(|_| rng.below(distinct as u64) as usize)
            .collect();
        let longs: Vec<i64> = (0..rows)
            .map(|_| match rng.below(3) {
                0 => rng.below(200) as i64 - 100,
                1 => rng.next_u64() as i64,
                _ => (rng.next_u64() >> rng.below(64)) as i64,
            })
            .collect();
        let columns = vec![
            Column::new(
                ColumnData::Bool((0..rows).map(|_| rng.below(2) == 1).collect()),
                vb,
            ),
            Column::new(
                ColumnData::Int(longs.iter().map(|&l| (l >> 32) as i32).collect()),
                vi,
            ),
            Column::new(ColumnData::Long(longs.clone()), vl),
            Column::new(
                ColumnData::Double(longs.iter().map(|&l| l as f64 / 3.0).collect()),
                vd,
            ),
            Column::new(
                ColumnData::Str(StrCodes::from_strs(picks.iter().map(|&k| pool[k].as_str()))),
                vs,
            ),
            Column::new(ColumnData::Str(fresh_codes(&pool, &picks)), vf),
            Column::new(
                ColumnData::Bool(vec![true; rows]),
                Some(Validity::from_words(vec![], rows).unwrap_or_else(|| {
                    // rows == 0: an empty bitmap.
                    Validity::new()
                })),
            ),
        ];
        ColumnBatch::new(oracle_schema(), columns, rows)
    }

    /// Codes of `pool[picks[j]]` into a dictionary of `pool` reversed, after
    /// two entries no slot names.
    fn fresh_codes(pool: &[String], picks: &[usize]) -> StrCodes {
        let mut dict = Dictionary::new();
        dict.intern("unused");
        dict.intern(if pool.len() == 1 { "" } else { "unused too" });
        let codes: Vec<u32> = pool.iter().rev().map(|s| dict.intern(s)).collect();
        let at = |k: usize| codes[pool.len() - 1 - k];
        StrCodes::new(Arc::new(dict), picks.iter().map(|&k| at(k)).collect())
    }

    /// A selection of `len` rows out of `rows`: repeats and any order, or
    /// strictly increasing (what a shuffle partition seals).
    fn selection(rng: &mut proptest::TestRng, rows: usize, len: usize) -> Vec<u32> {
        if rows == 0 {
            return Vec::new();
        }
        let mut idx: Vec<u32> = (0..len).map(|_| rng.below(rows as u64) as u32).collect();
        if rng.below(2) == 0 {
            idx.sort_unstable();
            idx.dedup();
        }
        idx
    }

    fn assert_oracle_bytes(batch: &ColumnBatch, idx: &[u32]) {
        let whole = encode_extent(batch).unwrap();
        assert_eq!(whole, oracle_encode(batch).unwrap(), "whole batch");
        let picked = encode_extent(RowSelection::new(batch, idx)).unwrap();
        assert_eq!(
            picked,
            oracle_encode(&batch.gather(idx)).unwrap(),
            "selection {idx:?}"
        );
        let back = decode_extent(&picked).unwrap();
        assert_eq!(encode_extent(&back).unwrap(), picked, "re-encode");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The selection encoder writes the bytes the parent's encoder
        /// wrote for the gathered batch, over random batches (equal texts
        /// in shared and in distinct `Arc`s, `""` beside nulls, an
        /// all-null column over foreign storage) and random selections.
        #[test]
        fn selection_bytes_equal_the_oracle_on_the_gathered_batch(
            case in proptest::composed(|rng| {
                let rows = match rng.below(4) {
                    0 => 7 + rng.below(2) as usize,
                    _ => rng.below(48) as usize,
                };
                let distinct = 1 + rng.below(12) as usize;
                let batch = oracle_batch(rng, rows, distinct);
                let len = match rng.below(4) {
                    0 => 7 + rng.below(2) as usize,
                    _ => rng.below(2 * rows as u64 + 1) as usize,
                };
                let idx = selection(rng, rows, len);
                (batch, idx)
            })
        ) {
            let (batch, idx) = case;
            assert_oracle_bytes(&batch, &idx);
        }
    }

    /// The dictionary threshold (`rows ≥ 8`, `distinct·4 ≤ rows·3`) on both
    /// sides, as the batch's length and as the selection's, with shared
    /// and with distinct `Arc`s.
    #[test]
    fn dictionary_threshold_matches_the_oracle_at_seven_and_eight_rows() {
        let mut rng = proptest::TestRng::deterministic("threshold", 0);
        for rows in [7usize, 8] {
            for distinct in 1..=8 {
                for _ in 0..8 {
                    let batch = oracle_batch(&mut rng, rows, distinct);
                    let all: Vec<u32> = (0..rows as u32).collect();
                    assert_oracle_bytes(&batch, &all);
                    let wide = oracle_batch(&mut rng, 24, distinct);
                    let idx = selection(&mut rng, 24, rows);
                    assert_oracle_bytes(&wide, &idx);
                }
            }
        }
        // Exactly on the line: 8 rows, 6 distinct → dictionary; 7 → raw.
        let s = Schema::new(vec![Field::new("S", ColumnType::Str)]);
        for (distinct, want) in [(6, Encoding::DictStr), (7, Encoding::RawStr)] {
            let rows: Vec<Row> = (0..8).map(|i| row![format!("k{}", i % distinct)]).collect();
            let batch = ColumnBatch::from_rows(&s, &rows).unwrap();
            let bytes = encode_extent(&batch).unwrap();
            assert_eq!(parse_footer(&bytes).unwrap().cols[0].enc, want);
            assert_eq!(bytes, oracle_encode(&batch).unwrap());
        }
    }

    /// Storage that contradicts the declared type is the oracle's error on
    /// a selection with a real value there, and placeholders where every
    /// picked slot is null.
    #[test]
    fn mismatched_storage_is_the_oracle_s_answer_on_every_selection() {
        let s = Schema::new(vec![Field::new("L", ColumnType::Long)]);
        let valid = [false, true, false, false];
        let col = Column::new(
            ColumnData::Str(StrCodes::from_strs(["x"; 4])),
            bitmap(&valid, false),
        );
        let batch = ColumnBatch::new(s, vec![col], 4);
        for idx in [vec![], vec![0], vec![0, 2, 3], vec![1], vec![3, 1, 0]] {
            assert_eq!(
                encode_extent(RowSelection::new(&batch, &idx)),
                oracle_encode(&batch.gather(&idx)),
                "selection {idx:?}"
            );
        }
        assert_eq!(encode_extent(&batch), oracle_encode(&batch));
    }

    // ---- The word-at-a-time varint against the bytewise oracle.

    /// Read varints until the first error or the end, with both readers.
    fn read_all(buf: &[u8], read: fn(&mut Reader<'_>) -> Result<u64>) -> Vec<(Result<u64>, usize)> {
        let mut r = Reader::new(buf);
        let mut out = Vec::new();
        while r.remaining() > 0 {
            let got = read(&mut r);
            let stop = got.is_err();
            out.push((got, r.pos));
            if stop {
                break;
            }
        }
        out
    }

    /// `Reader::varint` reads what the oracle reads: the same values, the
    /// same error, the same end.
    fn assert_varints_agree(buf: &[u8]) {
        let want = read_all(buf, oracle_varint);
        assert_eq!(read_all(buf, |r| r.varint()), want, "bytes {buf:02x?}");
    }

    #[test]
    fn varint_reads_accept_and_reject_what_the_bytewise_reader_did() {
        let mut varints: Vec<Vec<u8>> = Vec::new();
        for len in 1..=10u32 {
            // The smallest and the largest value of every length.
            for v in [
                1u64 << (7 * (len - 1)),
                u64::MAX >> (64 - (7 * len).min(64)),
            ] {
                let mut b = Vec::new();
                put_varint(&mut b, v);
                assert_eq!(b.len(), len as usize);
                varints.push(b);
            }
        }
        let cont = |n: usize, last: u8| {
            let mut b = vec![0x80u8; n];
            b.push(last);
            b
        };
        // An overflowing 10th byte, an 11th byte, non-minimal encodings.
        varints.extend([
            cont(9, 0x02),
            cont(9, 0x7f),
            {
                let mut b = vec![0xffu8; 9];
                b.push(0x02);
                b
            },
            cont(10, 0x00),
            cont(1, 0x00),
            cont(7, 0x00),
            cont(8, 0x00),
            cont(9, 0x00),
            cont(9, 0x01),
            vec![0xff, 0x80, 0x00],
            vec![0x81, 0x80, 0x80, 0x00],
        ]);
        for last in &varints {
            for lead in [0usize, 1, 3, 7, 8, 9, 12] {
                let mut buf: Vec<u8> = (0..lead).map(|k| (k as u8) & 0x7f).collect();
                let start = buf.len();
                buf.extend_from_slice(last);
                for tail in [0usize, 1, 7, 9] {
                    let mut full = buf.clone();
                    full.extend(std::iter::repeat_n(0x05u8, tail));
                    // A section cut at every byte of its last varint.
                    for cut in start..=start + last.len() {
                        assert_varints_agree(&full[..cut]);
                    }
                    assert_varints_agree(&full);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Random bytes, two in five with a continuation bit, read alike.
        #[test]
        fn random_varint_streams_read_alike(
            bytes in proptest::collection::vec(
                proptest::composed(|rng| match rng.below(5) {
                    0..=2 => rng.below(0x80) as u8,
                    _ => 0x80 | rng.below(0x80) as u8,
                }),
                0..40,
            )
        ) {
            assert_varints_agree(&bytes);
        }
    }

    // ---- Forged row counts: rejected from the footer, before allocation.

    /// `image` with its footer's row count replaced by `rows` and the
    /// footer frame recomputed, as a hostile writer can.
    fn forge_rows(image: &[u8], rows: u64) -> Vec<u8> {
        let n = image.len();
        let footer_len = u32::from_le_bytes(image[n - 12..n - 8].try_into().unwrap()) as usize;
        let start = n - TAIL - footer_len;
        let mut out = image.to_vec();
        out[start..start + 8].copy_from_slice(&rows.to_le_bytes());
        let hash = fx_hash(&out[start..n - TAIL]);
        out[n - TAIL..n - TAIL + 8].copy_from_slice(&hash.to_le_bytes());
        out
    }

    /// A forged count too large for the column's section is a named
    /// `Corrupt` error from decode, verify and info alike, before anything
    /// is allocated; a smaller one the section cannot hold fails to decode.
    fn assert_forged_rows_rejected(ty: ColumnType, cells: Vec<Value>, want: Encoding) {
        let s = Schema::new(vec![Field::new("C", ty)]);
        let rows: Vec<Row> = cells.into_iter().map(|v| Row::new(vec![v])).collect();
        let image = encode_extent(&ColumnBatch::from_rows(&s, &rows).unwrap()).unwrap();
        assert_eq!(parse_footer(&image).unwrap().cols[0].enc, want);
        let honest = rows.len() as u64;
        for forged in [1 << 40, 1 << 61, 1 << 63, u64::MAX] {
            let bad = forge_rows(&image, forged);
            for got in [
                decode_extent(&bad).map(|_| ()),
                verify_extent(&bad),
                extent_info(&bad).map(|_| ()),
            ] {
                match got {
                    Err(RelationError::Corrupt(msg)) => {
                        assert!(msg.contains("row count"), "{forged}: {msg}")
                    }
                    other => panic!("{forged} rows: {other:?}"),
                }
            }
        }
        let got = decode_extent(&forge_rows(&image, honest + 64));
        assert!(matches!(got, Err(RelationError::Corrupt(_))), "{got:?}");
        assert_eq!(decode_extent(&image).unwrap().to_rows(), rows);
    }

    #[test]
    fn forged_row_count_is_rejected_for_bools() {
        let cells = vec![Value::Bool(true), Value::Null];
        assert_forged_rows_rejected(ColumnType::Bool, cells, Encoding::BitpackBool);
    }

    #[test]
    fn forged_row_count_is_rejected_for_ints() {
        assert_forged_rows_rejected(ColumnType::Int, vec![Value::Int(-3)], Encoding::VarintInt);
    }

    #[test]
    fn forged_row_count_is_rejected_for_longs() {
        let cells = vec![Value::Long(7)];
        assert_forged_rows_rejected(ColumnType::Long, cells, Encoding::VarintLong);
    }

    #[test]
    fn forged_row_count_is_rejected_for_doubles() {
        assert_forged_rows_rejected(ColumnType::Double, vec![], Encoding::FixedDouble);
    }

    #[test]
    fn forged_row_count_is_rejected_for_raw_strings() {
        let cells = vec![Value::str("a"), Value::Null];
        assert_forged_rows_rejected(ColumnType::Str, cells, Encoding::RawStr);
    }

    #[test]
    fn forged_row_count_is_rejected_for_dictionary_strings() {
        let cells = (0..9).map(|i| Value::str(["a", "b"][i % 2])).collect();
        assert_forged_rows_rejected(ColumnType::Str, cells, Encoding::DictStr);
    }
}
