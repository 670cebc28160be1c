//! Column-major row storage: typed dense vectors plus a null bitmap.
//!
//! A [`ColumnBatch`] holds the same information as a `Vec<Row>` of one
//! schema, transposed: one [`Column`] per field, each a dense typed vector
//! (`Vec<i64>`, `Vec<f64>`, …, and for strings `u32` codes into a shared
//! dictionary, [`StrCodes`]) with an optional [`Validity`] bitmap marking
//! which slots are real values and which are `Null`. Null slots hold an
//! unobservable placeholder (zero / `false` / some dictionary entry) so
//! kernels can sweep whole vectors without branching on nullness; readers
//! must consult the validity bitmap first.
//!
//! Conversion is lossless **only for rows whose cells match the declared
//! column types** ([`ColumnType::admits`]). Row storage tolerates ill-typed
//! cells (`Row::new` never type-checks), so [`from_rows`]
//! returns an error for such rows. Inside the DSMS callers fall back to
//! row-major operators — there the batch layer is a fast path, never a
//! semantic change; at a map-reduce stage boundary, which stores only
//! extent images, the error is final.
//!
//! [`from_rows`]: ColumnBatch::from_rows

use crate::dict::{Interner, StrCodes};
use crate::error::{RelationError, Result};
use crate::row::Row;
use crate::schema::{ColumnType, Field, Schema};
use crate::value::Value;
use rustc_hash::FxHasher;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Null bitmap: bit `i` set ⇔ slot `i` holds a real (non-null) value.
#[derive(Debug, Clone)]
pub struct Validity {
    words: Vec<u64>,
    len: usize,
}

impl Validity {
    /// Empty bitmap; grow it with [`Validity::push`].
    pub fn new() -> Validity {
        Validity {
            words: Vec::new(),
            len: 0,
        }
    }

    /// Bitmap from per-slot null flags (`true` = null). Returns `None` when
    /// every slot is valid — the representation for fully-dense columns.
    pub fn from_null_flags(nulls: &[bool]) -> Option<Validity> {
        if !nulls.contains(&true) {
            return None;
        }
        let mut v = Validity::new();
        for &null in nulls {
            v.push(!null);
        }
        Some(v)
    }

    /// Bitmap from raw 64-bit words (bit `i` set ⇔ slot `i` valid), as
    /// stored in a binary extent. Trailing bits beyond `len` are masked off
    /// and the word vector is resized to exactly cover `len` slots, so the
    /// result is canonical. Returns `None` when every slot is valid.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Option<Validity> {
        words.resize(len.div_ceil(64), 0);
        if !len.is_multiple_of(64) {
            if let Some(w) = words.last_mut() {
                *w &= (1u64 << (len % 64)) - 1;
            }
        }
        let valid: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        (valid < len).then_some(Validity { words, len })
    }

    /// The raw bitmap words (bit `i` of word `i / 64` ⇔ slot `i` valid).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether slot `i` holds a real value.
    pub fn is_valid(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Append a slot.
    pub fn push(&mut self, valid: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if valid {
            self.words[self.len / 64] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Keep only the slots where `keep` is true (bulk word rebuild, no
    /// per-slot reallocation).
    pub fn retain(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len);
        let kept = keep.iter().filter(|&&k| k).count();
        let mut words = vec![0u64; kept.div_ceil(64)];
        let mut j = 0;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                if self.is_valid(i) {
                    words[j / 64] |= 1 << (j % 64);
                }
                j += 1;
            }
        }
        self.words = words;
        self.len = kept;
    }

    /// Append every slot of `other`.
    pub fn extend(&mut self, other: &Validity) {
        for i in 0..other.len() {
            self.push(other.is_valid(i));
        }
    }

    /// Gather the slots at `idx` into a fresh bitmap. Returns `None` when
    /// every gathered slot is valid — the canonical dense representation.
    pub fn gather(&self, idx: &[u32]) -> Option<Validity> {
        let mut words = vec![0u64; idx.len().div_ceil(64)];
        let mut any_null = false;
        for (j, &i) in idx.iter().enumerate() {
            if self.is_valid(i as usize) {
                words[j / 64] |= 1 << (j % 64);
            } else {
                any_null = true;
            }
        }
        any_null.then_some(Validity {
            words,
            len: idx.len(),
        })
    }

    /// Keep only the slots at `idx` (strictly increasing), in place.
    fn compact(&mut self, idx: &[u32]) {
        let mut words = vec![0u64; idx.len().div_ceil(64)];
        for (j, &i) in idx.iter().enumerate() {
            if self.is_valid(i as usize) {
                words[j / 64] |= 1 << (j % 64);
            }
        }
        self.words = words;
        self.len = idx.len();
    }
}

impl Default for Validity {
    fn default() -> Self {
        Validity::new()
    }
}

/// The typed dense storage of one column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Booleans.
    Bool(Vec<bool>),
    /// 32-bit integers.
    Int(Vec<i32>),
    /// 64-bit integers.
    Long(Vec<i64>),
    /// 64-bit floats.
    Double(Vec<f64>),
    /// Strings: codes into a shared dictionary ([`crate::dict`]).
    Str(StrCodes),
}

impl ColumnData {
    /// Empty storage of the given type with room for `capacity` slots.
    pub fn with_capacity(ty: ColumnType, capacity: usize) -> ColumnData {
        match ty {
            ColumnType::Bool => ColumnData::Bool(Vec::with_capacity(capacity)),
            ColumnType::Int => ColumnData::Int(Vec::with_capacity(capacity)),
            ColumnType::Long => ColumnData::Long(Vec::with_capacity(capacity)),
            ColumnType::Double => ColumnData::Double(Vec::with_capacity(capacity)),
            ColumnType::Str => ColumnData::Str(StrCodes::empty()),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Bool(d) => d.len(),
            ColumnData::Int(d) => d.len(),
            ColumnData::Long(d) => d.len(),
            ColumnData::Double(d) => d.len(),
            ColumnData::Str(d) => d.len(),
        }
    }

    /// True when the storage has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn retain(&mut self, keep: &[bool]) {
        // Two-pointer in-place compaction: each survivor moves at most once.
        macro_rules! compact_vec {
            ($d:expr) => {{
                let mut w = 0;
                for (i, &k) in keep.iter().enumerate() {
                    if k {
                        $d[w] = $d[i];
                        w += 1;
                    }
                }
                $d.truncate(w);
            }};
        }
        match self {
            ColumnData::Bool(d) => compact_vec!(d),
            ColumnData::Int(d) => compact_vec!(d),
            ColumnData::Long(d) => compact_vec!(d),
            ColumnData::Double(d) => compact_vec!(d),
            ColumnData::Str(d) => d.retain(keep),
        }
    }

    /// Gather the slots at `idx` into a new storage of the same variant
    /// (indices may repeat and appear in any order). A string column's
    /// gather copies codes and shares the dictionary.
    pub fn gather(&self, idx: &[u32]) -> ColumnData {
        macro_rules! gather_vec {
            ($d:expr, $variant:ident) => {
                ColumnData::$variant(idx.iter().map(|&i| $d[i as usize]).collect())
            };
        }
        match self {
            ColumnData::Bool(d) => gather_vec!(d, Bool),
            ColumnData::Int(d) => gather_vec!(d, Int),
            ColumnData::Long(d) => gather_vec!(d, Long),
            ColumnData::Double(d) => gather_vec!(d, Double),
            ColumnData::Str(d) => ColumnData::Str(d.gather(idx)),
        }
    }

    /// Keep only the slots at `idx` (strictly increasing), in place: each
    /// survivor moves into position once, so only `idx.len()` slots are
    /// touched — no full-width mask scan per column.
    fn compact(&mut self, idx: &[u32]) {
        macro_rules! compact_copy {
            ($d:expr) => {{
                for (w, &i) in idx.iter().enumerate() {
                    $d[w] = $d[i as usize];
                }
                $d.truncate(idx.len());
            }};
        }
        match self {
            ColumnData::Bool(d) => compact_copy!(d),
            ColumnData::Int(d) => compact_copy!(d),
            ColumnData::Long(d) => compact_copy!(d),
            ColumnData::Double(d) => compact_copy!(d),
            ColumnData::Str(d) => d.compact(idx),
        }
    }

    /// `n` placeholder slots in the storage variant of `like`.
    fn placeholders(like: &ColumnData, n: usize) -> ColumnData {
        match like {
            ColumnData::Bool(_) => ColumnData::Bool(vec![false; n]),
            ColumnData::Int(_) => ColumnData::Int(vec![0; n]),
            ColumnData::Long(_) => ColumnData::Long(vec![0; n]),
            ColumnData::Double(_) => ColumnData::Double(vec![0.0; n]),
            ColumnData::Str(_) => ColumnData::Str(StrCodes::repeat(&Arc::from(""), n)),
        }
    }

    fn same_variant(&self, other: &ColumnData) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
    }

    fn append(&mut self, other: ColumnData) -> Result<()> {
        match (self, other) {
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a.extend(b),
            (ColumnData::Int(a), ColumnData::Int(b)) => a.extend(b),
            (ColumnData::Long(a), ColumnData::Long(b)) => a.extend(b),
            (ColumnData::Double(a), ColumnData::Double(b)) => a.extend(b),
            (ColumnData::Str(a), ColumnData::Str(b)) => a.append(b),
            _ => {
                return Err(RelationError::SchemaMismatch(
                    "column storage variants differ".to_string(),
                ))
            }
        }
        Ok(())
    }
}

/// One column of a [`ColumnBatch`]: typed dense data plus null bitmap.
///
/// `validity == None` means every slot is valid. Null slots hold an
/// arbitrary placeholder in `data`; nothing may observe it, so the data
/// variant of an all-null column need not match the schema's declared type.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    validity: Option<Validity>,
}

impl Column {
    /// Build from parts. The bitmap, when present, must cover every slot.
    pub fn new(data: ColumnData, validity: Option<Validity>) -> Column {
        if let Some(v) = &validity {
            assert_eq!(v.len(), data.len(), "validity bitmap length mismatch");
        }
        Column { data, validity }
    }

    /// `n` valid slots of `ty`'s zero: `false`, `0`, `0.0` or `""` — a
    /// stand-in for a column that nothing reads.
    pub fn zeroed(ty: ColumnType, n: usize) -> Column {
        let data = match ty {
            ColumnType::Str => ColumnData::Str(StrCodes::repeat(&Arc::from(""), n)),
            ty => ColumnData::placeholders(&ColumnData::with_capacity(ty, 0), n),
        };
        Column::new(data, None)
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column has no slots.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The typed storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null bitmap (`None` ⇔ all slots valid).
    pub fn validity(&self) -> Option<&Validity> {
        self.validity.as_ref()
    }

    /// Whether slot `i` holds a real value.
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v.is_valid(i))
    }

    /// Materialize slot `i` as a [`Value`].
    pub fn value(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Bool(d) => Value::Bool(d[i]),
            ColumnData::Int(d) => Value::Int(d[i]),
            ColumnData::Long(d) => Value::Long(d[i]),
            ColumnData::Double(d) => Value::Double(d[i]),
            ColumnData::Str(d) => Value::Str(Arc::clone(d.get(i))),
        }
    }

    /// Hash slot `i` exactly as `Value::hash` would hash [`Self::value`]:
    /// the variant rank byte, then the payload (`f64` by bit pattern,
    /// strings as `str`). Keys hashed off columns must agree bit-for-bit
    /// with keys hashed off rows ([`crate::hash::key_hash`]); the agreement
    /// is property-tested in this module and in the temporal crate.
    pub fn hash_cell<H: Hasher>(&self, i: usize, state: &mut H) {
        if !self.is_valid(i) {
            0u8.hash(state); // Value::Null: rank only, no payload
            return;
        }
        match &self.data {
            ColumnData::Bool(d) => {
                1u8.hash(state);
                d[i].hash(state);
            }
            ColumnData::Int(d) => {
                2u8.hash(state);
                d[i].hash(state);
            }
            ColumnData::Long(d) => {
                3u8.hash(state);
                d[i].hash(state);
            }
            ColumnData::Double(d) => {
                4u8.hash(state);
                d[i].to_bits().hash(state);
            }
            ColumnData::Str(d) => {
                5u8.hash(state);
                d.get(i).hash(state);
            }
        }
    }

    /// Whether slots `i` and `j` hold equal cells — exactly
    /// `self.value(i) == self.value(j)` (strict [`Value`] equality: nulls
    /// equal each other, doubles compare by IEEE total order), without
    /// materializing either.
    pub fn cells_equal(&self, i: usize, j: usize) -> bool {
        self.cell_eq(i, self, j)
    }

    /// Whether slot `i` equals slot `j` of `other` — exactly
    /// `self.value(i) == other.value(j)`, so cells of different storage
    /// variants are unequal (an `Int` never equals a `Long`), without
    /// materializing either.
    pub fn cell_eq(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self.is_valid(i), other.is_valid(j)) {
            (false, false) => true,
            (true, true) => match (&self.data, &other.data) {
                (ColumnData::Bool(a), ColumnData::Bool(b)) => a[i] == b[j],
                (ColumnData::Int(a), ColumnData::Int(b)) => a[i] == b[j],
                (ColumnData::Long(a), ColumnData::Long(b)) => a[i] == b[j],
                (ColumnData::Double(a), ColumnData::Double(b)) => a[i].total_cmp(&b[j]).is_eq(),
                (ColumnData::Str(a), ColumnData::Str(b)) => a.eq_at(i, b, j),
                _ => false,
            },
            _ => false,
        }
    }

    /// Whether slot `i` equals `v` — exactly `self.value(i) == *v`, without
    /// materializing the cell.
    pub fn cell_eq_value(&self, i: usize, v: &Value) -> bool {
        if !self.is_valid(i) {
            return v.is_null();
        }
        match (&self.data, v) {
            (ColumnData::Bool(d), Value::Bool(x)) => d[i] == *x,
            (ColumnData::Int(d), Value::Int(x)) => d[i] == *x,
            (ColumnData::Long(d), Value::Long(x)) => d[i] == *x,
            (ColumnData::Double(d), Value::Double(x)) => d[i].total_cmp(x).is_eq(),
            (ColumnData::Str(d), Value::Str(x)) => **d.get(i) == **x,
            _ => false,
        }
    }

    /// Order slots `i` and `j` exactly as `self.value(i).cmp(&self.value(j))`
    /// would ([`Value`]'s total order: nulls first, doubles by IEEE total
    /// order), without materializing either.
    pub fn cmp_cells(&self, i: usize, j: usize) -> Ordering {
        match (self.is_valid(i), self.is_valid(j)) {
            (true, true) => match &self.data {
                ColumnData::Bool(d) => d[i].cmp(&d[j]),
                ColumnData::Int(d) => d[i].cmp(&d[j]),
                ColumnData::Long(d) => d[i].cmp(&d[j]),
                ColumnData::Double(d) => d[i].total_cmp(&d[j]),
                ColumnData::Str(d) => {
                    let ranks = d.dict().ranks();
                    ranks[d.codes()[i] as usize].cmp(&ranks[d.codes()[j] as usize])
                }
            },
            // `Value::Null` ranks below every other variant.
            (a, b) => a.cmp(&b),
        }
    }

    /// Sum of [`Value::width`] over every slot — what the rows this column
    /// transposes would report, cell by cell.
    pub fn width(&self) -> u64 {
        // Bits past `len` are never set, so a popcount counts the slots.
        let valid = self.validity.as_ref().map_or(self.len(), |v| {
            v.words().iter().map(|w| w.count_ones() as usize).sum()
        });
        let nulls = (self.len() - valid) as u64; // `Value::Null` is 1 wide
        let fixed = |size: u64| nulls + valid as u64 * size;
        match &self.data {
            ColumnData::Bool(_) => fixed(1),
            ColumnData::Int(_) => fixed(4),
            ColumnData::Long(_) | ColumnData::Double(_) => fixed(8),
            ColumnData::Str(d) => {
                let dict = d.dict();
                let codes = d.codes().iter();
                let text: usize = match &self.validity {
                    None => codes.map(|&c| dict.get(c).len()).sum(),
                    Some(v) => (codes.enumerate())
                        .filter(|&(i, _)| v.is_valid(i))
                        .map(|(_, &c)| dict.get(c).len())
                        .sum(),
                };
                fixed(8) + text as u64
            }
        }
    }

    /// Keep only the slots where `keep` is true.
    pub fn retain(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.len(), "retain mask length mismatch");
        self.data.retain(keep);
        if let Some(v) = &mut self.validity {
            v.retain(keep);
        }
    }

    /// Gather the slots at `idx` into a new column (indices may repeat and
    /// appear in any order; out-of-range indices panic).
    pub fn gather(&self, idx: &[u32]) -> Column {
        Column {
            data: self.data.gather(idx),
            validity: self.validity.as_ref().and_then(|v| v.gather(idx)),
        }
    }

    /// Keep only the slots at `idx` (strictly increasing), in place.
    pub fn compact(&mut self, idx: &[u32]) {
        self.data.compact(idx);
        if let Some(v) = &mut self.validity {
            v.compact(idx);
        }
    }

    /// Decompose into storage and bitmap (copy-free handover to consumers
    /// that want to own the dense vectors, e.g. the bridge decode path).
    pub fn into_parts(self) -> (ColumnData, Option<Validity>) {
        (self.data, self.validity)
    }

    /// Whether no slot holds a real value, so the storage variant is an
    /// unobservable carrier.
    fn is_carrier(&self) -> bool {
        self.validity
            .as_ref()
            .map_or(self.is_empty(), |v| v.words().iter().all(|&w| w == 0))
    }

    /// Whether [`Self::append`] accepts `other`: the storage variants agree,
    /// or one side holds no real value.
    pub fn can_append(&self, other: &Column) -> bool {
        self.data.same_variant(&other.data) || self.is_carrier() || other.is_carrier()
    }

    /// Append every slot of `other`. A side holding only nulls takes the
    /// other side's storage variant; two sides with real values of different
    /// variants are an error (columns decoded from canonical extents always
    /// agree).
    pub fn append(&mut self, mut other: Column) -> Result<()> {
        if !self.data.same_variant(&other.data) {
            if other.is_carrier() {
                other.data = ColumnData::placeholders(&self.data, other.len());
            } else if self.is_carrier() {
                self.data = ColumnData::placeholders(&other.data, self.len());
            }
        }
        let self_len = self.len();
        self.data.append(other.data)?;
        self.validity = match (self.validity.take(), other.validity) {
            (None, None) => None,
            (a, b) => {
                let mut v = Validity::new();
                for i in 0..self_len {
                    v.push(a.as_ref().is_none_or(|x| x.is_valid(i)));
                }
                match b {
                    Some(b) => v.extend(&b),
                    None => {
                        for _ in self_len..self.data.len() {
                            v.push(true);
                        }
                    }
                }
                Some(v)
            }
        };
        Ok(())
    }
}

/// Incremental [`Column`] builder used by [`ColumnBatch::from_rows`]: the
/// edge where rows become columns, and where strings are interned.
pub struct ColumnBuilder {
    name: String,
    ty: ColumnType,
    data: Building,
    /// The null bitmap, started at the first null.
    validity: Option<Validity>,
    len: usize,
}

/// A column under construction: typed storage, or string codes and the
/// dictionary they index.
enum Building {
    Typed(ColumnData),
    Str(Interner, Vec<u32>),
}

impl ColumnBuilder {
    /// Builder for one schema field with room for `capacity` slots.
    pub fn new(field: &Field, capacity: usize) -> ColumnBuilder {
        let data = match field.ty {
            ColumnType::Str => Building::Str(
                Interner::with_capacity(capacity.min(64)),
                Vec::with_capacity(capacity),
            ),
            ty => Building::Typed(ColumnData::with_capacity(ty, capacity)),
        };
        ColumnBuilder {
            name: field.name.clone(),
            ty: field.ty,
            data,
            validity: None,
            len: 0,
        }
    }

    /// Append a cell; errors when the value does not inhabit the declared
    /// column type.
    pub fn push(&mut self, v: &Value) -> Result<()> {
        match (&mut self.data, v) {
            (data, Value::Null) => {
                // The placeholder: zero, `false`, or the empty string.
                match data {
                    Building::Typed(ColumnData::Bool(d)) => d.push(false),
                    Building::Typed(ColumnData::Int(d)) => d.push(0),
                    Building::Typed(ColumnData::Long(d)) => d.push(0),
                    Building::Typed(ColumnData::Double(d)) => d.push(0.0),
                    Building::Typed(ColumnData::Str(_)) => unreachable!("strings build codes"),
                    Building::Str(dict, codes) => codes.push(dict.intern_str("")),
                }
                let len = self.len;
                let validity = self.validity.get_or_insert_with(|| {
                    let mut v = Validity::new();
                    (0..len).for_each(|_| v.push(true));
                    v
                });
                validity.push(false);
                self.len += 1;
                return Ok(());
            }
            (Building::Typed(ColumnData::Bool(d)), Value::Bool(b)) => d.push(*b),
            (Building::Typed(ColumnData::Int(d)), Value::Int(x)) => d.push(*x),
            (Building::Typed(ColumnData::Long(d)), Value::Long(x)) => d.push(*x),
            (Building::Typed(ColumnData::Double(d)), Value::Double(x)) => d.push(*x),
            (Building::Str(dict, codes), Value::Str(s)) => codes.push(dict.intern(s)),
            _ => {
                return Err(RelationError::TypeMismatch {
                    column: self.name.clone(),
                    expected: self.ty.to_string(),
                    actual: v.type_name().to_string(),
                })
            }
        }
        if let Some(v) = &mut self.validity {
            v.push(true);
        }
        self.len += 1;
        Ok(())
    }

    /// Finish into a [`Column`].
    pub fn finish(self) -> Column {
        let data = match self.data {
            Building::Typed(data) => data,
            Building::Str(dict, codes) => {
                ColumnData::Str(StrCodes::from_trusted(dict.finish(), codes))
            }
        };
        Column::new(data, self.validity)
    }
}

/// A fixed-length batch of rows stored column-major.
///
/// The row count is carried explicitly so zero-column schemas still know
/// their length.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl ColumnBatch {
    /// Assemble from parts; every column must have exactly `rows` slots.
    pub fn new(schema: Schema, columns: Vec<Column>, rows: usize) -> ColumnBatch {
        assert_eq!(columns.len(), schema.len(), "column count mismatch");
        for c in &columns {
            assert_eq!(c.len(), rows, "column length mismatch");
        }
        ColumnBatch {
            schema,
            columns,
            rows,
        }
    }

    /// Transpose rows into columns. Errors on any arity mismatch or cell
    /// that does not inhabit its declared type; see the module docs for
    /// what callers make of that.
    pub fn from_rows(schema: &Schema, rows: &[Row]) -> Result<ColumnBatch> {
        Self::from_value_rows(schema.clone(), rows.len(), rows.iter().map(Row::values))
    }

    /// [`Self::from_rows`] over borrowed value slices (lets callers strip
    /// leading framing cells without materializing intermediate rows).
    pub fn from_value_rows<'a, I>(schema: Schema, capacity: usize, rows: I) -> Result<ColumnBatch>
    where
        I: IntoIterator<Item = &'a [Value]>,
    {
        let mut builders: Vec<ColumnBuilder> = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f, capacity))
            .collect();
        let mut count = 0;
        for row in rows {
            if row.len() != schema.len() {
                return Err(RelationError::ArityMismatch {
                    expected: schema.len(),
                    actual: row.len(),
                });
            }
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v)?;
            }
            count += 1;
        }
        Ok(ColumnBatch {
            schema,
            columns: builders.into_iter().map(ColumnBuilder::finish).collect(),
            rows: count,
        })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column at `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Gather row `i`.
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value(i)).collect())
    }

    /// Transpose back into rows (lossless).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.rows).map(|i| self.row(i)).collect()
    }

    /// Keep only the rows where `keep` is true. The survivor index vector
    /// is computed once and every column compacts by it, instead of each
    /// column re-scanning the full mask.
    pub fn retain(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.rows, "retain mask length mismatch");
        self.compact(&compact_indices(keep));
    }

    /// Gather the rows at `idx` into a new batch (indices may repeat and
    /// appear in any order).
    pub fn gather(&self, idx: &[u32]) -> ColumnBatch {
        ColumnBatch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.gather(idx)).collect(),
            rows: idx.len(),
        }
    }

    /// Keep only the rows at `idx` (strictly increasing), in place.
    pub fn compact(&mut self, idx: &[u32]) {
        for c in &mut self.columns {
            c.compact(idx);
        }
        self.rows = idx.len();
    }

    /// Re-code each string column whose dictionary has outgrown its rows
    /// ([`StrCodes::shrink`]).
    pub fn shrink_dictionaries(&mut self) {
        for c in &mut self.columns {
            if let ColumnData::Str(d) = &mut c.data {
                d.shrink();
            }
        }
    }

    /// Decompose into schema, columns, and row count (copy-free handover).
    pub fn into_parts(self) -> (Schema, Vec<Column>, usize) {
        (self.schema, self.columns, self.rows)
    }

    /// Whether every column of `other` (same schema) can be appended to its
    /// counterpart here.
    pub fn can_append(&self, other: &ColumnBatch) -> bool {
        (self.columns.iter().zip(&other.columns)).all(|(a, b)| a.can_append(b))
    }

    /// Append every row of `other`; the schemas must be identical and every
    /// column pair appendable ([`Column::can_append`]). Nothing is changed
    /// when it errors.
    pub fn append(&mut self, other: ColumnBatch) -> Result<()> {
        if self.schema != other.schema {
            return Err(RelationError::SchemaMismatch(format!(
                "cannot append {} onto {}",
                other.schema, self.schema
            )));
        }
        if !self.can_append(&other) {
            return Err(RelationError::SchemaMismatch(
                "column storage variants differ".to_string(),
            ));
        }
        for (a, b) in self.columns.iter_mut().zip(other.columns) {
            a.append(b)?;
        }
        self.rows += other.rows;
        Ok(())
    }

    /// Encode into the framed binary extent form (see [`crate::extent`]).
    pub fn to_extent_bytes(&self) -> Result<Vec<u8>> {
        crate::extent::encode_extent(self)
    }

    /// Decode a framed binary extent produced by [`Self::to_extent_bytes`].
    /// Every integrity frame is verified first; damaged bytes error out.
    pub fn from_extent_bytes(bytes: &[u8]) -> Result<ColumnBatch> {
        crate::extent::decode_extent(bytes)
    }

    /// Sum of [`Row::width`] over the rows this batch transposes, from the
    /// dense vectors (no row is built).
    pub fn width(&self) -> u64 {
        self.columns.iter().map(Column::width).sum()
    }

    /// [`Row::width`] of every row this batch transposes, from the dense
    /// vectors (no row is built).
    pub fn row_widths(&self) -> Vec<u64> {
        let mut widths = vec![0u64; self.rows];
        for c in &self.columns {
            for (i, w) in widths.iter_mut().enumerate() {
                *w += match (c.is_valid(i), &c.data) {
                    (false, _) => 1, // `Value::Null`
                    (true, ColumnData::Bool(_)) => 1,
                    (true, ColumnData::Int(_)) => 4,
                    (true, ColumnData::Long(_) | ColumnData::Double(_)) => 8,
                    (true, ColumnData::Str(d)) => 8 + d.get(i).len() as u64,
                };
            }
        }
        widths
    }

    /// Per-row hash of the key at `indices` for grouping and joining inside
    /// one process: equal keys hash equal, in any dictionary, but it is
    /// not [`Self::key_hashes`] and no placement may depend on it. A string
    /// cell contributes its dictionary's cached hash; any other cell is
    /// hashed as [`Column::hash_cell`] does.
    pub fn group_hashes(&self, indices: &[usize]) -> Vec<u64> {
        (0..self.rows)
            .map(|i| self.group_hash(indices, i))
            .collect()
    }

    /// [`Self::group_hashes`] of row `i`.
    #[inline]
    pub fn group_hash(&self, indices: &[usize], i: usize) -> u64 {
        let mut h = FxHasher::default();
        for &c in indices {
            let column = &self.columns[c];
            match &column.data {
                ColumnData::Str(d) => h.write_u64(if column.is_valid(i) { d.hash(i) } else { 0 }),
                _ => column.hash_cell(i, &mut h),
            }
        }
        h.finish()
    }

    /// Per-row key hash over the cells at `indices` — bit-identical to
    /// [`crate::hash::key_hash`] on the gathered row. A key of one dense
    /// string column reads its dictionary's cached hashes.
    pub fn key_hashes(&self, indices: &[usize]) -> Vec<u64> {
        if let [c] = indices {
            if let (ColumnData::Str(d), None) = (&self.columns[*c].data, &self.columns[*c].validity)
            {
                let dict = d.dict();
                return d.codes().iter().map(|&code| dict.hash(code)).collect();
            }
        }
        (0..self.rows)
            .map(|i| {
                let mut h = FxHasher::default();
                for &c in indices {
                    self.columns[c].hash_cell(i, &mut h);
                }
                h.finish()
            })
            .collect()
    }
}

/// Survivor indices of a boolean keep-mask — the index-vector currency
/// shared by [`ColumnBatch::compact`] and the `gather` primitives.
pub fn compact_indices(keep: &[bool]) -> Vec<u32> {
    let mut idx = Vec::with_capacity(keep.len());
    for (i, &k) in keep.iter().enumerate() {
        if k {
            idx.push(i as u32);
        }
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::key_hash;
    use crate::row;

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
        vec![
            row![true, 1i32, 2i64, 0.5f64, "a"],
            Row::new(vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ]),
            row![false, -7i32, i64::MAX, f64::NAN, ""],
        ]
    }

    #[test]
    fn round_trip_is_lossless() {
        let s = schema();
        let batch = ColumnBatch::from_rows(&s, &rows()).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.to_rows(), rows());
    }

    #[test]
    fn empty_batch_round_trips() {
        let s = schema();
        let batch = ColumnBatch::from_rows(&s, &[]).unwrap();
        assert!(batch.is_empty());
        assert!(batch.to_rows().is_empty());
    }

    #[test]
    fn ill_typed_cells_are_rejected() {
        let s = Schema::new(vec![Field::new("L", ColumnType::Long)]);
        assert!(ColumnBatch::from_rows(&s, &[row!["oops"]]).is_err());
        assert!(ColumnBatch::from_rows(&s, &[row![1i64, 2i64]]).is_err());
    }

    #[test]
    fn retain_compacts_rows_and_validity() {
        let s = schema();
        let mut batch = ColumnBatch::from_rows(&s, &rows()).unwrap();
        batch.retain(&[true, false, true]);
        assert_eq!(batch.len(), 2);
        let want = vec![rows()[0].clone(), rows()[2].clone()];
        assert_eq!(batch.to_rows(), want);
    }

    #[test]
    fn hash_cell_matches_value_hash() {
        let s = schema();
        let batch = ColumnBatch::from_rows(&s, &rows()).unwrap();
        let indices: Vec<usize> = (0..s.len()).collect();
        let hashes = batch.key_hashes(&indices);
        for (i, r) in rows().iter().enumerate() {
            assert_eq!(hashes[i], key_hash(r, &indices), "row {i}");
        }
    }

    /// A key of one dense string column is read off the dictionary's
    /// cached hashes, bit-identical to hashing the cell.
    #[test]
    fn one_string_key_reads_the_cached_hash() {
        let s = Schema::new(vec![Field::new("S", ColumnType::Str)]);
        let rows: Vec<Row> = ["b", "", "a", "b", "abcdefghijk"]
            .iter()
            .map(|&x| row![x])
            .collect();
        let batch = ColumnBatch::from_rows(&s, &rows).unwrap();
        assert!(batch.column(0).validity().is_none());
        let hashes = batch.key_hashes(&[0]);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(hashes[i], key_hash(r, &[0]), "row {i}");
        }
    }

    #[test]
    fn cells_equal_and_width_match_the_materialized_values() {
        let s = schema();
        let mut all = rows();
        all.push(row![true, 1i32, 2i64, -0.0f64, "a"]);
        all.push(row![true, 1i32, 2i64, 0.0f64, "b"]);
        all.push(row![false, -7i32, i64::MAX, f64::NAN, ""]);
        let batch = ColumnBatch::from_rows(&s, &all).unwrap();
        for (c, col) in batch.columns().iter().enumerate() {
            for i in 0..all.len() {
                for j in 0..all.len() {
                    let (a, b) = (all[i].get(c), all[j].get(c));
                    assert_eq!(col.cells_equal(i, j), a == b, "column {c} slots {i},{j}");
                    assert_eq!(col.cell_eq_value(i, b), a == b, "column {c} slots {i},{j}");
                    assert_eq!(col.cmp_cells(i, j), a.cmp(b), "column {c} slots {i},{j}");
                    // Across columns (other storage variants included) the
                    // comparison is still `Value`'s strict equality.
                    for (c2, other) in batch.columns().iter().enumerate() {
                        assert_eq!(col.cell_eq(i, other, j), a == all[j].get(c2));
                        assert_eq!(col.cell_eq_value(i, all[j].get(c2)), a == all[j].get(c2));
                    }
                }
            }
        }
        let want: usize = all.iter().map(Row::width).sum();
        assert_eq!(batch.width(), want as u64);
        let per_row: Vec<u64> = all.iter().map(|r| r.width() as u64).collect();
        assert_eq!(batch.row_widths(), per_row);
        assert_eq!(ColumnBatch::from_rows(&s, &[]).unwrap().width(), 0);
    }

    #[test]
    fn append_recarries_all_null_columns_and_refuses_mixed_storage() {
        let s = Schema::new(vec![Field::new("L", ColumnType::Long)]);
        let longs = ColumnBatch::from_rows(&s, &[row![1i64], row![2i64]]).unwrap();
        // What a projection of `null` builds: nulls over a Bool carrier.
        let nulls = || {
            let carrier = Column::new(
                ColumnData::Bool(vec![false; 2]),
                Validity::from_null_flags(&[true, true]),
            );
            ColumnBatch::new(s.clone(), vec![carrier], 2)
        };
        let null_rows = vec![Row::new(vec![Value::Null]); 2];
        let mut a = longs.clone();
        a.append(nulls()).unwrap();
        assert_eq!(a.to_rows(), [longs.to_rows(), null_rows.clone()].concat());
        let mut b = nulls();
        b.append(longs.clone()).unwrap();
        assert_eq!(b.to_rows(), [null_rows, longs.to_rows()].concat());
        // Real values of two variants have no dense column: refused whole.
        let ints = ColumnBatch::new(
            s.clone(),
            vec![Column::new(ColumnData::Int(vec![7]), None)],
            1,
        );
        let mut c = longs.clone();
        assert!(!c.can_append(&ints));
        assert!(c.append(ints).is_err());
        assert_eq!(c.to_rows(), longs.to_rows());
    }

    #[test]
    fn gather_matches_row_materialization() {
        let s = schema();
        let batch = ColumnBatch::from_rows(&s, &rows()).unwrap();
        let idx = [2u32, 0, 2, 1];
        let gathered = batch.gather(&idx);
        assert_eq!(gathered.len(), 4);
        let all = rows();
        let want: Vec<Row> = idx.iter().map(|&i| all[i as usize].clone()).collect();
        assert_eq!(gathered.to_rows(), want);
        // Empty gather keeps the schema with zero rows.
        assert!(batch.gather(&[]).is_empty());
    }

    #[test]
    fn compact_agrees_with_retain() {
        let s = schema();
        let keep = [true, false, true];
        let mut by_retain = ColumnBatch::from_rows(&s, &rows()).unwrap();
        by_retain.retain(&keep);
        let mut by_compact = ColumnBatch::from_rows(&s, &rows()).unwrap();
        by_compact.compact(&compact_indices(&keep));
        assert_eq!(by_retain.to_rows(), by_compact.to_rows());
        assert_eq!(compact_indices(&keep), vec![0, 2]);
    }

    #[test]
    fn validity_gather_is_canonical() {
        let nulls = [true, false, false, true];
        let v = Validity::from_null_flags(&nulls).unwrap();
        // Selecting only valid slots canonicalizes to None.
        assert!(v.gather(&[1, 2]).is_none());
        let g = v.gather(&[3, 1, 0]).unwrap();
        assert!(!g.is_valid(0));
        assert!(g.is_valid(1));
        assert!(!g.is_valid(2));
    }

    #[test]
    fn validity_bitmap_crosses_word_boundaries() {
        let nulls: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        let v = Validity::from_null_flags(&nulls).unwrap();
        assert_eq!(v.len(), 200);
        for (i, &null) in nulls.iter().enumerate() {
            assert_eq!(v.is_valid(i), !null, "slot {i}");
        }
    }
}
