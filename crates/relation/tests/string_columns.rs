//! What a dictionary-coded string column costs and what it refuses, read
//! off a counting allocator:
//!
//! - decoding an extent allocates once per distinct string, not once per
//!   cell, and gathering, compacting and dropping a string column allocate
//!   nothing per cell;
//! - a string section whose dictionary count, entry length or code is
//!   forged — and whose checksum is re-sealed, so the parser itself is
//!   reached — is a named `Corrupt` error, never a panic, and no single
//!   allocation on the way exceeds a bound set by the image's length.
//!
//! The counters are per thread, so tests running side by side do not see
//! each other's allocations.

use relation::extent::{decode_extent, encode_extent, verify_extent};
use relation::{ColumnBatch, ColumnType, Field, RelationError, Row, Schema, Value};
use rustc_hash::FxHasher;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hash::Hasher;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREES.try_with(|c| c.set(c.get() + 1));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` allocated on this thread: allocations (reallocations
/// included), frees, and the largest single request in bytes.
struct Counted {
    allocs: u64,
    frees: u64,
    largest: usize,
}

fn counted<R>(f: impl FnOnce() -> R) -> (R, Counted) {
    let (a, d) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    LARGEST.with(|c| c.set(0));
    let out = f();
    let counts = Counted {
        allocs: ALLOCS.with(Cell::get) - a,
        frees: FREES.with(Cell::get) - d,
        largest: LARGEST.with(Cell::get),
    };
    (out, counts)
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("T", ColumnType::Long),
        Field::new("U", ColumnType::Str),
        Field::new("K", ColumnType::Str),
    ])
}

/// `rows` rows whose `U` takes `users` strings and `K` eleven, every cell
/// its own `Arc`.
fn batch(rows: usize, users: usize) -> ColumnBatch {
    let rows: Vec<Row> = (0..rows)
        .map(|i| {
            Row::new(vec![
                Value::Long(i as i64),
                Value::str(format!("user-{:05}", (i * 7919) % users)),
                Value::str(format!("kw-{}", i % 11)),
            ])
        })
        .collect();
    ColumnBatch::from_rows(&schema(), &rows).unwrap()
}

#[test]
fn decoding_allocates_per_distinct_string_not_per_cell() {
    let distinct = 40 + 11;
    let decode_counts = |rows: usize| {
        let image = encode_extent(&batch(rows, 40)).unwrap();
        let (back, counts) = counted(|| decode_extent(&image).unwrap());
        assert_eq!(back.len(), rows);
        counts.allocs
    };
    let (small, large) = (decode_counts(4_000), decode_counts(16_000));
    assert_eq!(small, large, "four times the cells, the same allocations");
    assert!(
        small <= distinct + 32,
        "{small} allocations for {distinct} distinct strings"
    );
}

#[test]
fn a_raw_string_section_is_interned_as_it_is_read() {
    // More than three distinct strings in four: written raw, one string
    // per cell; read back, one allocation per distinct string.
    let rows: Vec<Row> = (0..2_000)
        .map(|i| Row::new(vec![Value::str(format!("id-{}", i % 1_900))]))
        .collect();
    let schema = Schema::new(vec![Field::new("S", ColumnType::Str)]);
    let image = encode_extent(&ColumnBatch::from_rows(&schema, &rows).unwrap()).unwrap();
    let (back, counts) = counted(|| decode_extent(&image).unwrap());
    assert_eq!(back.to_rows(), rows);
    assert!(counts.allocs <= 1_900 + 64, "{} allocations", counts.allocs);
}

#[test]
fn gathering_compacting_and_dropping_allocate_nothing_per_cell() {
    // (gather allocations, compact allocations, frees dropping the gather)
    let costs = |rows: usize| {
        let source = batch(rows, 300);
        let idx: Vec<u32> = (0..rows as u32).rev().step_by(2).collect();
        let (gathered, gather) = counted(|| source.gather(&idx));
        assert_eq!(gathered.len(), idx.len());
        let mut compacted = source.clone();
        let keep: Vec<u32> = (0..rows as u32).filter(|i| i % 3 == 0).collect();
        let ((), compact) = counted(|| compacted.compact(&keep));
        assert_eq!(compacted.len(), keep.len());
        let ((), dropped) = counted(|| drop(gathered));
        (gather.allocs, compact.allocs, dropped.frees)
    };
    let (small, large) = (costs(1_000), costs(20_000));
    assert_eq!(small, large, "twenty times the cells, the same allocations");
    // Per batch: the schema's copy, the column vector and one vector per
    // column; compacting in place allocates nothing.
    let (gather, compact, frees) = small;
    assert!(gather <= 16 && frees <= 16, "{small:?}");
    assert_eq!(compact, 0);
}

// ---- Hostile dictionary bytes.

fn fx_hash(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A sealed one-column image (`S: Str`, no nulls) of `rows` rows whose
/// section is `section`, framed as `TIMRXT01` frames it: the section's
/// checksum and the footer's are computed afresh.
fn sealed(section: &[u8], rows: u64, dictionary: bool) -> Vec<u8> {
    let mut out = section.to_vec();
    let footer_start = out.len();
    out.extend_from_slice(&rows.to_le_bytes());
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&1u16.to_le_bytes());
    out.extend_from_slice(b"S");
    out.push(4); // type: Str
    out.push(if dictionary { 5 } else { 4 }); // encoding: DictStr / RawStr
    out.push(0); // no validity words
    out.extend_from_slice(&0u64.to_le_bytes());
    out.extend_from_slice(&(section.len() as u64).to_le_bytes());
    out.extend_from_slice(&fx_hash(section).to_le_bytes());
    let footer_hash = fx_hash(&out[footer_start..]);
    let footer_len = (out.len() - footer_start) as u32;
    out.extend_from_slice(&footer_hash.to_le_bytes());
    out.extend_from_slice(&footer_len.to_le_bytes());
    out.extend_from_slice(b"TIMRXT01");
    out
}

/// A dictionary section's parts: the count it declares, each entry as
/// (declared length, bytes), and each row's code.
#[derive(Clone, Debug)]
struct DictSection {
    count: u64,
    entries: Vec<(u64, Vec<u8>)>,
    codes: Vec<u64>,
}

impl DictSection {
    fn honest(entries: &[&str], codes: &[u64]) -> DictSection {
        DictSection {
            count: entries.len() as u64,
            entries: (entries.iter())
                .map(|e| (e.len() as u64, e.as_bytes().to_vec()))
                .collect(),
            codes: codes.to_vec(),
        }
    }

    fn image(&self) -> Vec<u8> {
        let mut s = vec![1u8];
        put_varint(&mut s, self.count);
        for (len, bytes) in &self.entries {
            put_varint(&mut s, *len);
            s.extend_from_slice(bytes);
        }
        for &c in &self.codes {
            put_varint(&mut s, c);
        }
        sealed(&s, self.codes.len() as u64, true)
    }
}

/// The image decodes to a named `Corrupt` error, not through a checksum,
/// and allocates nothing larger than a bound set by its length.
fn assert_refused(image: &[u8], what: &str) {
    verify_extent(image).unwrap_or_else(|e| panic!("{what}: the seal itself failed: {e}"));
    let (got, counts) = counted(|| decode_extent(image));
    match got {
        Err(RelationError::Corrupt(msg)) => assert!(!msg.is_empty(), "{what}"),
        other => panic!("{what}: {other:?}"),
    }
    let bound = 16 * image.len() + 1024;
    assert!(
        counts.largest <= bound,
        "{what}: allocated {} bytes at once from a {}-byte image",
        counts.largest,
        image.len()
    );
}

/// Every forgery of one honest section that no honest writer produces.
fn forgeries(honest: &DictSection) -> Vec<(String, DictSection)> {
    let n = honest.entries.len() as u64;
    let mut out = Vec::new();
    let bytes = honest.image().len() as u64;
    for count in [n + 1, bytes + 1, 1 << 40, 1 << 62, u64::MAX] {
        let mut s = honest.clone();
        s.count = count;
        out.push((format!("dictionary count {count}"), s));
    }
    for e in 0..honest.entries.len() {
        for len in [bytes + 1, 1 << 40, u64::MAX >> 1] {
            let mut s = honest.clone();
            s.entries[e].0 = len;
            out.push((format!("entry {e} length {len}"), s));
        }
        let mut s = honest.clone();
        s.entries[e].1 = vec![0xff, 0xfe];
        s.entries[e].0 = 2;
        out.push((format!("entry {e} not UTF-8"), s));
        if e > 0 {
            let mut s = honest.clone();
            s.entries[e] = s.entries[0].clone();
            out.push((format!("entry {e} repeats entry 0"), s));
        }
    }
    for r in [0, honest.codes.len() / 2, honest.codes.len() - 1] {
        for code in [n, n + 1, 1 << 31, 1 << 40, u64::MAX] {
            let mut s = honest.clone();
            s.codes[r] = code;
            out.push((format!("row {r} code {code}"), s));
        }
    }
    out
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(64))]

    /// Random honest dictionary sections decode; each of their forgeries
    /// is refused by name.
    #[test]
    fn forged_dictionary_sections_are_named_corrupt_errors(
        case in proptest::composed(|rng| {
            let distinct = 1 + rng.below(6) as usize;
            let rows = 8 + rng.below(40) as usize;
            let entries: Vec<String> = (0..distinct)
                .map(|k| "x".repeat(rng.below(20) as usize) + &k.to_string())
                .collect();
            let codes: Vec<u64> = (0..rows).map(|_| rng.below(distinct as u64)).collect();
            (entries, codes)
        })
    ) {
        let (entries, codes) = case;
        let entries: Vec<&str> = entries.iter().map(String::as_str).collect();
        let honest = DictSection::honest(&entries, &codes);
        let back = decode_extent(&honest.image()).unwrap();
        let want: Vec<Row> = (codes.iter())
            .map(|&c| Row::new(vec![Value::str(entries[c as usize])]))
            .collect();
        proptest::prop_assert_eq!(back.to_rows(), want);
        for (what, forged) in forgeries(&honest) {
            assert_refused(&forged.image(), &what);
        }
    }
}

#[test]
fn forged_raw_string_lengths_are_named_corrupt_errors() {
    let mut section = vec![0u8];
    for s in ["ab", "c", ""] {
        put_varint(&mut section, s.len() as u64);
        section.extend_from_slice(s.as_bytes());
    }
    let honest = sealed(&section, 3, false);
    assert_eq!(decode_extent(&honest).unwrap().len(), 3);
    for len in [4u64, 1 << 40, u64::MAX] {
        let mut forged = vec![0u8];
        put_varint(&mut forged, len);
        forged.extend_from_slice(&section[2..]);
        assert_refused(&sealed(&forged, 3, false), &format!("raw length {len}"));
    }
}
