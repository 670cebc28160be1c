//! String dictionaries: the one representation of a string column.
//!
//! A string column ([`crate::ColumnData::Str`]) is a [`StrCodes`]: one
//! `u32` code per slot into a [`Dictionary`] that every column gathered,
//! compacted or sliced from it shares behind an `Arc`. A gather copies
//! codes, a drop frees a `Vec<u32>`, and no cell holds a heap object of its
//! own; [`crate::Column::value`] still hands out a [`crate::Value::Str`] by
//! cloning the entry's `Arc`.
//!
//! A dictionary's entries are distinct, so within one dictionary equal
//! codes are equal strings and the converse holds too: key grouping and
//! equality compare codes. Each entry caches its key hash, [`str_hash`] —
//! exactly what [`crate::Column::hash_cell`] feeds a fresh FxHasher for the
//! cell, so a one-column key's partition hash is read, not computed. Key
//! order reads a rank table ([`Dictionary::ranks`]), built on first use.
//!
//! Two dictionaries meet where columns of different origins are appended
//! ([`StrCodes::append`]: a union, the reduce side's concatenation of
//! extents) and where a join probes one side's keys against the other's.
//! There the strings are translated once per distinct string, through the
//! open-addressed table each dictionary keeps over its cached hashes.

use rustc_hash::FxHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// A free slot of a dictionary's table, and an untranslated code.
pub const NO_CODE: u32 = u32::MAX;

/// The key hash of a string cell: FxHash of `Value::Str`'s rank byte, then
/// the string — bit-identical to [`crate::hash::key_hash`] of a one-cell key
/// holding it.
pub fn str_hash(s: &str) -> u64 {
    let mut h = FxHasher::default();
    5u8.hash(&mut h);
    s.hash(&mut h);
    h.finish()
}

/// Distinct strings, each with its cached [`str_hash`], addressed by code.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// Entry `code`: its string and, beside it for the probe, its hash.
    entries: Vec<(Arc<str>, u64)>,
    /// Open addressing over the hashes: a slot holds a code or [`NO_CODE`].
    /// Its length is a power of two at least twice the entry count.
    slots: Vec<u32>,
    /// `rank[code]`: the entry's position in string order.
    ranks: OnceLock<Vec<u32>>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// An empty dictionary with room for `n` entries.
    pub fn with_capacity(n: usize) -> Dictionary {
        Dictionary {
            entries: Vec::with_capacity(n),
            slots: vec![NO_CODE; table_len(n)],
            ranks: OnceLock::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the dictionary has no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry of `code`.
    #[inline]
    pub fn get(&self, code: u32) -> &Arc<str> {
        &self.entries[code as usize].0
    }

    /// The cached [`str_hash`] of `code`'s entry.
    #[inline]
    pub fn hash(&self, code: u32) -> u64 {
        self.entries[code as usize].1
    }

    /// `ranks()[code]` is the position of `code`'s entry in string order,
    /// so comparing ranks compares strings. Built on first use.
    pub fn ranks(&self) -> &[u32] {
        self.ranks.get_or_init(|| {
            let mut by_str: Vec<u32> = (0..self.entries.len() as u32).collect();
            by_str.sort_unstable_by(|&a, &b| self.get(a).cmp(self.get(b)));
            let mut ranks = vec![0; by_str.len()];
            for (r, &code) in by_str.iter().enumerate() {
                ranks[code as usize] = r as u32;
            }
            ranks
        })
    }

    /// The code of `s`, if it is an entry.
    pub fn find(&self, s: &str) -> Option<u32> {
        self.find_hashed(str_hash(s), s)
    }

    /// [`Self::find`] for a string whose [`str_hash`] is `hash`.
    #[inline]
    pub fn find_hashed(&self, hash: u64, s: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = slot_of(hash, mask);
        loop {
            let code = self.slots[at];
            if code == NO_CODE {
                return None;
            }
            let (entry, entry_hash) = &self.entries[code as usize];
            if *entry_hash == hash && **entry == *s {
                return Some(code);
            }
            at = (at + 1) & mask;
        }
    }

    /// The code of `s`, adding it (its `Arc` made by `make`) when it is new.
    #[inline]
    fn intern_with(&mut self, hash: u64, s: &str, make: impl FnOnce() -> Arc<str>) -> u32 {
        if let Some(code) = self.find_hashed(hash, s) {
            return code;
        }
        self.push_new(hash, make())
    }

    /// Add an entry known to be absent; returns its code.
    fn push_new(&mut self, hash: u64, s: Arc<str>) -> u32 {
        let code = u32::try_from(self.entries.len()).expect("fewer than 2^32 distinct strings");
        assert!(code != NO_CODE, "fewer than 2^32 - 1 distinct strings");
        self.entries.push((s, hash));
        self.ranks = OnceLock::new();
        if self.entries.len() * 2 > self.slots.len() {
            self.rehash();
        } else {
            self.place(code);
        }
        code
    }

    fn place(&mut self, code: u32) {
        let mask = self.slots.len() - 1;
        let mut at = slot_of(self.hash(code), mask);
        while self.slots[at] != NO_CODE {
            at = (at + 1) & mask;
        }
        self.slots[at] = code;
    }

    fn rehash(&mut self) {
        self.slots = vec![NO_CODE; table_len(self.entries.len())];
        for code in 0..self.entries.len() as u32 {
            self.place(code);
        }
    }

    /// The code of `s`, allocating its entry when it is new.
    pub fn intern(&mut self, s: &str) -> u32 {
        self.intern_with(str_hash(s), s, || Arc::from(s))
    }

    /// The code of `s`, sharing its `Arc` as the entry when it is new.
    pub fn intern_arc(&mut self, s: &Arc<str>) -> u32 {
        self.intern_with(str_hash(s), s, || Arc::clone(s))
    }

    /// Add `s` as the next code unless it is already an entry: `false`
    /// when it is (a decoded dictionary must not repeat an entry).
    pub(crate) fn push_distinct(&mut self, s: &str) -> bool {
        let hash = str_hash(s);
        if self.find_hashed(hash, s).is_some() {
            return false;
        }
        self.push_new(hash, Arc::from(s));
        true
    }

    /// The code of `other`'s entry `code` here, adding it when it is new:
    /// its cached hash is reused and its `Arc` shared.
    #[inline]
    fn adopt(&mut self, other: &Dictionary, code: u32) -> u32 {
        let s = other.get(code);
        self.intern_with(other.hash(code), s, || Arc::clone(s))
    }
}

/// Table length for `n` entries: a power of two, at least twice `n`.
fn table_len(n: usize) -> usize {
    (n * 2).next_power_of_two().max(8)
}

/// Home slot of `hash`: FxHash mixes into its high bits.
#[inline]
fn slot_of(hash: u64, mask: usize) -> usize {
    (hash.rotate_left(26) as usize) & mask
}

/// Interns strings handed in as `Arc`s into a dictionary it builds,
/// looking each one up by identity first: a small direct-mapped cache from
/// a string's address to the code of the entry that *is* that `Arc`. A hit
/// is checked against the live entry, so it can never yield another
/// string's code; a miss hashes the bytes and probes the table.
#[derive(Debug)]
pub struct Interner {
    dict: Dictionary,
    recent: Vec<u32>,
}

/// Identity-cache slots of an [`Interner`].
const RECENT_BITS: u32 = 8;

impl Interner {
    /// An interner with room for `n` distinct strings.
    pub fn with_capacity(n: usize) -> Interner {
        Interner {
            dict: Dictionary::with_capacity(n),
            recent: vec![NO_CODE; 1 << RECENT_BITS],
        }
    }

    /// The code of `s`.
    #[inline]
    pub fn intern(&mut self, s: &Arc<str>) -> u32 {
        let at = ((s.as_ptr() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - RECENT_BITS))
            as usize;
        let code = self.recent[at];
        if code != NO_CODE && Arc::ptr_eq(self.dict.get(code), s) {
            return code;
        }
        let code = self.dict.intern_arc(s);
        // Only an `Arc` the dictionary holds is remembered, so the address
        // stays live as long as the cache.
        if Arc::ptr_eq(self.dict.get(code), s) {
            self.recent[at] = code;
        }
        code
    }

    /// The code of `s`, given as a borrowed string.
    pub fn intern_str(&mut self, s: &str) -> u32 {
        self.dict.intern(s)
    }

    /// The dictionary built.
    pub fn finish(self) -> Arc<Dictionary> {
        Arc::new(self.dict)
    }
}

/// The storage of a string column: a code per slot into a shared
/// dictionary. Every code is an entry of the dictionary, null slots
/// included (they hold some entry's code; nothing may observe it).
#[derive(Debug, Clone)]
pub struct StrCodes {
    dict: Arc<Dictionary>,
    codes: Vec<u32>,
}

impl StrCodes {
    /// Codes into `dict`; every code must be one of its entries.
    pub fn new(dict: Arc<Dictionary>, codes: Vec<u32>) -> StrCodes {
        assert!(
            codes.iter().all(|&c| (c as usize) < dict.len()),
            "string code past the end of its dictionary"
        );
        StrCodes { dict, codes }
    }

    /// [`Self::new`] for codes already known to be entries.
    pub(crate) fn from_trusted(dict: Arc<Dictionary>, codes: Vec<u32>) -> StrCodes {
        debug_assert!(codes.iter().all(|&c| (c as usize) < dict.len()));
        StrCodes { dict, codes }
    }

    /// No slot, over an empty dictionary.
    pub fn empty() -> StrCodes {
        StrCodes {
            dict: Arc::new(Dictionary::new()),
            codes: Vec::new(),
        }
    }

    /// `n` slots of `s`.
    pub fn repeat(s: &Arc<str>, n: usize) -> StrCodes {
        let mut dict = Dictionary::with_capacity(1);
        dict.intern_arc(s);
        StrCodes {
            dict: Arc::new(dict),
            codes: vec![0; n],
        }
    }

    /// One slot per string, interned.
    pub fn from_strs<'a>(strs: impl IntoIterator<Item = &'a str>) -> StrCodes {
        let mut dict = Dictionary::new();
        let codes = strs.into_iter().map(|s| dict.intern(s)).collect();
        StrCodes {
            dict: Arc::new(dict),
            codes,
        }
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &Arc<Dictionary> {
        &self.dict
    }

    /// The code of every slot.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when there is no slot.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The string at slot `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &Arc<str> {
        self.dict.get(self.codes[i])
    }

    /// The cached [`str_hash`] of slot `i`.
    #[inline]
    pub fn hash(&self, i: usize) -> u64 {
        self.dict.hash(self.codes[i])
    }

    /// Whether both share one dictionary, so codes compare as strings.
    #[inline]
    pub fn same_dict(&self, other: &StrCodes) -> bool {
        Arc::ptr_eq(&self.dict, &other.dict)
    }

    /// Whether slot `i` equals slot `j` of `other`.
    #[inline]
    pub fn eq_at(&self, i: usize, other: &StrCodes, j: usize) -> bool {
        if self.same_dict(other) {
            return self.codes[i] == other.codes[j];
        }
        self.hash(i) == other.hash(j) && **self.get(i) == **other.get(j)
    }

    /// The slots at `idx`, sharing the dictionary.
    pub fn gather(&self, idx: &[u32]) -> StrCodes {
        StrCodes {
            dict: Arc::clone(&self.dict),
            codes: idx.iter().map(|&i| self.codes[i as usize]).collect(),
        }
    }

    /// Keep only the slots at `idx` (strictly increasing), in place.
    pub(crate) fn compact(&mut self, idx: &[u32]) {
        for (w, &i) in idx.iter().enumerate() {
            self.codes[w] = self.codes[i as usize];
        }
        self.codes.truncate(idx.len());
    }

    /// Append every slot of `other`. One dictionary: the codes are copied.
    /// Two: `other`'s strings are translated into this column's dictionary
    /// once per distinct string (copying the dictionary first when it is
    /// shared), and its codes through that translation.
    pub fn append(&mut self, other: StrCodes) {
        if self.same_dict(&other) {
            self.codes.extend(other.codes);
            return;
        }
        if other.codes.is_empty() {
            return;
        }
        if self.codes.is_empty() {
            *self = other;
            return;
        }
        let dict = Arc::make_mut(&mut self.dict);
        self.codes.reserve(other.codes.len());
        // A translation table costs the other dictionary's size; a much
        // larger dictionary than the slots appended is probed per slot.
        if other.dict.len() <= 2 * other.codes.len() + 64 {
            let mut into = vec![NO_CODE; other.dict.len()];
            for &c in &other.codes {
                let t = &mut into[c as usize];
                if *t == NO_CODE {
                    *t = dict.adopt(&other.dict, c);
                }
                self.codes.push(*t);
            }
        } else {
            for &c in &other.codes {
                self.codes.push(dict.adopt(&other.dict, c));
            }
        }
    }

    /// Re-code the slots into a dictionary of only the strings they name,
    /// when the one they share holds more than twice as many entries as
    /// there are slots (plus 64): what a long-lived column that keeps
    /// taking rows in and dropping them calls, so that its dictionary stays
    /// in proportion to its live rows.
    pub fn shrink(&mut self) {
        if self.dict.len() <= 2 * self.codes.len() + 64 {
            return;
        }
        let mut dict = Dictionary::new();
        for c in &mut self.codes {
            *c = dict.adopt(&self.dict, *c);
        }
        self.dict = Arc::new(dict);
    }

    /// Each code of `self`'s dictionary translated into `into`'s: the
    /// code of the same string there, or [`NO_CODE`] where `into` lacks
    /// it. Computed for the codes `self`'s slots hold, once each.
    pub fn translate(&self, into: &Dictionary) -> Vec<u32> {
        let mut out = vec![NO_CODE; self.dict.len()];
        let mut seen = vec![false; self.dict.len()];
        for &c in &self.codes {
            if !std::mem::replace(&mut seen[c as usize], true) {
                let s = self.dict.get(c);
                out[c as usize] = into.find_hashed(self.dict.hash(c), s).unwrap_or(NO_CODE);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::values_hash;
    use crate::value::Value;

    #[test]
    fn cached_hash_is_the_one_cell_key_hash() {
        for s in ["", "a", "user-17", "abcdefghijklmnop", "é"] {
            assert_eq!(str_hash(s), values_hash(&[Value::str(s)]), "{s:?}");
        }
    }

    #[test]
    fn interning_gives_one_code_per_distinct_string() {
        let mut d = Dictionary::new();
        let words: Vec<String> = (0..100).map(|i| format!("w{}", i % 37)).collect();
        let codes: Vec<u32> = words.iter().map(|w| d.intern(w)).collect();
        assert_eq!(d.len(), 37);
        for (w, &c) in words.iter().zip(&codes) {
            assert_eq!(&**d.get(c), w.as_str());
            assert_eq!(d.find(w), Some(c));
            assert_eq!(d.hash(c), str_hash(w));
        }
        assert_eq!(d.find("nope"), None);
    }

    #[test]
    fn ranks_order_the_entries_as_strings() {
        let mut d = Dictionary::new();
        for s in ["b", "", "abc", "ab", "é", "B"] {
            d.intern(s);
        }
        let ranks = d.ranks().to_vec();
        for a in 0..d.len() as u32 {
            for b in 0..d.len() as u32 {
                assert_eq!(
                    ranks[a as usize].cmp(&ranks[b as usize]),
                    d.get(a).cmp(d.get(b))
                );
            }
        }
        d.intern("aa");
        assert_eq!(d.ranks().len(), d.len(), "a new entry rebuilds the ranks");
    }

    #[test]
    fn the_interner_checks_identity_against_live_entries() {
        let mut i = Interner::with_capacity(4);
        let a: Arc<str> = Arc::from("a");
        let a2: Arc<str> = Arc::from("a");
        let b: Arc<str> = Arc::from("b");
        assert_eq!(i.intern(&a), 0);
        assert_eq!(i.intern(&a2), 0);
        assert_eq!(i.intern(&b), 1);
        assert_eq!(i.intern(&a), 0);
        let d = i.finish();
        assert!(Arc::ptr_eq(d.get(0), &a), "the first Arc is the entry");
    }

    #[test]
    fn append_translates_once_per_distinct_string() {
        let mut x = StrCodes::from_strs(["a", "b", "a"]);
        let y = StrCodes::from_strs(["c", "a", "c", "c"]);
        x.append(y.clone());
        let got: Vec<&str> = (0..x.len()).map(|i| &**x.get(i)).collect();
        assert_eq!(got, ["a", "b", "a", "c", "a", "c", "c"]);
        assert_eq!(x.dict().len(), 3);
        let t = y.translate(x.dict());
        assert_eq!(t, [2, 0]);
        let mut few = StrCodes::from_strs((0..200).map(|i| ["a", "b"][i % 2]));
        few.append(StrCodes::from_strs(
            (0..300)
                .map(|i| format!("s{i}"))
                .collect::<Vec<_>>()
                .iter()
                .map(String::as_str),
        ));
        few.compact(&[1, 2, 499]);
        few.shrink();
        assert_eq!(few.dict().len(), 3);
        let got: Vec<&str> = (0..few.len()).map(|i| &**few.get(i)).collect();
        assert_eq!(got, ["b", "a", "s299"]);
        let z = x.gather(&[6, 0]);
        assert!(z.same_dict(&x));
        assert!(z.eq_at(0, &y, 0) && !z.eq_at(1, &y, 0));
    }
}
