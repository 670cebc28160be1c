//! The build side of a binary operator, indexed once.
//!
//! The joins and the set difference index their build side as **key-exact
//! classes** ([`KeyClasses`]): events are bucketed by key hash, and a
//! bucket splits into one class per distinct key, each with a
//! representative event. Distinct keys that collide on the hash are thus
//! told apart once per build event, and a probing event compares its key
//! cells once, against the representatives of its bucket (almost always
//! one), instead of once per candidate it meets. Hashes and comparisons
//! read the key columns in place ([`KeySelector::group_hashes`],
//! [`relation::Column::cell_eq`]). Where a probing string column and the
//! build column it is compared with hold codes into two dictionaries, the
//! probe's codes are translated into the build side's once per distinct
//! string ([`Probe`]), so the comparison is of codes.

use crate::batch::EventBatch;
use crate::key::KeySelector;
use relation::dict::NO_CODE;
use relation::{Column, ColumnData};
use rustc_hash::FxHashMap;

/// The columns an operator builds its output from, gathered once each.
pub(crate) trait Gather {
    /// The columns at `cols` (ascending) of the events at `idx` (any
    /// order, repeats allowed).
    fn gather(&self, cols: &[usize], idx: &[u32]) -> Vec<Column>;
}

impl Gather for [Column] {
    fn gather(&self, cols: &[usize], idx: &[u32]) -> Vec<Column> {
        cols.iter().map(|&c| self[c].gather(idx)).collect()
    }
}

/// Whether event `i` of `a`'s key under `a_sel` equals the key of `b`'s
/// event `j` under `b_sel` — index-wise strict cell equality, as
/// [`KeySelector::matches`] compares two rows.
pub(crate) fn key_eq(
    a: &EventBatch,
    a_sel: &KeySelector,
    i: usize,
    b: &EventBatch,
    b_sel: &KeySelector,
    j: usize,
) -> bool {
    (a_sel.indices().iter().zip(b_sel.indices())).all(|(&x, &y)| {
        let (l, r) = (a.payload().column(x), b.payload().column(y));
        l.cell_eq(i, r, j)
    })
}

/// One input's events grouped into key-exact classes under one selector,
/// each class folded into a value of type `T` (its members, its merged
/// cover, …).
pub(crate) struct KeyClasses<'a, T> {
    side: &'a EventBatch,
    sel: &'a KeySelector,
    /// Key hash → the classes whose keys share it, each as (representative
    /// event, value).
    by_hash: FxHashMap<u64, Vec<(u32, T)>>,
}

impl<'a, T> KeyClasses<'a, T> {
    /// Fold every event of `side`, in input order, into the class of its
    /// key under `sel`: a class starts from `new()` at its first event (its
    /// representative), and `add(value, i)` records event `i`.
    pub(crate) fn build(
        side: &'a EventBatch,
        sel: &'a KeySelector,
        new: impl Fn() -> T,
        mut add: impl FnMut(&mut T, usize),
    ) -> Self {
        let mut by_hash: FxHashMap<u64, Vec<(u32, T)>> = FxHashMap::default();
        for (i, hash) in sel.group_hashes(side.payload()).into_iter().enumerate() {
            let bucket = by_hash.entry(hash).or_default();
            let class = (bucket.iter())
                .position(|(repr, _)| key_eq(side, sel, *repr as usize, side, sel, i));
            let class = class.unwrap_or_else(|| {
                bucket.push((i as u32, new()));
                bucket.len() - 1
            });
            add(&mut bucket[class].1, i);
        }
        KeyClasses { side, sel, by_hash }
    }

    /// Every class's value.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        (self.by_hash.values_mut()).flat_map(|bucket| bucket.iter_mut().map(|(_, v)| v))
    }

    /// How the events of `batch` probe these classes under `sel`.
    pub(crate) fn probe<'p>(&self, batch: &'p EventBatch, sel: &'p KeySelector) -> Probe<'p> {
        let pairs = sel.indices().iter().zip(self.sel.indices());
        let into = pairs
            .map(|(&p, &b)| {
                match (
                    batch.payload().column(p).data(),
                    self.side.payload().column(b).data(),
                ) {
                    // A translation table costs the probe dictionary's size:
                    // a much larger one than the probe compares strings.
                    (ColumnData::Str(p), ColumnData::Str(b))
                        if !p.same_dict(b) && p.dict().len() <= 2 * p.len() + 64 =>
                    {
                        Some(p.translate(b.dict()))
                    }
                    _ => None,
                }
            })
            .collect();
        Probe { batch, sel, into }
    }

    /// The class holding the key of `probe`'s event `i`, whose key hash is
    /// `hash`: the one key comparison per probing event.
    pub(crate) fn find(&self, hash: u64, probe: &Probe, i: usize) -> Option<&T> {
        if probe.misses(i) {
            return None;
        }
        let bucket = self.by_hash.get(&hash)?;
        let mut classes = bucket.iter();
        let class = classes.find(|(repr, _)| probe.key_eq(i, self.side, self.sel, *repr as usize));
        class.map(|(_, value)| value)
    }
}

/// A probing batch, its key selector and, per key column, its string
/// codes translated into the build column's dictionary (`None` where the
/// cells compare as they are: one dictionary, another type, or a probe
/// dictionary too large to translate).
pub(crate) struct Probe<'p> {
    batch: &'p EventBatch,
    sel: &'p KeySelector,
    into: Vec<Option<Vec<u32>>>,
}

impl Probe<'_> {
    /// The code of event `i`'s cell in key column `k`, translated: `None`
    /// when the cell is null or the column is not translated.
    #[inline]
    fn translated(&self, k: usize, i: usize) -> Option<u32> {
        let into = self.into[k].as_ref()?;
        let column = self.batch.payload().column(self.sel.indices()[k]);
        match column.data() {
            ColumnData::Str(d) if column.is_valid(i) => Some(into[d.codes()[i] as usize]),
            _ => None,
        }
    }

    /// Whether event `i` holds a string no build event holds, so it can
    /// match no class.
    #[inline]
    fn misses(&self, i: usize) -> bool {
        (0..self.into.len()).any(|k| self.translated(k, i) == Some(NO_CODE))
    }

    /// Whether event `i`'s key equals the key of `side`'s event `j` under
    /// `side_sel` — [`key_eq`], on translated codes where there are some.
    fn key_eq(&self, i: usize, side: &EventBatch, side_sel: &KeySelector, j: usize) -> bool {
        let pairs = self.sel.indices().iter().zip(side_sel.indices());
        pairs.enumerate().all(|(k, (&x, &y))| {
            let r = side.payload().column(y);
            match (self.translated(k, i), r.data()) {
                (Some(code), ColumnData::Str(d)) if r.is_valid(j) => code == d.codes()[j],
                _ => self.batch.payload().column(x).cell_eq(i, r, j),
            }
        })
    }
}
