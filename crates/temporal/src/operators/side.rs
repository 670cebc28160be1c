//! The build side of a binary operator, indexed once.
//!
//! The joins and the set difference index their build side as **key-exact
//! classes** ([`KeyClasses`]): events are bucketed by key hash, and a
//! bucket splits into one class per distinct key, each with a
//! representative event. Distinct keys that collide on the hash are thus
//! told apart once per build event, and a probing event compares its key
//! cells once, against the representatives of its bucket (almost always
//! one), instead of once per candidate it meets. Hashes and comparisons
//! read the key columns in place ([`KeySelector::hash_batch`],
//! [`relation::Column::cell_eq`]).

use crate::batch::EventBatch;
use crate::key::KeySelector;
use relation::Column;
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
        for (i, hash) in sel.hash_batch(side.payload()).into_iter().enumerate() {
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

    /// The class holding the key of `probe`'s event `i` under `probe_sel`,
    /// whose key hash is `hash`: the one key comparison per probing event.
    pub(crate) fn find(
        &self,
        hash: u64,
        probe: &EventBatch,
        probe_sel: &KeySelector,
        i: usize,
    ) -> Option<&T> {
        let bucket = self.by_hash.get(&hash)?;
        let mut classes = bucket.iter();
        let class = classes
            .find(|(repr, _)| key_eq(probe, probe_sel, i, self.side, self.sel, *repr as usize));
        class.map(|(_, value)| value)
    }
}
