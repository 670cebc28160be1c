//! One input of a binary operator, read where it lies.
//!
//! The joins and the set difference look at an input three ways — key
//! hashes, key cells compared across the two inputs, lifetimes — and then
//! copy out the payload cells of the events they keep. A [`Side`] answers
//! all of it over either layout without converting one into the other: a
//! batch is read off its columns and copied with one [`Column::gather`] per
//! column, a row stream is read off its rows and copied through typed
//! column builders. Hashes and comparisons agree bit for bit between the
//! layouts ([`KeySelector::hash_batch`], [`Column::cell_eq`]), so an
//! operator written over sides gives one answer whatever mix it is handed.
//!
//! The build side of the joins and the set difference is indexed once, as
//! **key-exact classes** ([`KeyClasses`]): events are bucketed by key hash,
//! and a bucket splits into one class per distinct key, each with a
//! representative event. Distinct keys that collide on the hash are thus
//! told apart once per build event, and a probing event compares its key
//! cells once, against the representatives of its bucket (almost always
//! one), instead of once per candidate it meets.

use crate::batch::EventBatch;
use crate::event::Event;
use crate::exec::StreamData;
use crate::key::KeySelector;
use crate::time::Lifetime;
use relation::{Column, ColumnBatch, Row, Schema, Value};
use rustc_hash::FxHashMap;

/// A borrowed operator input in the layout it arrived in.
#[derive(Clone, Copy)]
pub(crate) enum Side<'a> {
    Rows(&'a [Event]),
    Batch(&'a EventBatch),
}

impl<'a> Side<'a> {
    pub(crate) fn of(data: &'a StreamData) -> Side<'a> {
        match data {
            StreamData::Rows(s) => Side::Rows(s.events()),
            StreamData::Batch(b) => Side::Batch(b),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Side::Rows(events) => events.len(),
            Side::Batch(batch) => batch.len(),
        }
    }

    pub(crate) fn lifetime(&self, i: usize) -> Lifetime {
        match self {
            Side::Rows(events) => events[i].lifetime,
            Side::Batch(batch) => batch.lifetime(i),
        }
    }

    /// The key hash of every event under `sel`.
    pub(crate) fn key_hashes(&self, sel: &KeySelector) -> Vec<u64> {
        match self {
            Side::Rows(events) => events.iter().map(|e| sel.hash(&e.payload)).collect(),
            Side::Batch(batch) => sel.hash_batch(batch.payload()),
        }
    }

    /// Whether event `i`'s key under `sel` equals the key of `other`'s
    /// event `j` under `other_sel` — index-wise strict [`Value`] equality,
    /// as [`KeySelector::matches`] compares two rows.
    pub(crate) fn key_eq(
        &self,
        sel: &KeySelector,
        i: usize,
        other: &Side,
        other_sel: &KeySelector,
        j: usize,
    ) -> bool {
        let mut pairs = sel.indices().iter().zip(other_sel.indices());
        match (self, other) {
            (Side::Rows(l), Side::Rows(r)) => sel.matches(&l[i].payload, other_sel, &r[j].payload),
            (Side::Batch(l), Side::Batch(r)) => pairs.all(|(&a, &b)| {
                let (l, r) = (l.payload().column(a), r.payload().column(b));
                l.cell_eq(i, r, j)
            }),
            (Side::Batch(l), Side::Rows(r)) => {
                pairs.all(|(&a, &b)| l.payload().column(a).cell_eq_value(i, r[j].payload.get(b)))
            }
            (Side::Rows(l), Side::Batch(r)) => {
                pairs.all(|(&a, &b)| r.payload().column(b).cell_eq_value(j, l[i].payload.get(a)))
            }
        }
    }

    /// Append the payload cells of event `i` to `cells`.
    pub(crate) fn extend_cells(&self, i: usize, cells: &mut Vec<Value>) {
        match self {
            Side::Rows(events) => cells.extend_from_slice(events[i].payload.values()),
            Side::Batch(batch) => {
                cells.extend(batch.payload().columns().iter().map(|c| c.value(i)))
            }
        }
    }

    /// The payload of event `i` as a row.
    pub(crate) fn row(&self, i: usize) -> Row {
        match self {
            Side::Rows(events) => events[i].payload.clone(),
            Side::Batch(batch) => batch.payload_row(i),
        }
    }

    /// The payload columns at `cols` (ascending positions in `schema`) of
    /// the events at `idx` (any order, repeats allowed), built once:
    /// gathered from a batch, pushed through typed builders from rows.
    /// `None` when a row does not inhabit `schema` (row storage tolerates
    /// ill-typed cells; dense typed vectors cannot) — in any column, read
    /// or not, so whether an input has a column form does not depend on
    /// who reads it.
    pub(crate) fn gather(
        &self,
        schema: &Schema,
        cols: &[usize],
        idx: &[u32],
    ) -> Option<Vec<Column>> {
        match self {
            Side::Rows(events) => {
                let rows = idx.iter().map(|&i| events[i as usize].payload.values());
                let batch = ColumnBatch::from_value_rows(schema.clone(), idx.len(), rows).ok()?;
                let columns = batch.into_parts().1.into_iter().enumerate();
                let read = columns.filter(|(c, _)| cols.binary_search(c).is_ok());
                Some(read.map(|(_, column)| column).collect())
            }
            Side::Batch(batch) => {
                let columns = batch.payload().columns();
                Some(cols.iter().map(|&c| columns[c].gather(idx)).collect())
            }
        }
    }
}

/// One input's events grouped into key-exact classes under one selector,
/// each class folded into a value of type `T` (its members, its merged
/// cover, …).
pub(crate) struct KeyClasses<'a, T> {
    side: Side<'a>,
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
        side: Side<'a>,
        sel: &'a KeySelector,
        new: impl Fn() -> T,
        mut add: impl FnMut(&mut T, usize),
    ) -> Self {
        let mut by_hash: FxHashMap<u64, Vec<(u32, T)>> = FxHashMap::default();
        for (i, hash) in side.key_hashes(sel).into_iter().enumerate() {
            let bucket = by_hash.entry(hash).or_default();
            let class = (bucket.iter())
                .position(|(repr, _)| side.key_eq(sel, *repr as usize, &side, sel, i));
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
        probe: &Side,
        probe_sel: &KeySelector,
        i: usize,
    ) -> Option<&T> {
        let bucket = self.by_hash.get(&hash)?;
        let mut classes = bucket.iter();
        let class = classes
            .find(|(repr, _)| probe.key_eq(probe_sel, i, &self.side, self.sel, *repr as usize));
        class.map(|(_, value)| value)
    }
}
