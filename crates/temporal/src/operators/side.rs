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

use crate::batch::EventBatch;
use crate::event::Event;
use crate::exec::StreamData;
use crate::key::KeySelector;
use crate::time::Lifetime;
use relation::{Column, ColumnBatch, Row, Schema, Value};

/// A borrowed operator input in the layout it arrived in.
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

    /// The payload columns of the events at `idx` (any order, repeats
    /// allowed), built once: gathered from a batch, pushed through typed
    /// builders from rows. `None` when a row does not inhabit `schema` (row
    /// storage tolerates ill-typed cells; dense typed vectors cannot).
    pub(crate) fn gather(&self, schema: &Schema, idx: &[u32]) -> Option<Vec<Column>> {
        match self {
            Side::Rows(events) => {
                let rows = idx.iter().map(|&i| events[i as usize].payload.values());
                let batch = ColumnBatch::from_value_rows(schema.clone(), idx.len(), rows).ok()?;
                Some(batch.into_parts().1)
            }
            Side::Batch(batch) => {
                let columns = batch.payload().columns();
                Some(columns.iter().map(|c| c.gather(idx)).collect())
            }
        }
    }
}
