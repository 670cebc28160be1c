//! The reduce sink's canonical order as the comparator sort it was before
//! the sink sorted integer keys (`EventEncoding::encode_sink`): by lifetime,
//! then by the typed column cells through `Column::cmp_cells`. The sort is
//! kept verbatim; the dataset batch is built here from its permutation, so
//! nothing of the code under test shapes the reference's bytes.

use std::cmp::Ordering;
use timr_suite::relation::column::{Column, ColumnData};
use timr_suite::relation::ColumnBatch;
use timr_suite::temporal::{EventBatch, Time};
use timr_suite::timr::EventEncoding;

/// The canonical permutation of `root`'s rows.
pub fn canonical_order(root: &EventBatch) -> Vec<u32> {
    let columns = root.payload().columns();
    // The lifetime rides along with the index: most comparisons end on
    // it without touching a column. Ties are identical rows, so an
    // unstable sort is deterministic.
    let mut order: Vec<(Time, Time, u32)> = (root.vt().iter().zip(root.ve()))
        .enumerate()
        .map(|(i, (&le, &re))| (le, re, i as u32))
        .collect();
    order.sort_unstable_by(|a, b| {
        (a.0, a.1).cmp(&(b.0, b.1)).then_with(|| {
            let (i, j) = (a.2 as usize, b.2 as usize);
            (columns.iter().map(|c| c.cmp_cells(i, j)))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        })
    });
    order.iter().map(|o| o.2).collect()
}

/// `root` as the dataset batch of `enc` in canonical order: the framing
/// columns, then the payload, each gathered by [`canonical_order`].
pub fn encode_sink(enc: EventEncoding, root: &EventBatch) -> ColumnBatch {
    let idx = canonical_order(root);
    let framing = |t: &[Time]| {
        let t = idx.iter().map(|&i| t[i as usize]).collect();
        Column::new(ColumnData::Long(t), None)
    };
    let (schema, payload, rows) = root.payload().gather(&idx).into_parts();
    let mut columns = vec![framing(root.vt())];
    if enc == EventEncoding::Interval {
        columns.push(framing(root.ve()));
    }
    columns.extend(payload);
    ColumnBatch::new(enc.dataset_schema(&schema), columns, rows)
}
