//! TemporalJoin: correlate two streams (paper §II-A.2, Fig 4 right).
//!
//! Outputs the relational join of left and right events whose equality keys
//! match, whose lifetimes intersect, and (optionally) whose concatenated
//! payload satisfies a residual predicate. The output lifetime is the
//! intersection of the two input lifetimes.
//!
//! The common BT pattern — point events on the left joined against a synopsis
//! of interval events on the right (profiles, model weights) — falls out of
//! the general interval intersection: a point `[t, t+1)` intersects exactly
//! the right events whose lifetimes contain `t`.
//!
//! Keys are hash-then-compare ([`KeySelector`]), with no per-event
//! `Vec<Value>` key allocation: the right side is indexed as key-exact
//! classes ([`KeyClasses`]) — bucketed by the 64-bit hash of its key cells,
//! a bucket split into one class per distinct key — so a left event
//! compares its key cells once, against its bucket's class representatives,
//! and then walks its class's members with no further comparison. Classes
//! are sorted by `(LE, RE)` — stable, so events with equal lifetimes keep
//! input order — which makes the output event order identical to a by-key
//! index, collisions or not.
//!
//! The output is built **once, as columns**. The probe reads each input's
//! key columns in place and records `(left index, right index, lifetime)`
//! per match; then every output column is gathered in one pass, so a
//! projection above the join moves columns instead of rebuilding rows.
//! When the join's one consumer is a fragment that projects, the executor
//! passes the columns it reads and only those are gathered
//! ([`temporal_join_reading`]). No concatenated payload row exists unless
//! there is a residual, which is evaluated per candidate pair on one
//! reused scratch row by the one-row evaluator.

use crate::batch::EventBatch;
use crate::compiled::CompiledExpr;
use crate::error::Result;
use crate::expr::Expr;
use crate::key::KeySelector;
use crate::operators::side::{Gather, KeyClasses};
use relation::{ColumnBatch, Row, Schema, Value};

/// Join `left` and `right` on `keys` (pairs of column names) with an
/// optional residual predicate over the concatenated payload.
pub fn temporal_join(
    left: &EventBatch,
    right: &EventBatch,
    keys: &[(String, String)],
    residual: Option<&Expr>,
) -> Result<EventBatch> {
    temporal_join_reading(left, right, keys, residual, None)
}

/// Append the payload cells of `batch`'s event `i` to `cells`.
fn extend_cells(batch: &EventBatch, i: usize, cells: &mut Vec<Value>) {
    cells.extend(batch.payload().columns().iter().map(|c| c.value(i)))
}

/// [`temporal_join`] building only the output columns at `reads`
/// (ascending positions in the joined schema; every column when `None`):
/// the executor passes the columns the join's one consumer, a projecting
/// fragment, reads. The output then has the schema of those columns alone —
/// the consumer resolves its columns by name.
pub(crate) fn temporal_join_reading(
    left: &EventBatch,
    right: &EventBatch,
    keys: &[(String, String)],
    residual: Option<&Expr>,
    reads: Option<&[usize]>,
) -> Result<EventBatch> {
    let lschema = left.schema();
    let rschema = right.schema();
    let out_schema = lschema.join(rschema);

    let lnames: Vec<&str> = keys.iter().map(|(l, _)| l.as_str()).collect();
    let rnames: Vec<&str> = keys.iter().map(|(_, r)| r.as_str()).collect();
    let lsel = KeySelector::new(lschema, &lnames)?;
    let rsel = KeySelector::new(rschema, &rnames)?;
    let compiled_residual = residual.map(|p| CompiledExpr::compile(p, &out_schema));

    // Index the right side as key-exact classes; sort each class by
    // (LE, RE) for early exit (stable: equal lifetimes keep input order).
    let mut right_index = KeyClasses::build(right, &rsel, Vec::new, |members, ri| {
        members.push(ri as u32)
    });
    for members in right_index.values_mut() {
        members.sort_by_key(|&ri| {
            let lifetime = right.lifetime(ri as usize);
            (lifetime.start, lifetime.end)
        });
    }

    let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
    let (mut vt, mut ve) = (Vec::new(), Vec::new());
    let mut scratch = Row::default();
    let probe = right_index.probe(left, &lsel);
    for (li, hash) in lsel.group_hashes(left.payload()).into_iter().enumerate() {
        let Some(members) = right_index.find(hash, &probe, li) else {
            continue;
        };
        let left_lifetime = left.lifetime(li);
        if compiled_residual.is_some() {
            scratch.values_mut().clear();
            extend_cells(left, li, scratch.values_mut());
        }
        let left_width = scratch.len();
        for &ri in members {
            let right_lifetime = right.lifetime(ri as usize);
            if right_lifetime.start >= left_lifetime.end {
                break; // class sorted by LE: nothing later can intersect
            }
            let Some(lifetime) = left_lifetime.intersect(&right_lifetime) else {
                continue;
            };
            if let Some(pred) = &compiled_residual {
                scratch.values_mut().truncate(left_width);
                extend_cells(right, ri as usize, scratch.values_mut());
                if !pred.eval_predicate(&scratch)? {
                    continue;
                }
            }
            left_idx.push(li as u32);
            right_idx.push(ri);
            vt.push(lifetime.start);
            ve.push(lifetime.end);
        }
    }

    let all: Vec<usize> = (0..out_schema.len()).collect();
    let reads = reads.unwrap_or(&all);
    let split = reads.partition_point(|&c| c < lschema.len());
    let right_reads: Vec<usize> = reads[split..].iter().map(|&c| c - lschema.len()).collect();
    let (left, right) = (left.payload().columns(), right.payload().columns());
    let mut columns = left.gather(&reads[..split], &left_idx);
    columns.extend(right.gather(&right_reads, &right_idx));
    let fields = reads.iter().map(|&c| out_schema.fields()[c].clone());
    let payload = ColumnBatch::new(Schema::new(fields.collect()), columns, vt.len());
    Ok(EventBatch::new(vt, ve, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::expr::{col, lit};
    use crate::stream::EventStream;
    use relation::row;
    use relation::schema::{ColumnType, Field};

    /// The join of two row streams, back as rows.
    fn join(
        left: &EventStream,
        right: &EventStream,
        keys: &[(String, String)],
        residual: Option<&Expr>,
    ) -> EventStream {
        let (l, r) = (
            EventBatch::from_stream(left),
            EventBatch::from_stream(right),
        );
        let out = temporal_join(&l.unwrap(), &r.unwrap(), keys, residual).unwrap();
        out.into_stream()
    }

    fn left_stream() -> EventStream {
        let schema = Schema::new(vec![
            Field::new("UserId", ColumnType::Str),
            Field::new("AdId", ColumnType::Str),
        ]);
        EventStream::new(
            schema,
            vec![
                Event::point(5, row!["u1", "adA"]),
                Event::point(30, row!["u1", "adB"]),
                Event::point(7, row!["u2", "adA"]),
            ],
        )
    }

    fn right_stream() -> EventStream {
        // Interval "profile" events per user.
        let schema = Schema::new(vec![
            Field::new("UserId", ColumnType::Str),
            Field::new("Kw", ColumnType::Str),
        ]);
        EventStream::new(
            schema,
            vec![
                Event::interval(0, 10, row!["u1", "cars"]),
                Event::interval(20, 40, row!["u1", "movies"]),
                Event::interval(0, 3, row!["u2", "games"]),
            ],
        )
    }

    #[test]
    fn point_probe_hits_covering_intervals_only() {
        let out = join(
            &left_stream(),
            &right_stream(),
            &[("UserId".to_string(), "UserId".to_string())],
            None,
        );
        let n = out.normalize();
        // u1@5 joins cars[0,10); u1@30 joins movies[20,40); u2@7 misses.
        assert_eq!(n.len(), 2);
        assert_eq!(n.events()[0].payload, row!["u1", "adA", "u1", "cars"]);
        assert_eq!(n.events()[0].lifetime, crate::time::Lifetime::point(5));
        assert_eq!(n.events()[1].payload, row!["u1", "adB", "u1", "movies"]);
    }

    #[test]
    fn output_lifetime_is_intersection() {
        let s = Schema::new(vec![Field::new("K", ColumnType::Str)]);
        let a = EventStream::new(s.clone(), vec![Event::interval(0, 10, row!["k"])]);
        let b = EventStream::new(s, vec![Event::interval(5, 20, row!["k"])]);
        let out = join(&a, &b, &[("K".to_string(), "K".to_string())], None);
        assert_eq!(out.events()[0].lifetime, crate::time::Lifetime::new(5, 10));
        assert_eq!(out.schema().names(), vec!["K", "K.r"]);
    }

    #[test]
    fn residual_predicate_filters_pairs() {
        // Paper Fig 4 right: join where left.Power < right.Power + 100.
        let s = Schema::new(vec![
            Field::new("Id", ColumnType::Str),
            Field::new("Power", ColumnType::Long),
        ]);
        let a = EventStream::new(s.clone(), vec![Event::interval(0, 10, row!["m", 250i64])]);
        let b = EventStream::new(
            s,
            vec![
                Event::interval(0, 10, row!["m", 100i64]),
                Event::interval(0, 10, row!["m", 200i64]),
            ],
        );
        let out = join(
            &a,
            &b,
            &[("Id".to_string(), "Id".to_string())],
            Some(&col("Power").lt(col("Power.r").add(lit(100i64)))),
        );
        // 250 < 100+100 fails; 250 < 200+100 passes.
        assert_eq!(out.len(), 1);
        assert_eq!(out.events()[0].payload, row!["m", 250i64, "m", 200i64]);
    }

    #[test]
    fn no_keys_means_cross_correlation() {
        let s = Schema::new(vec![Field::new("A", ColumnType::Long)]);
        let t = Schema::new(vec![Field::new("B", ColumnType::Long)]);
        let a = EventStream::new(s, vec![Event::interval(0, 5, row![1i64])]);
        let b = EventStream::new(t, vec![Event::interval(3, 9, row![2i64])]);
        let out = join(&a, &b, &[], None);
        assert_eq!(out.len(), 1);
        assert_eq!(out.events()[0].lifetime, crate::time::Lifetime::new(3, 5));
    }
}
