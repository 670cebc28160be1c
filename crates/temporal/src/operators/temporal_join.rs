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
//! ([`temporal_join_reading`]). A residual is evaluated once, as a batch,
//! over the candidate pairs' gathered columns — only those it reads — and
//! fails with the error of the first failing pair in probe order.

use crate::batch::EventBatch;
use crate::compiled::CompiledExpr;
use crate::error::Result;
use crate::expr::Expr;
use crate::key::KeySelector;
use crate::operators::side::{Gather, KeyClasses};
use relation::{ColumnBatch, Schema};
use std::sync::Arc;

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
    let probe = right_index.probe(left, &lsel);
    for (li, hash) in lsel.group_hashes(left.payload()).into_iter().enumerate() {
        let Some(members) = right_index.find(hash, &probe, li) else {
            continue;
        };
        let left_lifetime = left.lifetime(li);
        for &ri in members {
            let right_lifetime = right.lifetime(ri as usize);
            if right_lifetime.start >= left_lifetime.end {
                break; // class sorted by LE: nothing later can intersect
            }
            let Some(lifetime) = left_lifetime.intersect(&right_lifetime) else {
                continue;
            };
            left_idx.push(li as u32);
            right_idx.push(ri);
            vt.push(lifetime.start);
            ve.push(lifetime.end);
        }
    }

    // The pairs' payload at `reads` (ascending positions in the joined
    // schema), gathered once.
    let (left, right) = (left.payload().columns(), right.payload().columns());
    let joined = |reads: &[usize], left_idx: &[u32], right_idx: &[u32]| {
        let split = reads.partition_point(|&c| c < lschema.len());
        let right_reads: Vec<usize> = reads[split..].iter().map(|&c| c - lschema.len()).collect();
        let mut columns = left.gather(&reads[..split], left_idx);
        columns.extend(right.gather(&right_reads, right_idx));
        let fields = reads.iter().map(|&c| out_schema.fields()[c].clone());
        ColumnBatch::new(Schema::new(fields.collect()), columns, left_idx.len())
    };
    if let Some(residual) = residual {
        let named = residual.referenced_columns();
        let cols: Vec<usize> = (0..out_schema.len())
            .filter(|&c| named.contains(&out_schema.fields()[c].name.as_str()))
            .collect();
        let pairs = joined(&cols, &left_idx, &right_idx);
        let keep = CompiledExpr::compile(residual, pairs.schema())
            .eval_predicate_batch_sel(&pairs, None)
            .map_err(|failed| {
                Arc::unwrap_or_clone(failed.into_iter().next().expect("a failing pair").1)
            })?;
        retain_kept(&mut left_idx, &keep);
        retain_kept(&mut right_idx, &keep);
        retain_kept(&mut vt, &keep);
        retain_kept(&mut ve, &keep);
    }

    let all: Vec<usize> = (0..out_schema.len()).collect();
    let payload = joined(reads.unwrap_or(&all), &left_idx, &right_idx);
    Ok(EventBatch::new(vt, ve, payload))
}

/// Keep the entries of `v` whose flag in `keep` is set.
fn retain_kept<T>(v: &mut Vec<T>, keep: &[bool]) {
    let mut flags = keep.iter();
    v.retain(|_| *flags.next().expect("one flag per entry"));
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

    #[test]
    fn a_failing_residual_is_the_first_failing_pair_s_error_in_probe_order() {
        let s = Schema::new(vec![Field::new("V", ColumnType::Long)]);
        let t = Schema::new(vec![Field::new("W", ColumnType::Long)]);
        let left = EventStream::new(
            s,
            vec![Event::point(5, row![7i64]), Event::point(6, row![3i64])],
        );
        let right = EventStream::new(
            t,
            vec![
                Event::interval(0, 10, row![1i64]),
                Event::interval(0, 10, row![2i64]),
            ],
        );
        let (l, r) = (
            EventBatch::from_stream(&left).unwrap(),
            EventBatch::from_stream(&right).unwrap(),
        );
        let run = |residual: &Expr| temporal_join(&l, &r, &[], Some(residual)).map(|_| ());
        // Every pair fails, each with its own value: the first pair's.
        assert_eq!(
            run(&col("V").add(col("W"))).unwrap_err().to_string(),
            "eval error: predicate evaluated to non-boolean 8"
        );
        // The first left event's pairs pass (`OR` never reaches `Nope`);
        // the second's fail.
        let err = run(&col("V").gt(lit(5i64)).or(col("Nope"))).unwrap_err();
        assert!(err.to_string().contains("Nope"), "{err}");
    }
}
