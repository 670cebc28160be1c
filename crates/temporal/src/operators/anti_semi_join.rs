//! AntiSemiJoin: temporal set difference (paper §II-A.2).
//!
//! Removes the *portions* of left events that temporally intersect some
//! matching right event. For point-event left inputs — the paper's usage in
//! bot elimination (drop activity of flagged bot users, Fig 11) and
//! non-click derivation (drop impressions that led to a click, Fig 12) —
//! this reduces to "drop covered points". Interval left events are split
//! into surviving fragments.
//!
//! Keys are hash-then-compare ([`KeySelector`]): the right side is indexed
//! as key-exact classes ([`KeyClasses`]), one merged cover per distinct
//! key, so covers for distinct keys that collide on the hash stay separate
//! (merging them would wrongly subtract one key's intervals from another's
//! events), and a left event compares its key cells once, against its
//! bucket's class representatives.
//!
//! What survives is first written down as an index list with new
//! lifetimes — a left event that fragments repeats its index — and then
//! materialized once: the left payload's columns are gathered by the list.

use crate::batch::EventBatch;
use crate::error::Result;
use crate::key::KeySelector;
use crate::operators::side::KeyClasses;
use crate::time::{merge_intervals, Lifetime};

/// Subtract from `left` the time ranges covered by key-matching events of
/// `right`.
pub fn anti_semi_join(
    left: &EventBatch,
    right: &EventBatch,
    keys: &[(String, String)],
) -> Result<EventBatch> {
    let lnames: Vec<&str> = keys.iter().map(|(l, _)| l.as_str()).collect();
    let rnames: Vec<&str> = keys.iter().map(|(_, r)| r.as_str()).collect();
    let lsel = KeySelector::new(left.schema(), &lnames)?;
    let rsel = KeySelector::new(right.schema(), &rnames)?;

    // Per key class: merged, disjoint, sorted cover of the right side.
    let mut covers = KeyClasses::build(right, &rsel, Vec::new, |cover, ri| {
        cover.push(right.lifetime(ri))
    });
    for cover in covers.values_mut() {
        *cover = merge_intervals(std::mem::take(cover));
    }

    // The survivors: left event `idx[k]` over `[vt[k], ve[k])`.
    let n = left.len();
    let mut idx = Vec::with_capacity(n);
    let (mut vt, mut ve) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut keep = |i: usize, lifetime: Lifetime| {
        idx.push(i as u32);
        vt.push(lifetime.start);
        ve.push(lifetime.end);
    };
    let probe = covers.probe(left, &lsel);
    for (i, hash) in lsel.group_hashes(left.payload()).into_iter().enumerate() {
        match covers.find(hash, &probe, i) {
            None => keep(i, left.lifetime(i)),
            Some(cover) => {
                for fragment in left.lifetime(i).subtract_all(cover) {
                    keep(i, fragment);
                }
            }
        }
    }
    Ok(EventBatch::new(vt, ve, left.payload().gather(&idx)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::stream::EventStream;
    use relation::schema::{ColumnType, Field};
    use relation::{row, Schema};

    /// The difference of two row streams, back as rows.
    fn minus(left: EventStream, right: &EventStream, keys: &[(String, String)]) -> EventStream {
        let (l, r) = (
            EventBatch::from_stream(&left),
            EventBatch::from_stream(right),
        );
        anti_semi_join(&l.unwrap(), &r.unwrap(), keys)
            .unwrap()
            .into_stream()
    }

    fn user_schema() -> Schema {
        Schema::new(vec![
            Field::new("UserId", ColumnType::Str),
            Field::new("What", ColumnType::Str),
        ])
    }

    #[test]
    fn drops_points_covered_by_matching_intervals() {
        // Bot-elimination shape: user activity (points) minus bot periods.
        let activity = EventStream::new(
            user_schema(),
            vec![
                Event::point(5, row!["u1", "search"]),
                Event::point(50, row!["u1", "click"]),
                Event::point(5, row!["u2", "search"]),
            ],
        );
        let bot_periods = EventStream::new(
            Schema::new(vec![Field::new("UserId", ColumnType::Str)]),
            vec![Event::interval(0, 10, row!["u1"])],
        );
        let out = minus(
            activity,
            &bot_periods,
            &[("UserId".to_string(), "UserId".to_string())],
        );
        let n = out.normalize();
        // u1@5 is covered; u1@50 and u2@5 survive.
        assert_eq!(n.len(), 2);
        assert_eq!(n.events()[0].payload, row!["u2", "search"]);
        assert_eq!(n.events()[1].payload, row!["u1", "click"]);
    }

    #[test]
    fn interval_left_events_fragment() {
        let left = EventStream::new(
            user_schema(),
            vec![Event::interval(0, 100, row!["u1", "x"])],
        );
        let right = EventStream::new(
            Schema::new(vec![Field::new("UserId", ColumnType::Str)]),
            vec![
                Event::interval(10, 20, row!["u1"]),
                Event::interval(15, 30, row!["u1"]),
            ],
        );
        let out = minus(
            left,
            &right,
            &[("UserId".to_string(), "UserId".to_string())],
        );
        assert_eq!(
            out.events().iter().map(|e| e.lifetime).collect::<Vec<_>>(),
            vec![Lifetime::new(0, 10), Lifetime::new(30, 100)]
        );
    }

    #[test]
    fn unmatched_keys_pass_through() {
        let left = EventStream::new(user_schema(), vec![Event::point(1, row!["u9", "x"])]);
        let right = EventStream::new(
            Schema::new(vec![Field::new("UserId", ColumnType::Str)]),
            vec![Event::interval(0, 10, row!["u1"])],
        );
        let out = minus(
            left,
            &right,
            &[("UserId".to_string(), "UserId".to_string())],
        );
        assert_eq!(out.len(), 1);
    }
}
