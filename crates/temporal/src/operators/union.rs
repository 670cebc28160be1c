//! Union: bag merge of same-schema streams (paper §II-A.2).

use crate::error::{Result, TemporalError};
use crate::operators::group_apply::Runs;
use crate::stream::EventStream;

/// Merge all inputs into one stream, consuming them (uniquely-owned inputs
/// move their events, no copies). Schemas must be identical.
pub fn union(inputs: Vec<EventStream>) -> Result<EventStream> {
    let mut it = inputs.into_iter();
    let mut out = it
        .next()
        .ok_or_else(|| TemporalError::Plan("union of zero streams".into()))?;
    for s in it {
        out.merge(s)?;
    }
    Ok(out)
}

/// [`union`] of every run at once: output run `r` is the inputs' runs `r`,
/// merged in the order [`EventStream::merge`] would leave them in — each
/// input in turn goes *before* what has accumulated when it is the larger
/// side, after it otherwise — so a group's events come out exactly as a
/// per-group `union` orders them.
pub(crate) fn union_runs(inputs: Vec<Runs>) -> Result<Runs> {
    let first = inputs
        .first()
        .ok_or_else(|| TemporalError::Plan("union of zero streams".into()))?;
    let schema = first.stream.schema().clone();
    let runs = first.len();
    if let Some(other) = inputs.iter().find(|i| *i.stream.schema() != schema) {
        return Err(TemporalError::Input(format!(
            "cannot merge streams with schemas {} and {}",
            schema,
            other.stream.schema()
        )));
    }
    let total = inputs.iter().map(|i| i.stream.len()).sum();
    let (in_bounds, mut sides): (Vec<_>, Vec<_>) = inputs
        .into_iter()
        .map(|i| (i.bounds, i.stream.into_events().into_iter()))
        .unzip();
    let mut events = Vec::with_capacity(total);
    let mut bounds = Vec::with_capacity(runs + 1);
    bounds.push(0);
    let mut order = Vec::with_capacity(sides.len());
    for r in 0..runs {
        order.clear();
        let mut merged = 0;
        for (side, b) in in_bounds.iter().enumerate() {
            let len = b[r + 1] - b[r];
            if len > merged {
                order.insert(0, (side, len));
            } else {
                order.push((side, len));
            }
            merged += len;
        }
        // Each side is consumed front to back: its runs come in order.
        for &(side, len) in &order {
            events.extend(sides[side].by_ref().take(len));
        }
        bounds.push(events.len());
    }
    Ok(Runs {
        stream: EventStream::new(schema, events),
        bounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use relation::schema::{ColumnType, Field};
    use relation::{row, Schema};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("X", ColumnType::Long)])
    }

    #[test]
    fn merges_event_bags() {
        let a = EventStream::new(schema(), vec![Event::point(1, row![1i64])]);
        let b = EventStream::new(schema(), vec![Event::point(2, row![2i64])]);
        let c = EventStream::new(schema(), vec![Event::point(3, row![3i64])]);
        let out = union(vec![a, b, c]).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn runs_merge_in_the_order_of_a_per_run_union() {
        let side = |runs: &[&[i64]]| {
            let mut bounds = vec![0];
            let mut events = Vec::new();
            for run in runs {
                events.extend(run.iter().map(|&x| Event::point(x, row![x])));
                bounds.push(events.len());
            }
            Runs {
                stream: EventStream::new(schema(), events),
                bounds,
            }
        };
        let per_run = |r: usize, sides: &[&Runs]| {
            union(
                sides
                    .iter()
                    .map(|s| {
                        let events = s.stream.events()[s.bounds[r]..s.bounds[r + 1]].to_vec();
                        EventStream::new(schema(), events)
                    })
                    .collect(),
            )
            .unwrap()
        };
        // Run 0: the second side is larger and goes first; run 1: ties keep
        // input order; run 2: an empty side; run 3: the third side largest.
        let a = side(&[&[1], &[10, 11], &[], &[30]]);
        let b = side(&[&[2, 3], &[12, 13], &[20], &[31]]);
        let c = side(&[&[4], &[], &[21, 22], &[32, 33, 34]]);
        let out = union_runs(vec![a.clone(), b.clone(), c.clone()]).unwrap();
        assert_eq!(out.bounds, vec![0, 4, 8, 11, 16]);
        for r in 0..4 {
            assert_eq!(
                &out.stream.events()[out.bounds[r]..out.bounds[r + 1]],
                per_run(r, &[&a, &b, &c]).events(),
                "run {r}"
            );
        }
    }

    #[test]
    fn schema_mismatch_rejected() {
        let a = EventStream::empty(schema());
        let b = EventStream::empty(Schema::new(vec![Field::new("Y", ColumnType::Long)]));
        assert!(union(vec![a, b]).is_err());
    }
}
