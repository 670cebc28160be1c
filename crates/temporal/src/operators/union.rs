//! Union: bag merge of same-schema streams (paper §II-A.2).

use crate::batch::EventBatch;
use crate::error::{Result, TemporalError};
use crate::operators::group_apply::BatchRuns;

/// Merge all inputs into one batch, consuming them, in the order
/// [`EventBatch::merge`] leaves them in: the smaller side's columns are
/// appended to the larger's, which moves when uniquely owned. Schemas must
/// be identical.
pub fn union(inputs: Vec<EventBatch>) -> Result<EventBatch> {
    let mut it = inputs.into_iter();
    let mut out = it
        .next()
        .ok_or_else(|| TemporalError::Plan("union of zero streams".into()))?;
    for next in it {
        out.merge(next)?;
    }
    Ok(out)
}

/// Run `r` of each side in the order [`EventBatch::merge`] would leave
/// them in, given each side's length in that run: each side in turn goes
/// *before* what has accumulated when it is the larger, after it otherwise.
fn merge_order(lens: impl Iterator<Item = usize>, order: &mut Vec<(usize, usize)>) {
    order.clear();
    let mut merged = 0;
    for (side, len) in lens.enumerate() {
        if len > merged {
            order.insert(0, (side, len));
        } else {
            order.push((side, len));
        }
        merged += len;
    }
}

/// [`union`] of every run at once: one batch holding every input's events
/// and one permutation interleaving their runs, so output run `r` is the
/// inputs' runs `r` merged as a per-group `union` orders them
/// ([`merge_order`]). An input with dropped rows gives up only its live
/// ones (one gather); an input without is appended as it stands. Schemas
/// must be identical.
pub(crate) fn union_walk(inputs: Vec<BatchRuns>) -> Result<BatchRuns> {
    let first = inputs
        .first()
        .ok_or_else(|| TemporalError::Plan("union of zero streams".into()))?;
    let runs = first.len();
    let inputs: Vec<BatchRuns> = (inputs.into_iter())
        .map(|i| match i.perm.len() < i.batch.len() {
            true => BatchRuns::in_order(i.batch.gather(&i.perm), i.bounds),
            false => i,
        })
        .collect();
    let mut offsets = Vec::with_capacity(inputs.len());
    let mut at = 0;
    for i in &inputs {
        offsets.push(at as u32);
        at += i.batch.len();
    }
    let mut perm = Vec::with_capacity(at);
    let mut bounds = Vec::with_capacity(runs + 1);
    bounds.push(0);
    let mut order = Vec::with_capacity(inputs.len());
    for r in 0..runs {
        merge_order(
            inputs.iter().map(|i| i.bounds[r + 1] - i.bounds[r]),
            &mut order,
        );
        for &(side, _) in &order {
            let (input, offset) = (&inputs[side], offsets[side]);
            let run = &input.perm[input.bounds[r]..input.bounds[r + 1]];
            perm.extend(run.iter().map(|&i| i + offset));
        }
        bounds.push(perm.len());
    }
    let mut batches = inputs.into_iter().map(|i| i.batch);
    let mut batch = batches.next().expect("checked non-empty");
    for b in batches {
        batch.append(b)?;
    }
    Ok(BatchRuns {
        batch,
        perm,
        bounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::stream::EventStream;
    use relation::schema::{ColumnType, Field};
    use relation::{row, Schema};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("X", ColumnType::Long)])
    }

    fn batch(xs: &[i64]) -> EventBatch {
        let events = xs.iter().map(|&x| Event::point(x, row![x])).collect();
        EventBatch::from_stream(&EventStream::new(schema(), events)).unwrap()
    }

    #[test]
    fn merges_event_bags() {
        let out = union(vec![batch(&[1]), batch(&[2]), batch(&[3])]).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn runs_merge_in_the_order_of_a_per_run_union() {
        // Each side's runs held by a batch in reverse storage order, and
        // the second and third sides with rows no run names (dropped by a
        // filter).
        let side = |runs: &[&[i64]], dropped: &[i64]| {
            let mut bounds = vec![0];
            let mut xs = Vec::new();
            for run in runs {
                xs.extend_from_slice(run);
                bounds.push(xs.len());
            }
            let n = xs.len() as u32;
            let mut stored: Vec<i64> = xs.iter().rev().copied().collect();
            stored.extend_from_slice(dropped);
            let perm = (0..n).rev().collect();
            BatchRuns {
                batch: batch(&stored),
                perm,
                bounds,
            }
        };
        // Run 0: the second side is larger and goes first; run 1: ties keep
        // input order; run 2: an empty side; run 3: the third side largest.
        let a = side(&[&[1], &[10, 11], &[], &[30]], &[]);
        let b = side(&[&[2, 3], &[12, 13], &[20], &[31]], &[99, 98]);
        let c = side(&[&[4], &[], &[21, 22], &[32, 33, 34]], &[97]);
        let per_run = |r: usize| {
            let runs: Vec<EventBatch> = [&a, &b, &c].iter().map(|s| s.run(r)).collect();
            union(runs).unwrap().into_stream()
        };
        let want: Vec<_> = (0..4).map(per_run).collect();
        let out = union_walk(vec![a.clone(), b.clone(), c.clone()]).unwrap();
        assert_eq!(out.bounds, vec![0, 4, 8, 11, 16]);
        assert_eq!(out.batch.len(), 16, "the dropped rows are left behind");
        for (r, want) in want.iter().enumerate() {
            assert_eq!(&out.run(r).into_stream(), want, "run {r}");
        }
    }

    #[test]
    fn schema_mismatch_rejected() {
        let b = EventBatch::empty(Schema::new(vec![Field::new("Y", ColumnType::Long)]));
        assert!(union(vec![batch(&[]), b]).is_err());
    }
}
