//! Union: bag merge of same-schema streams (paper §II-A.2).

use crate::batch::EventBatch;
use crate::error::{Result, TemporalError};
use crate::operators::group_apply::BatchRuns;

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

/// The union of every run at once: one batch holding every input's events
/// and one permutation interleaving their runs, so output run `r` is the
/// inputs' runs `r` merged as [`EventBatch::merge`] leaves them, one input
/// after another ([`merge_order`]). An input with dropped rows gives up
/// only its live ones (one gather); an input without is appended as it
/// stands. One run is that merge itself: each input dense, the larger
/// side's storage kept in place. Schemas must be identical.
pub(crate) fn union_walk(inputs: Vec<BatchRuns>) -> Result<BatchRuns> {
    let first = inputs
        .first()
        .ok_or_else(|| TemporalError::Plan("union of zero streams".into()))?;
    let runs = first.len();
    if runs == 1 {
        let mut batches = inputs.into_iter().map(BatchRuns::into_ordered);
        let mut out = batches.next().expect("checked non-empty");
        for next in batches {
            out.merge(next)?;
        }
        return Ok(BatchRuns::one(out));
    }
    let inputs: Vec<(EventBatch, Vec<u32>, Vec<usize>)> = (inputs.into_iter())
        .map(|i| {
            let (batch, perm, bounds) = i.into_perm();
            match perm.len() < batch.len() {
                true => (
                    batch.gather(&perm),
                    (0..perm.len() as u32).collect(),
                    bounds,
                ),
                false => (batch, perm, bounds),
            }
        })
        .collect();
    let mut offsets = Vec::with_capacity(inputs.len());
    let mut at = 0;
    for (batch, _, _) in &inputs {
        offsets.push(at as u32);
        at += batch.len();
    }
    let mut perm = Vec::with_capacity(at);
    let mut bounds = Vec::with_capacity(runs + 1);
    bounds.push(0);
    let mut order = Vec::with_capacity(inputs.len());
    for r in 0..runs {
        merge_order(inputs.iter().map(|(_, _, b)| b[r + 1] - b[r]), &mut order);
        for &(side, _) in &order {
            let ((_, input_perm, input_bounds), offset) = (&inputs[side], offsets[side]);
            let run = &input_perm[input_bounds[r]..input_bounds[r + 1]];
            perm.extend(run.iter().map(|&i| i + offset));
        }
        bounds.push(perm.len());
    }
    let mut batches = inputs.into_iter().map(|(batch, _, _)| batch);
    let mut batch = batches.next().expect("checked non-empty");
    for b in batches {
        batch.append(b)?;
    }
    Ok(BatchRuns {
        batch,
        perm: Some(perm),
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

    /// One dense run of each input, as the top level holds them.
    fn union(inputs: Vec<EventBatch>) -> Result<EventBatch> {
        let out = union_walk(inputs.into_iter().map(BatchRuns::one).collect())?;
        assert!(out.perm.is_none(), "one run is merged, not permuted");
        Ok(out.into_ordered())
    }

    #[test]
    fn merges_event_bags() {
        let out = union(vec![batch(&[1]), batch(&[2]), batch(&[3])]).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn one_run_merges_onto_the_larger_side() {
        // The larger side goes first, the smaller appended to it, as
        // `EventBatch::merge` leaves them.
        let out = union(vec![batch(&[1]), batch(&[2, 3]), batch(&[4])]).unwrap();
        assert_eq!(out.vt(), &[2, 3, 1, 4]);
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
            let perm = Some((0..n).rev().collect());
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
        // Each run's slices merged one after another, as a group at a
        // time would see them.
        let per_run = |r: usize| {
            let mut runs = [&a, &b, &c].into_iter().map(|s| s.run(r));
            let mut out = runs.next().unwrap();
            runs.for_each(|run| out.merge(run).unwrap());
            out.into_stream()
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
