//! Union: bag merge of same-schema streams (paper §II-A.2).

use crate::error::{Result, TemporalError};
use crate::exec::{ExecStats, StreamData};
use crate::operators::group_apply::{BatchRuns, Runs, RunsData};
use crate::stream::EventStream;

/// Merge all inputs into one stream, consuming them, in the order
/// [`EventStream::merge`] leaves them in. Batches merge as batches — the
/// smaller side's columns are appended to the larger's, which moves when
/// uniquely owned — and row streams as rows; where the two layouts meet,
/// or two batches hold one column in two storage variants (ill-typed
/// projections, counted in `row_fallbacks`), the merge carries on over rows
/// and `stats` counts the transposed events. Schemas must be identical.
pub fn union(inputs: Vec<StreamData>, stats: &mut ExecStats) -> Result<StreamData> {
    let mut it = inputs.into_iter();
    let mut out = it
        .next()
        .ok_or_else(|| TemporalError::Plan("union of zero streams".into()))?;
    for next in it {
        out = match (out, next) {
            // (A schema mismatch is `merge`'s error to report.)
            (StreamData::Batch(mut a), StreamData::Batch(b))
                if a.schema() != b.schema() || a.payload().can_append(b.payload()) =>
            {
                a.merge(b)?;
                StreamData::Batch(a)
            }
            (a, b) => {
                if matches!((&a, &b), (StreamData::Batch(_), StreamData::Batch(_))) {
                    stats.row_fallbacks += 1;
                }
                let mut a = stats.transpose(a);
                a.merge(stats.transpose(b))?;
                StreamData::Rows(a)
            }
        };
    }
    Ok(out)
}

/// [`union`] of every run at once, in the layout the inputs share: batch
/// runs merge as batch runs ([`union_batch_runs`]). Where the two layouts
/// meet, or two batches hold one column in two storage variants (counted
/// in `row_fallbacks`, as [`union`] counts it), the batch runs are
/// transposed and merge as rows.
pub(crate) fn union_walk(inputs: Vec<RunsData>, stats: &mut ExecStats) -> Result<RunsData> {
    let batches: Vec<&BatchRuns> = (inputs.iter())
        .filter_map(|i| match i {
            RunsData::Batch(b) => Some(b),
            RunsData::Rows(_) => None,
        })
        .collect();
    if batches.len() == inputs.len() {
        let payloads = || batches.iter().map(|b| b.batch.payload());
        if payloads().all(|a| payloads().all(|b| a.can_append(b))) {
            let batches = inputs.into_iter().map(|i| match i {
                RunsData::Batch(b) => b,
                RunsData::Rows(_) => unreachable!("every input is a batch"),
            });
            return Ok(RunsData::Batch(union_batch_runs(batches.collect())?));
        }
        stats.row_fallbacks += 1;
    }
    let rows = inputs.into_iter().map(|i| i.into_rows(stats)).collect();
    Ok(RunsData::Rows(union_runs(rows)?))
}

/// Run `r` of each side in the order [`EventStream::merge`] would leave
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

/// [`union_runs`] over batch runs: one batch holding every input's events
/// and one permutation interleaving their runs. An input with dropped rows
/// gives up only its live ones (one gather); an input without is appended
/// as it stands. Schemas must be identical.
fn union_batch_runs(inputs: Vec<BatchRuns>) -> Result<BatchRuns> {
    let first = inputs
        .first()
        .ok_or_else(|| TemporalError::Plan("union of zero streams".into()))?;
    let runs = first.bounds.len() - 1;
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

/// [`union`] of every run at once: output run `r` is the inputs' runs `r`,
/// merged in the order [`EventStream::merge`] would leave them in
/// ([`merge_order`]), so a group's events come out exactly as a per-group
/// `union` orders them.
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
        merge_order(in_bounds.iter().map(|b| b[r + 1] - b[r]), &mut order);
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
        let inputs = [a, b, c].map(StreamData::Rows).to_vec();
        let out = union(inputs, &mut ExecStats::default()).unwrap();
        assert_eq!(out.into_stream().len(), 3);
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
                        StreamData::Rows(EventStream::new(schema(), events))
                    })
                    .collect(),
                &mut ExecStats::default(),
            )
            .unwrap()
            .into_stream()
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
    fn batch_runs_merge_as_the_row_runs_do() {
        use crate::batch::EventBatch;
        // Each side's runs held by a batch in reverse storage order, and
        // the second side with rows no run names (dropped by a filter).
        let side = |runs: &[&[i64]], dropped: &[i64]| {
            let mut bounds = vec![0];
            let mut events = Vec::new();
            for run in runs {
                events.extend(run.iter().map(|&x| Event::point(x, row![x])));
                bounds.push(events.len());
            }
            let rows = Runs {
                stream: EventStream::new(schema(), events.clone()),
                bounds: bounds.clone(),
            };
            let n = events.len() as u32;
            events.reverse();
            events.extend(dropped.iter().map(|&x| Event::point(x, row![x])));
            let batch = EventBatch::from_events(schema(), &events).unwrap();
            let perm = (0..n).rev().collect();
            (
                rows,
                BatchRuns {
                    batch,
                    perm,
                    bounds,
                },
            )
        };
        let (a, a_batch) = side(&[&[1], &[10, 11], &[], &[30]], &[]);
        let (b, b_batch) = side(&[&[2, 3], &[12, 13], &[20], &[31]], &[99, 98]);
        let (c, c_batch) = side(&[&[4], &[], &[21, 22], &[32, 33, 34]], &[97]);
        let want = union_runs(vec![a, b, c]).unwrap();
        let mut stats = ExecStats::default();
        let inputs = [a_batch, b_batch, c_batch].map(RunsData::Batch).to_vec();
        let RunsData::Batch(out) = union_walk(inputs, &mut stats).unwrap() else {
            panic!("batch runs merge as batch runs")
        };
        assert_eq!(out.bounds, want.bounds);
        assert_eq!(out.batch.len(), 16, "the dropped rows are left behind");
        assert_eq!(out.into_rows(&mut stats).stream, want.stream);
        assert_eq!((stats.row_fallbacks, stats.transposed_events), (0, 16));
    }

    #[test]
    fn batches_storing_a_column_in_two_variants_finish_on_rows() {
        use crate::batch::EventBatch;
        use relation::column::{Column, ColumnData};
        use relation::ColumnBatch;
        // What an ill-typed projection leaves: `X` declared Long, stored Int.
        let ints = Column::new(ColumnData::Int(vec![7, 8]), None);
        let ints = EventBatch::new(
            vec![1, 2],
            vec![2, 3],
            ColumnBatch::new(schema(), vec![ints], 2),
        );
        let longs = EventStream::new(schema(), vec![Event::point(3, row![3i64])]);
        let longs = EventBatch::from_stream(&longs).unwrap();
        let mut want = ints.clone().into_stream();
        want.merge(longs.clone().into_stream()).unwrap();
        let mut stats = ExecStats::default();
        let inputs = vec![StreamData::Batch(ints), StreamData::Batch(longs)];
        let out = union(inputs, &mut stats).unwrap();
        assert!(matches!(out, StreamData::Rows(_)));
        assert_eq!(out.into_stream(), want);
        assert_eq!((stats.row_fallbacks, stats.transposed_events), (1, 3));
    }

    #[test]
    fn schema_mismatch_rejected() {
        let a = EventStream::empty(schema());
        let b = EventStream::empty(Schema::new(vec![Field::new("Y", ColumnType::Long)]));
        let inputs = [a, b].map(StreamData::Rows).to_vec();
        assert!(union(inputs, &mut ExecStats::default()).is_err());
    }
}
