//! SpreadGrid: re-expand grid-aligned intervals into per-cell point events.
//!
//! The aggregate sweep coalesces adjacent equal-valued grid cells of a
//! `Hop{g, g}` factor window into one interval event. SpreadGrid inverts
//! that coalescing: an event with lifetime `[a, b)` becomes one point event
//! at every multiple of `grid` in `[a, b)`, payload unchanged, so a
//! downstream `Hop{h, w}` (with `g | h`, `g | w`) re-windows each cell
//! exactly as it would the raw events that produced it (see
//! `plan::factor_windows`).

use crate::batch::EventBatch;
use crate::error::Result;
use crate::time::{ceil_to_grid, Duration, TICK};

/// Expand every event into point events at the multiples of `grid` covered
/// by its lifetime. Input order is preserved; within one input event the
/// points are emitted in ascending time order. The payload columns are
/// gathered once, by the list of each point's event.
pub fn spread_grid(input: &EventBatch, grid: Duration) -> Result<EventBatch> {
    let (mut idx, mut vt) = (
        Vec::with_capacity(input.len()),
        Vec::with_capacity(input.len()),
    );
    for (i, (&start, &end)) in input.vt().iter().zip(input.ve()).enumerate() {
        let mut t = ceil_to_grid(start, grid);
        while t < end {
            idx.push(i as u32);
            vt.push(t);
            t += grid;
        }
    }
    let ve = vt.iter().map(|t| t + TICK).collect();
    Ok(EventBatch::new(vt, ve, input.payload().gather(&idx)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::stream::EventStream;
    use crate::time::Lifetime;
    use relation::schema::{ColumnType, Field};
    use relation::{row, Schema};

    fn stream(lifetimes: &[(i64, i64)]) -> EventBatch {
        let schema = Schema::new(vec![Field::new("X", ColumnType::Long)]);
        EventBatch::from_stream(&EventStream::new(
            schema,
            lifetimes
                .iter()
                .enumerate()
                .map(|(i, &(s, e))| Event::new(Lifetime::new(s, e), row![i as i64]))
                .collect(),
        ))
        .unwrap()
    }

    #[test]
    fn aligned_interval_expands_to_every_cell() {
        // [4, 16) on grid 4 covers cells 4, 8, 12.
        let out = spread_grid(&stream(&[(4, 16)]), 4).unwrap().into_stream();
        let times: Vec<i64> = out.events().iter().map(|e| e.lifetime.start).collect();
        assert_eq!(times, vec![4, 8, 12]);
        assert!(out.events().iter().all(|e| e.lifetime.is_point()));
        assert!(out.events().iter().all(|e| e.payload == row![0i64]));
    }

    #[test]
    fn unaligned_start_snaps_up_and_end_is_exclusive() {
        // [5, 13) on grid 4: multiples inside are 8 and 12; 16 > 13 excluded.
        let out = spread_grid(&stream(&[(5, 13)]), 4).unwrap().into_stream();
        let times: Vec<i64> = out.events().iter().map(|e| e.lifetime.start).collect();
        assert_eq!(times, vec![8, 12]);
        // [5, 8) contains no multiple of 4 at all.
        let out = spread_grid(&stream(&[(5, 8)]), 4).unwrap().into_stream();
        assert!(out.is_empty());
    }

    #[test]
    fn single_cell_round_trips() {
        // A one-cell factor output [8, 12) on grid 4 is exactly one point.
        let out = spread_grid(&stream(&[(8, 12)]), 4).unwrap().into_stream();
        assert_eq!(out.events().len(), 1);
        assert_eq!(out.events()[0].lifetime, Lifetime::point(8));
    }

    #[test]
    fn negative_times_use_euclidean_grid() {
        // [-9, 1) on grid 4: multiples are -8, -4, 0.
        let out = spread_grid(&stream(&[(-9, 1)]), 4).unwrap().into_stream();
        let times: Vec<i64> = out.events().iter().map(|e| e.lifetime.start).collect();
        assert_eq!(times, vec![-8, -4, 0]);
    }
}
