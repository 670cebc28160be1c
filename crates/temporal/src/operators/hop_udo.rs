//! HopUdo: user-defined operator over a hopping window (paper §II-A.2 and
//! §IV-B.4).
//!
//! At every grid instant `T` (multiple of `hop`) with at least one input
//! event in `(T - width, T]`, the UDO is invoked on those events; its output
//! rows become events valid on `[T, T + hop)` — i.e. until the next
//! recomputation. This is the operator the BT solution uses to retrain the
//! logistic-regression model periodically and keep the latest model resident
//! in a join synopsis.

use crate::batch::EventBatch;
use crate::error::Result;
use crate::event::Event;
use crate::time::{ceil_to_grid, Duration, Lifetime};
use crate::udo::UdoRef;

/// Apply `udo` to each hopping window of `input`. The UDO reads events, so
/// the input is laid out as events sorted by timestamp (stable), and its
/// output rows are checked against its declared schema as they become a
/// batch: a row that does not fit is an error naming the UDO.
pub fn hop_udo(
    input: &EventBatch,
    hop: Duration,
    width: Duration,
    udo: &UdoRef,
) -> Result<EventBatch> {
    let in_schema = input.schema().clone();
    let out_schema = udo.output_schema(&in_schema)?;
    if input.is_empty() {
        return Ok(EventBatch::empty(out_schema));
    }

    // Sort events by timestamp once; slide a two-pointer window across grid
    // instants.
    let mut events: Vec<Event> = (0..input.len())
        .map(|i| Event::new(input.lifetime(i), input.payload_row(i)))
        .collect();
    events.sort_by_key(|e| e.lifetime.start);
    let min_t = events
        .first()
        .map(|e| e.start())
        .expect("input is not empty");
    let max_t = events
        .last()
        .map(|e| e.start())
        .expect("input is not empty");

    let mut out = Vec::new();
    let mut lo = 0usize; // first event with LE > t - width
    let mut hi = 0usize; // first event with LE > t
    let mut t = ceil_to_grid(min_t, hop);
    while t < max_t + width {
        while lo < events.len() && events[lo].start() <= t - width {
            lo += 1;
        }
        while hi < events.len() && events[hi].start() <= t {
            hi += 1;
        }
        if lo < hi {
            for row in udo.apply(t, &in_schema, &events[lo..hi])? {
                out.push(Event::new(Lifetime::new(t, t + hop), row));
            }
        }
        t += hop;
    }
    EventBatch::lay_out(&format!("UDO `{}`", udo.name()), out_schema, &out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::EventStream;
    use crate::udo::WindowCountUdo;
    use relation::schema::{ColumnType, Field};
    use relation::{row, Schema};
    use std::sync::Arc;

    fn stream(times: &[i64]) -> EventBatch {
        let schema = Schema::new(vec![Field::new("X", ColumnType::Long)]);
        EventBatch::from_stream(&EventStream::new(
            schema,
            times.iter().map(|&t| Event::point(t, row![t])).collect(),
        ))
        .unwrap()
    }

    #[test]
    fn udo_runs_once_per_nonempty_window() {
        let udo: UdoRef = Arc::new(WindowCountUdo);
        // hop=10, width=20; events at 5, 12, 31.
        let out = hop_udo(&stream(&[5, 12, 31]), 10, 20, &udo)
            .unwrap()
            .into_stream();
        // Windows: T=10 -> {5}, T=20 -> {5,12}, T=30 -> {12}, T=40 -> {31},
        // T=50 -> {31}.
        let got: Vec<(i64, i64, i64)> = out
            .events()
            .iter()
            .map(|e| {
                (
                    e.start(),
                    e.payload.get(0).as_long().unwrap(),
                    e.payload.get(1).as_long().unwrap(),
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                (10, 10, 1),
                (20, 20, 2),
                (30, 30, 1),
                (40, 40, 1),
                (50, 50, 1)
            ]
        );
        // Each output is valid for one hop.
        assert!(out.events().iter().all(|e| e.lifetime.duration() == 10));
    }

    #[test]
    fn window_boundaries_are_half_open_left() {
        let udo: UdoRef = Arc::new(WindowCountUdo);
        // width=10, hop=10: event at exactly T-width is excluded.
        let out = hop_udo(&stream(&[10, 20]), 10, 10, &udo)
            .unwrap()
            .into_stream();
        let counts: Vec<i64> = out
            .events()
            .iter()
            .map(|e| e.payload.get(1).as_long().unwrap())
            .collect();
        // T=10 -> {10}; T=20 -> {20} (10 excluded since 10 <= 20-10);
        // T=30 -> {} is skipped... wait: (20, 30] contains nothing? No:
        // width 10 at T=30 covers (20, 30], excluding 20. So windows are
        // T=10 and T=20 only.
        assert_eq!(counts, vec![1, 1]);
    }

    #[test]
    fn empty_input_gives_empty_output_with_schema() {
        let udo: UdoRef = Arc::new(WindowCountUdo);
        let out = hop_udo(&stream(&[]), 10, 10, &udo).unwrap().into_stream();
        assert!(out.is_empty());
        assert_eq!(out.schema().names(), vec!["WindowEnd", "Events"]);
    }
}
