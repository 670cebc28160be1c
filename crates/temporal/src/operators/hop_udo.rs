//! HopUdo: user-defined operator over a hopping window (paper §II-A.2 and
//! §IV-B.4).
//!
//! At every grid instant `T` (multiple of `hop`) with at least one input
//! event in `(T - width, T]`, the UDO is invoked on those events; its output
//! becomes events valid on `[T, T + hop)` — i.e. until the next
//! recomputation. This is the operator the BT solution uses to retrain the
//! logistic-regression model periodically and keep the latest model resident
//! in a join synopsis.
//!
//! The input is ordered once, by a stable permutation on `LE`, so every
//! window is a contiguous slice of it: each window is gathered once and
//! handed to the UDO as a batch, and each batch the UDO returns is stamped
//! and appended to the output as it is.

use crate::batch::EventBatch;
use crate::error::{Result, TemporalError};
use crate::time::{checked_ceil_to_grid, Duration, Time};
use crate::udo::UdoRef;

/// Apply `udo` to each hopping window of `input`. A batch the UDO returns
/// whose schema is not its declared output schema is an input error naming
/// the UDO. A grid instant or an output lifetime past the range of time is
/// a [`TemporalError::TimeOverflow`] naming the latest event.
pub fn hop_udo(
    input: &EventBatch,
    hop: Duration,
    width: Duration,
    udo: &UdoRef,
) -> Result<EventBatch> {
    let out_schema = udo.output_schema(input.schema())?;
    let mut out = EventBatch::empty(out_schema.clone());
    // Order by LE once (stable: ties keep input order); a two-pointer
    // window slides across the grid instants over the sorted starts.
    let (vt, ve) = (input.vt(), input.ve());
    let mut order: Vec<u32> = (0..input.len() as u32).collect();
    order.sort_by_key(|&i| vt[i as usize]);
    let starts: Vec<Time> = order.iter().map(|&i| vt[i as usize]).collect();
    let Some(latest) = order.last().map(|&i| i as usize) else {
        return Ok(out);
    };
    let overflow = || {
        TemporalError::TimeOverflow(format!(
            "HopUdo `{}` h={hop} w={width} moves [{}, {}) past the range of time",
            udo.name(),
            vt[latest],
            ve[latest]
        ))
    };
    let end = vt[latest].checked_add(width).ok_or_else(overflow)?;
    let mut t = checked_ceil_to_grid(starts[0], hop).ok_or_else(overflow)?;
    let mut lo = 0usize; // first event with LE > t - width
    let mut hi = 0usize; // first event with LE > t
    while t < end {
        // Before the first instant, `t - width` excludes nothing.
        if let Some(floor) = t.checked_sub(width) {
            while lo < starts.len() && starts[lo] <= floor {
                lo += 1;
            }
        }
        while hi < starts.len() && starts[hi] <= t {
            hi += 1;
        }
        if lo < hi {
            let until = t.checked_add(hop).ok_or_else(overflow)?;
            let payload = udo.apply(t, &input.gather(&order[lo..hi]))?;
            if payload.schema() != &out_schema {
                return Err(TemporalError::Input(format!(
                    "UDO `{}` returned a batch of schema {}, its output schema is {out_schema}",
                    udo.name(),
                    payload.schema()
                )));
            }
            let n = payload.len();
            out.append(EventBatch::new(vec![t; n], vec![until; n], payload))?;
        }
        match t.checked_add(hop) {
            Some(next) => t = next,
            None => break,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::stream::EventStream;
    use crate::udo::{WindowCountUdo, WindowUdo};
    use relation::schema::{ColumnType, Field};
    use relation::{row, Column, ColumnBatch, ColumnData, Schema};
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
        // width=10, hop=10: an event at exactly T-width is excluded, so
        // T=10 -> {10} and T=20 -> {20}; (20, 30] holds nothing.
        let out = hop_udo(&stream(&[10, 20]), 10, 10, &udo)
            .unwrap()
            .into_stream();
        let counts: Vec<i64> = out
            .events()
            .iter()
            .map(|e| e.payload.get(1).as_long().unwrap())
            .collect();
        assert_eq!(counts, vec![1, 1]);
    }

    #[test]
    fn empty_input_gives_empty_output_with_schema() {
        let udo: UdoRef = Arc::new(WindowCountUdo);
        let out = hop_udo(&stream(&[]), 10, 10, &udo).unwrap().into_stream();
        assert!(out.is_empty());
        assert_eq!(out.schema().names(), vec!["WindowEnd", "Events"]);
    }

    /// Hands its window back as it came, or a batch of `shape`'s schema.
    #[derive(Debug)]
    struct Echo {
        shape: Option<fn() -> ColumnBatch>,
    }

    impl WindowUdo for Echo {
        fn name(&self) -> &str {
            "echo"
        }

        fn output_schema(&self, input: &Schema) -> Result<Schema> {
            Ok(input.clone())
        }

        fn apply(&self, _window_end: Time, window: &EventBatch) -> Result<ColumnBatch> {
            Ok(match self.shape {
                Some(shape) => shape(),
                None => window.payload().clone(),
            })
        }
    }

    #[test]
    fn a_window_is_input_order_stably_sorted_by_le() {
        // Events out of time order, with ties at 3: the window at T=10
        // holds them by LE, ties in input order, each stamped [10, 20).
        let schema = Schema::new(vec![Field::new("X", ColumnType::Long)]);
        let events: Vec<Event> = [(7, 0i64), (3, 1), (5, 2), (3, 3)]
            .into_iter()
            .map(|(t, x)| Event::point(t, row![x]))
            .collect();
        let input = EventBatch::from_events(schema, &events).unwrap();
        let udo: UdoRef = Arc::new(Echo { shape: None });
        let out = hop_udo(&input, 10, 10, &udo).unwrap();
        assert_eq!((out.vt(), out.ve()), (&[10; 4][..], &[20; 4][..]));
        assert_eq!(
            out.payload().to_rows(),
            vec![row![1i64], row![3i64], row![2i64], row![0i64]]
        );
    }

    #[test]
    fn an_output_of_another_schema_is_an_error_naming_the_udo() {
        fn wrong_type() -> ColumnBatch {
            let strs = relation::StrCodes::from_strs(["a"]);
            ColumnBatch::new(
                Schema::new(vec![Field::new("X", ColumnType::Str)]),
                vec![Column::new(ColumnData::Str(strs), None)],
                1,
            )
        }
        fn missing_column() -> ColumnBatch {
            ColumnBatch::new(Schema::new(vec![]), vec![], 1)
        }
        for (shape, got) in [
            (wrong_type as fn() -> ColumnBatch, "(X:str)"),
            (missing_column, "()"),
        ] {
            let udo: UdoRef = Arc::new(Echo { shape: Some(shape) });
            let err = hop_udo(&stream(&[5]), 10, 10, &udo).unwrap_err();
            assert_eq!(
                err,
                TemporalError::Input(format!(
                    "UDO `echo` returned a batch of schema {got}, its output schema is (X:long)"
                ))
            );
        }
    }

    #[test]
    fn a_grid_walk_past_the_last_instant_is_an_error() {
        // An event at MAX - 5 with h=10 w=20 (its reach and its first
        // report instant are past MAX), a first report instant past MAX, a
        // report at the last grid instant (its end is past MAX), and the
        // reach of a wide window.
        let udo: UdoRef = Arc::new(WindowCountUdo);
        for (t, hop, width) in [
            (Time::MAX - 5, 10, 20),
            (Time::MAX - 3, 10, 1),
            (Time::MAX - 7, 10, 2),
            (Time::MAX - 30, 10, 40),
        ] {
            let want = TemporalError::TimeOverflow(format!(
                "HopUdo `window_count` h={hop} w={width} moves [{t}, {}) past the range of time",
                t + 1
            ));
            assert_eq!(hop_udo(&stream(&[t]), hop, width, &udo).unwrap_err(), want);
        }
        // A window that starts before the first instant excludes nothing.
        let out = hop_udo(&stream(&[Time::MIN]), 10, 20, &udo).unwrap();
        assert_eq!(out.len(), 2);
    }
}
