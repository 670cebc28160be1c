//! AlterLifetime: windowing and lifetime adjustment (paper §II-A.2, Fig 3).

use crate::error::Result;
use crate::operators::group_apply::{Cut, Runs};
use crate::plan::LifetimeOp;
use crate::stream::EventStream;
use crate::time::{ceil_to_grid, Lifetime};

/// The lifetime transformation for one event; `None` drops the event.
/// Shared by the in-place operator below and the fused batch kernel, so
/// both have identical window semantics by construction.
pub(crate) fn transform(lt: Lifetime, op: &LifetimeOp) -> Option<Lifetime> {
    Some(match op {
        // Sliding window: the event influences output for `w` ticks after
        // its timestamp.
        LifetimeOp::Window(w) => Lifetime::new(lt.start, lt.start + w),
        // Hopping window: quantize so snapshots only change at grid points.
        // An event at `t` must be active at exactly the grid instants `T`
        // with `T - width < t <= T`; the smallest is `ceil(t / hop) * hop`
        // and the end is the first grid point at or after `t + width`.
        LifetimeOp::Hop { hop, width } => {
            let start = ceil_to_grid(lt.start, *hop);
            let end = ceil_to_grid(lt.start + width, *hop);
            if start >= end {
                // Can only happen for width < hop remainders; the event
                // falls between report points and is dropped.
                return None;
            }
            Lifetime::new(start, end)
        }
        LifetimeOp::Shift(d) => Lifetime::new(lt.start + d, lt.end + d),
        LifetimeOp::ExtendBack(d) => Lifetime::new(lt.start - d, lt.end),
        LifetimeOp::ToPoint => Lifetime::point(lt.start),
    })
}

/// Apply a lifetime transformation to every event. A uniquely-owned input
/// has its lifetimes patched in place (no payload copies); shared storage
/// is rebuilt, cloning only the surviving events.
pub fn alter_lifetime(input: EventStream, op: &LifetimeOp) -> Result<EventStream> {
    Ok(alter_lifetime_runs(Runs::one(input), op)?.stream)
}

/// [`alter_lifetime`] over every run at once; a hopping window's drops
/// compact the run bounds.
pub(crate) fn alter_lifetime_runs(input: Runs, op: &LifetimeOp) -> Result<Runs> {
    // `transform` cannot fail, so no error is ever recorded.
    input.retain_map(&mut Cut::none(), |e| Ok(transform(e.lifetime, op)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use relation::schema::{ColumnType, Field};
    use relation::{row, Schema};

    fn stream(times: &[i64]) -> EventStream {
        let schema = Schema::new(vec![Field::new("X", ColumnType::Long)]);
        EventStream::new(
            schema,
            times.iter().map(|&t| Event::point(t, row![t])).collect(),
        )
    }

    #[test]
    fn sliding_window_sets_re() {
        // Paper Fig 3: window w=3 makes a reading at t active on [t, t+3).
        let out = alter_lifetime(stream(&[2, 4]), &LifetimeOp::Window(3)).unwrap();
        assert_eq!(out.events()[0].lifetime, Lifetime::new(2, 5));
        assert_eq!(out.events()[1].lifetime, Lifetime::new(4, 7));
    }

    #[test]
    fn hopping_window_quantizes_to_grid() {
        // hop=4, width=6: event at t=1 is active at the single grid report
        // T=4 (since 4-6 < 1 <= 4 but 8-6 > 1): lifetime [4, 8).
        let out = alter_lifetime(stream(&[1]), &LifetimeOp::Hop { hop: 4, width: 6 }).unwrap();
        assert_eq!(out.events()[0].lifetime, Lifetime::new(4, 8));
        // Event exactly on the grid is active at T=4 and T=8: [4, 12).
        let out = alter_lifetime(stream(&[4]), &LifetimeOp::Hop { hop: 4, width: 6 }).unwrap();
        assert_eq!(out.events()[0].lifetime, Lifetime::new(4, 12));
    }

    #[test]
    fn hopping_window_drops_between_report_points() {
        // hop=10, width=2: an event at t=3 influences no grid report
        // (next report T=10, but 10-2=8 > 3) and must vanish.
        let out = alter_lifetime(stream(&[3]), &LifetimeOp::Hop { hop: 10, width: 2 }).unwrap();
        assert!(out.is_empty());
        // t=9 influences T=10: [10, 20)? end = ceil(9+2)=20? No: ceil(11,10)=20.
        let out = alter_lifetime(stream(&[9]), &LifetimeOp::Hop { hop: 10, width: 2 }).unwrap();
        assert_eq!(out.events()[0].lifetime, Lifetime::new(10, 20));
    }

    #[test]
    fn shift_and_extend_back() {
        let out = alter_lifetime(stream(&[10]), &LifetimeOp::Shift(5)).unwrap();
        assert_eq!(out.events()[0].lifetime, Lifetime::new(15, 16));
        // GenTrainData (Fig 12): clicks extended back d=5 cover [t-5, t+1).
        let out = alter_lifetime(stream(&[10]), &LifetimeOp::ExtendBack(5)).unwrap();
        assert_eq!(out.events()[0].lifetime, Lifetime::new(5, 11));
    }

    #[test]
    fn to_point_collapses_intervals() {
        let schema = Schema::new(vec![Field::new("X", ColumnType::Long)]);
        let input = EventStream::new(schema, vec![Event::interval(3, 99, row![0i64])]);
        let out = alter_lifetime(input, &LifetimeOp::ToPoint).unwrap();
        assert_eq!(out.events()[0].lifetime, Lifetime::point(3));
    }

    #[test]
    fn shared_input_is_left_untouched() {
        // Copy-on-write: altering a stream another consumer still holds
        // must not mutate the shared storage.
        let original = stream(&[1, 2]);
        let shared = original.clone();
        let out = alter_lifetime(shared, &LifetimeOp::Shift(100)).unwrap();
        assert_eq!(original.events()[0].lifetime, Lifetime::point(1));
        assert_eq!(out.events()[0].lifetime, Lifetime::new(101, 102));
    }
}
