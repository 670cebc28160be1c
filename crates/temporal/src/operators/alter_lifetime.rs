//! AlterLifetime: windowing and lifetime adjustment (paper §II-A.2, Fig 3).

use crate::error::{Result, TemporalError};
use crate::operators::group_apply::{Cut, Runs};
use crate::plan::{lifetime_desc, LifetimeOp};
use crate::stream::EventStream;
use crate::time::{checked_ceil_to_grid, Lifetime};

/// The lifetime transformation for one event; `Ok(None)` drops the event.
/// Shared by the in-place operator below and the fused batch kernel, so
/// both have identical window semantics — and fail alike — by
/// construction. An endpoint the operator would move past the range of
/// `Time` is a [`TemporalError::TimeOverflow`], never a wrapped time.
#[inline]
pub(crate) fn transform(lt: Lifetime, op: &LifetimeOp) -> Result<Option<Lifetime>> {
    let overflow = || {
        TemporalError::TimeOverflow(format!(
            "{} moves [{}, {}) past the range of time",
            lifetime_desc(op),
            lt.start,
            lt.end
        ))
    };
    let checked = |t: Option<i64>| t.ok_or_else(overflow);
    Ok(Some(match op {
        // Sliding window: the event influences output for `w` ticks after
        // its timestamp.
        LifetimeOp::Window(w) => Lifetime::new(lt.start, checked(lt.start.checked_add(*w))?),
        // Hopping window: quantize so snapshots only change at grid points.
        // An event at `t` must be active at exactly the grid instants `T`
        // with `T - width < t <= T`; the smallest is `ceil(t / hop) * hop`
        // and the end is the first grid point at or after `t + width`.
        LifetimeOp::Hop { hop, width } => {
            let start = checked(checked_ceil_to_grid(lt.start, *hop))?;
            let reach = checked(lt.start.checked_add(*width))?;
            let end = checked(checked_ceil_to_grid(reach, *hop))?;
            if start >= end {
                // Can only happen for width < hop remainders; the event
                // falls between report points and is dropped.
                return Ok(None);
            }
            Lifetime::new(start, end)
        }
        LifetimeOp::Shift(d) => Lifetime::new(
            checked(lt.start.checked_add(*d))?,
            checked(lt.end.checked_add(*d))?,
        ),
        LifetimeOp::ExtendBack(d) => Lifetime::new(checked(lt.start.checked_sub(*d))?, lt.end),
        LifetimeOp::ToPoint => Lifetime::point(lt.start),
    }))
}

/// Apply a lifetime transformation to every event. A uniquely-owned input
/// has its lifetimes patched in place (no payload copies); shared storage
/// is rebuilt, cloning only the surviving events.
pub fn alter_lifetime(input: EventStream, op: &LifetimeOp) -> Result<EventStream> {
    Ok(alter_lifetime_runs(Runs::one(input), op, &mut Cut::none())?.stream)
}

/// [`alter_lifetime`] over every run at once; a hopping window's drops
/// compact the run bounds, and an overflow is recorded in `cut` like any
/// other failing run.
pub(crate) fn alter_lifetime_runs(input: Runs, op: &LifetimeOp, cut: &mut Cut) -> Result<Runs> {
    input.retain_map(cut, |e| transform(e.lifetime, op))
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

    /// `op` over one event with lifetime `lt`, by the row operator and by
    /// the fused batch kernel: the two agree, event for event or error for
    /// error, and this returns what they agree on.
    fn both_layouts(lt: Lifetime, op: LifetimeOp) -> Result<Vec<Lifetime>> {
        use crate::batch::EventBatch;
        use crate::operators::fused_fragment_batch;
        use crate::plan::FusedStep;
        let schema = Schema::new(vec![Field::new("X", ColumnType::Long)]);
        let input = EventStream::new(schema, vec![Event::new(lt, row![0i64])]);
        let batch = EventBatch::from_stream(&input).unwrap();
        let steps = [FusedStep::AlterLifetime { op: op.clone() }];
        let on_batch = fused_fragment_batch(batch, &steps).map(|d| d.into_stream());
        let on_rows = alter_lifetime(input, &op);
        assert_eq!(on_rows, on_batch, "{op:?} over {lt:?}");
        on_rows.map(|s| s.events().iter().map(|e| e.lifetime).collect())
    }

    const MAX: i64 = i64::MAX;
    const MIN: i64 = i64::MIN;

    /// The named error `op` raises over `lt`.
    fn overflow(op: &str, lt: Lifetime) -> Result<Vec<Lifetime>> {
        Err(TemporalError::TimeOverflow(format!(
            "{op} moves [{}, {}) past the range of time",
            lt.start, lt.end
        )))
    }

    #[test]
    fn a_window_past_the_last_instant_is_an_error() {
        let late = Lifetime::new(MAX - 5, MAX);
        assert_eq!(
            both_layouts(late, LifetimeOp::Window(10)),
            overflow("Window w=10", late)
        );
        assert_eq!(
            both_layouts(late, LifetimeOp::Window(5)),
            Ok(vec![Lifetime::new(MAX - 5, MAX)])
        );
        let early = Lifetime::new(MIN, MIN + 5);
        assert_eq!(
            both_layouts(early, LifetimeOp::Window(10)),
            Ok(vec![Lifetime::new(MIN, MIN + 10)])
        );
    }

    #[test]
    fn a_hop_past_the_last_instant_is_an_error() {
        // 2^63 - 1 is a multiple of 7: the first report point is `MAX`, the
        // window's reach is past it.
        let late = Lifetime::new(MAX - 5, MAX);
        let op = LifetimeOp::Hop { hop: 7, width: 100 };
        assert_eq!(
            both_layouts(late, op),
            overflow("HopWindow h=7 w=100", late)
        );
        // 2^63 - 1 is 3 modulo 4: the first report point is past `MAX`.
        let last = Lifetime::new(MAX - 1, MAX);
        let op = LifetimeOp::Hop { hop: 4, width: 1 };
        assert_eq!(both_layouts(last, op), overflow("HopWindow h=4 w=1", last));
        // -2^63 is 6 modulo 7.
        let early = Lifetime::new(MIN, MIN + 1);
        assert_eq!(
            both_layouts(early, LifetimeOp::Hop { hop: 7, width: 7 }),
            Ok(vec![Lifetime::new(MIN + 1, MIN + 8)])
        );
    }

    #[test]
    fn a_shift_past_either_end_is_an_error() {
        let late = Lifetime::new(MAX - 5, MAX);
        assert_eq!(
            both_layouts(late, LifetimeOp::Shift(10)),
            overflow("Shift 10", late)
        );
        assert_eq!(
            both_layouts(late, LifetimeOp::Shift(-10)),
            Ok(vec![Lifetime::new(MAX - 15, MAX - 10)])
        );
        let early = Lifetime::new(MIN, MIN + 5);
        assert_eq!(
            both_layouts(early, LifetimeOp::Shift(-10)),
            overflow("Shift -10", early)
        );
        assert_eq!(
            both_layouts(early, LifetimeOp::Shift(10)),
            Ok(vec![Lifetime::new(MIN + 10, MIN + 15)])
        );
    }

    #[test]
    fn an_extension_before_the_first_instant_is_an_error() {
        let early = Lifetime::new(MIN + 5, MIN + 6);
        assert_eq!(
            both_layouts(early, LifetimeOp::ExtendBack(10)),
            overflow("ExtendBack 10", early)
        );
        let late = Lifetime::new(MAX - 5, MAX);
        assert_eq!(
            both_layouts(late, LifetimeOp::ExtendBack(10)),
            Ok(vec![Lifetime::new(MAX - 15, MAX)])
        );
    }

    #[test]
    fn to_point_stays_in_range_at_both_ends() {
        let late = Lifetime::new(MAX - 5, MAX);
        assert_eq!(
            both_layouts(late, LifetimeOp::ToPoint),
            Ok(vec![Lifetime::point(MAX - 5)])
        );
        let early = Lifetime::new(MIN, MIN + 5);
        assert_eq!(
            both_layouts(early, LifetimeOp::ToPoint),
            Ok(vec![Lifetime::point(MIN)])
        );
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
