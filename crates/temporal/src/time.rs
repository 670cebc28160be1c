//! Application time.
//!
//! Time is a signed 64-bit tick counter. The BT workloads interpret one tick
//! as one second, but nothing in the engine depends on that. δ — the smallest
//! representable duration, used for point-event lifetimes — is [`TICK`].

/// An application timestamp (ticks).
pub type Time = i64;

/// A span of application time (ticks).
pub type Duration = i64;

/// δ: the smallest possible time unit (paper §II-A.1).
pub const TICK: Duration = 1;

/// One second, in ticks (the BT workload convention).
pub const SEC: Duration = 1;
/// One minute.
pub const MIN: Duration = 60 * SEC;
/// One hour.
pub const HOUR: Duration = 60 * MIN;
/// One day.
pub const DAY: Duration = 24 * HOUR;

/// Round `t` up to the next multiple of `grid` (identity if aligned).
/// Correct for negative `t` as well.
pub fn ceil_to_grid(t: Time, grid: Duration) -> Time {
    assert!(grid > 0, "grid must be positive");
    let q = t.div_euclid(grid);
    let r = t.rem_euclid(grid);
    if r == 0 {
        t
    } else {
        (q + 1) * grid
    }
}

/// [`ceil_to_grid`], or `None` when that grid point is past [`Time::MAX`].
pub fn checked_ceil_to_grid(t: Time, grid: Duration) -> Option<Time> {
    assert!(grid > 0, "grid must be positive");
    match t.rem_euclid(grid) {
        0 => Some(t),
        _ => t.div_euclid(grid).checked_add(1)?.checked_mul(grid),
    }
}

/// Round `t` down to the previous multiple of `grid` (identity if aligned).
pub fn floor_to_grid(t: Time, grid: Duration) -> Time {
    assert!(grid > 0, "grid must be positive");
    t.div_euclid(grid) * grid
}

/// A half-open validity interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lifetime {
    /// LE: when the event starts to exist.
    pub start: Time,
    /// RE: when the event ceases to exist (exclusive).
    pub end: Time,
}

impl Lifetime {
    /// Build a lifetime; panics when empty or inverted, which indicates a
    /// bug in operator logic rather than bad data.
    pub fn new(start: Time, end: Time) -> Self {
        assert!(start < end, "empty lifetime [{start}, {end})");
        Lifetime { start, end }
    }

    /// The lifetime of a point event at `t`: `[t, t + δ)`.
    pub fn point(t: Time) -> Self {
        Lifetime::new(t, t + TICK)
    }

    /// Whether this is a point lifetime.
    pub fn is_point(&self) -> bool {
        self.end == self.start + TICK
    }

    /// Duration `end - start`.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }

    /// Whether instant `t` falls inside `[start, end)`.
    pub fn contains(&self, t: Time) -> bool {
        self.start <= t && t < self.end
    }

    /// Intersection with another lifetime, if non-empty.
    pub fn intersect(&self, other: &Lifetime) -> Option<Lifetime> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then(|| Lifetime::new(start, end))
    }

    /// Whether the two lifetimes overlap.
    pub fn overlaps(&self, other: &Lifetime) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Subtract a set of **disjoint, sorted** intervals from this lifetime,
    /// returning the surviving fragments in order. Used by AntiSemiJoin.
    pub fn subtract_all(&self, holes: &[Lifetime]) -> Vec<Lifetime> {
        let mut out = Vec::new();
        let mut cursor = self.start;
        for hole in holes {
            if hole.end <= cursor {
                continue;
            }
            if hole.start >= self.end {
                break;
            }
            if hole.start > cursor {
                out.push(Lifetime::new(cursor, hole.start.min(self.end)));
            }
            cursor = cursor.max(hole.end);
            if cursor >= self.end {
                return out;
            }
        }
        if cursor < self.end {
            out.push(Lifetime::new(cursor, self.end));
        }
        out
    }
}

/// Merge an unsorted list of intervals into a minimal sorted disjoint set.
pub fn merge_intervals(mut intervals: Vec<Lifetime>) -> Vec<Lifetime> {
    if intervals.is_empty() {
        return intervals;
    }
    intervals.sort_by_key(|l| (l.start, l.end));
    let mut merged: Vec<Lifetime> = Vec::with_capacity(intervals.len());
    for iv in intervals {
        match merged.last_mut() {
            Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
            _ => merged.push(iv),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_rounding() {
        assert_eq!(ceil_to_grid(0, 4), 0);
        assert_eq!(ceil_to_grid(1, 4), 4);
        assert_eq!(ceil_to_grid(4, 4), 4);
        assert_eq!(ceil_to_grid(-1, 4), 0);
        assert_eq!(ceil_to_grid(-5, 4), -4);
        assert_eq!(floor_to_grid(7, 4), 4);
        assert_eq!(floor_to_grid(-1, 4), -4);
        assert_eq!(floor_to_grid(8, 4), 8);
        assert_eq!(checked_ceil_to_grid(-5, 4), Some(-4));
        assert_eq!(checked_ceil_to_grid(Time::MAX, 1), Some(Time::MAX));
        // 2^63 - 1 is a multiple of 7 and is 3 modulo 4.
        assert_eq!(checked_ceil_to_grid(Time::MAX - 5, 7), Some(Time::MAX));
        assert_eq!(checked_ceil_to_grid(Time::MAX - 1, 4), None);
    }

    #[test]
    fn point_lifetimes() {
        let p = Lifetime::point(5);
        assert!(p.is_point());
        assert!(p.contains(5));
        assert!(!p.contains(6));
        assert_eq!(p.duration(), TICK);
    }

    #[test]
    fn intersect_and_overlap() {
        let a = Lifetime::new(0, 10);
        let b = Lifetime::new(5, 15);
        assert_eq!(a.intersect(&b), Some(Lifetime::new(5, 10)));
        assert!(a.overlaps(&b));
        let c = Lifetime::new(10, 20);
        assert_eq!(a.intersect(&c), None); // half-open: touching ≠ overlapping
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn subtraction_produces_fragments() {
        let a = Lifetime::new(0, 100);
        let holes = vec![Lifetime::new(10, 20), Lifetime::new(50, 60)];
        assert_eq!(
            a.subtract_all(&holes),
            vec![
                Lifetime::new(0, 10),
                Lifetime::new(20, 50),
                Lifetime::new(60, 100)
            ]
        );
        // Hole covering everything removes the event.
        assert!(a.subtract_all(&[Lifetime::new(-5, 200)]).is_empty());
        // Holes outside the lifetime leave it untouched.
        assert_eq!(a.subtract_all(&[Lifetime::new(200, 300)]), vec![a]);
    }

    #[test]
    fn interval_merging() {
        let merged = merge_intervals(vec![
            Lifetime::new(5, 8),
            Lifetime::new(0, 3),
            Lifetime::new(2, 6),
            Lifetime::new(10, 12),
        ]);
        assert_eq!(merged, vec![Lifetime::new(0, 8), Lifetime::new(10, 12)]);
    }

    #[test]
    #[should_panic(expected = "empty lifetime")]
    fn empty_lifetime_panics() {
        Lifetime::new(5, 5);
    }
}
