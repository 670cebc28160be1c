//! Property tests for the temporal algebra: the engine's results must
//! match brute-force oracles and be independent of physical event order —
//! the foundation of every repeatability claim in the paper (§III-C.1).

use proptest::prelude::*;
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{row, Schema};
use timr_suite::temporal::agg::AggExpr;
use timr_suite::temporal::exec::{bindings, execute_single};
use timr_suite::temporal::expr::{col, lit};
use timr_suite::temporal::{Event, EventStream, Lifetime, Query};

fn payload() -> Schema {
    Schema::new(vec![
        Field::new("K", ColumnType::Str),
        Field::new("V", ColumnType::Long),
    ])
}

prop_compose! {
    fn arb_points(max_len: usize)(
        items in prop::collection::vec((0i64..500, 0u8..4, 0i64..50), 1..max_len)
    ) -> Vec<(i64, String, i64)> {
        items.into_iter().map(|(t, k, v)| (t, format!("k{k}"), v)).collect()
    }
}

fn stream_of(points: &[(i64, String, i64)]) -> EventStream {
    EventStream::new(
        payload(),
        points
            .iter()
            .map(|(t, k, v)| Event::point(*t, row![k.as_str(), *v]))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Physical order never changes the denoted relation, for a plan
    /// composed of every core operator kind.
    #[test]
    fn order_insensitivity(points in arb_points(60), seed in 0u64..1000) {
        let q = Query::new();
        let input = q.source("in", payload());
        let filtered = input.clone().filter(col("V").ge(lit(5i64)));
        let counted = filtered.group_apply(&["K"], |g| g.window(20).count("N"));
        let out = input.temporal_join(counted, &[("K", "K")], None);
        let plan = q.build(vec![out]).unwrap();

        let a = execute_single(&plan, &bindings(vec![("in", stream_of(&points))])).unwrap();

        // Deterministic pseudo-shuffle of the input order.
        let mut shuffled = points.clone();
        let n = shuffled.len();
        for i in 0..n {
            let j = ((seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
            shuffled.swap(i, j);
        }
        let b = execute_single(&plan, &bindings(vec![("in", stream_of(&shuffled))])).unwrap();
        prop_assert!(a.same_relation(&b));
    }

    /// Aggregating a stream equals concatenating the aggregates of its
    /// time-disjoint pieces, byte for byte, for every aggregate over a
    /// `Double` argument: no rounding residue (nor SUM's "saw a float")
    /// outlives the burst of events that produced it. This is what lets a
    /// temporally partitioned run (paper §III-B) publish the single-node
    /// bytes.
    #[test]
    fn aggregate_concatenates_over_time_disjoint_pieces(
        bursts in prop::collection::vec(
            prop::collection::vec((0i64..20, 1i64..10, -1e3f64..1e3), 1..8),
            1..5,
        ),
        gap in 1i64..5,
    ) {
        let schema = Schema::new(vec![Field::new("D", ColumnType::Double)]);
        let d = || col("D");
        let aggs: Vec<(String, AggExpr)> = [
            AggExpr::Count,
            AggExpr::Sum(d()),
            AggExpr::Avg(d()),
            AggExpr::StdDev(d()),
            AggExpr::Min(d()),
            AggExpr::Max(d()),
            AggExpr::CountDistinct(d()),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, a)| (format!("A{i}"), a))
        .collect();

        // Lay the bursts out one after another, `gap` ticks apart.
        let mut origin = 0;
        let mut pieces: Vec<Vec<Event>> = Vec::new();
        for burst in &bursts {
            let piece: Vec<Event> = burst
                .iter()
                .map(|&(s, len, x)| Event::interval(origin + s, origin + s + len, row![x]))
                .collect();
            origin = piece.iter().map(Event::end).max().unwrap() + gap;
            pieces.push(piece);
        }
        let whole = EventStream::new(schema.clone(), pieces.concat());
        // One aggregate over the whole stream: a one-operator plan.
        let aggregate = |s: &EventStream, aggs: &[(String, AggExpr)]| {
            let q = Query::new();
            let out = q.source("in", schema.clone()).aggregate(aggs.to_vec());
            let plan = q.build(vec![out]).unwrap();
            execute_single(&plan, &bindings(vec![("in", s.clone())]))
        };
        let concatenated: Vec<Event> = pieces
            .into_iter()
            .flat_map(|p| {
                aggregate(&EventStream::new(schema.clone(), p), &aggs)
                    .unwrap()
                    .into_events()
            })
            .collect();
        let aggregated = aggregate(&whole, &aggs).unwrap();
        prop_assert_eq!(aggregated.events(), &concatenated[..]);
    }

    /// Windowed count agrees with a brute-force oracle at every instant.
    #[test]
    fn windowed_count_oracle(points in arb_points(40), w in 1i64..60) {
        let q = Query::new();
        let out = q.source("in", payload()).window(w).count("N");
        let plan = q.build(vec![out]).unwrap();
        let result = execute_single(&plan, &bindings(vec![("in", stream_of(&points))]))
            .unwrap()
            .normalize();

        // Oracle: for each instant t in a probe range, the count of events
        // with timestamp in (t - w, t].
        let max_t = points.iter().map(|p| p.0).max().unwrap_or(0) + w + 2;
        for t in 0..max_t {
            let expected = points.iter().filter(|p| p.0 <= t && p.0 > t - w).count() as i64;
            let got = result
                .events()
                .iter()
                .find(|e| e.lifetime.contains(t))
                .map(|e| e.payload.get(0).as_long().unwrap())
                .unwrap_or(0);
            prop_assert_eq!(
                got, expected,
                "count mismatch at t={} (w={})", t, w
            );
        }
    }

    /// TemporalJoin agrees with a nested-loop reference.
    #[test]
    fn temporal_join_oracle(
        left in arb_points(25),
        right_raw in prop::collection::vec((0i64..100, 1i64..40, 0u8..4, 0i64..50), 1..25)
    ) {
        let right: Vec<Event> = right_raw
            .iter()
            .map(|(s, d, k, v)| Event::interval(*s, s + d, row![format!("k{k}"), *v]))
            .collect();
        let right_stream = EventStream::new(payload(), right.clone());

        let q = Query::new();
        let l = q.source("l", payload());
        let r = q.source("r", payload());
        let out = l.temporal_join(r, &[("K", "K")], None);
        let plan = q.build(vec![out]).unwrap();
        let result = execute_single(
            &plan,
            &bindings(vec![("l", stream_of(&left)), ("r", right_stream)]),
        )
        .unwrap()
        .normalize();

        // Reference: all key-equal, lifetime-intersecting pairs.
        let mut expected = EventStream::empty(payload().join(&payload()));
        for (t, k, v) in &left {
            let lt = Lifetime::point(*t);
            for re in &right {
                if re.payload.get(0).as_str() == Some(k.as_str()) {
                    if let Some(meet) = lt.intersect(&re.lifetime) {
                        let mut vals = vec![
                            timr_suite::relation::Value::str(k),
                            timr_suite::relation::Value::Long(*v),
                        ];
                        vals.extend(re.payload.values().iter().cloned());
                        expected.push(Event::new(meet, timr_suite::relation::Row::new(vals)));
                    }
                }
            }
        }
        prop_assert!(result.same_relation(&expected));
    }

    /// AntiSemiJoin partitions the left stream: every left point is either
    /// in the output or covered by a matching right interval, never both.
    #[test]
    fn anti_semi_join_partitions(
        left in arb_points(30),
        right_raw in prop::collection::vec((0i64..100, 1i64..50, 0u8..4), 0..15)
    ) {
        let right: Vec<Event> = right_raw
            .iter()
            .map(|(s, d, k)| Event::interval(*s, s + d, row![format!("k{k}"), 0i64]))
            .collect();
        let right_stream = EventStream::new(payload(), right.clone());

        let q = Query::new();
        let l = q.source("l", payload());
        let r = q.source("r", payload());
        let out = l.anti_semi_join(r, &[("K", "K")]);
        let plan = q.build(vec![out]).unwrap();
        let result = execute_single(
            &plan,
            &bindings(vec![("l", stream_of(&left)), ("r", right_stream)]),
        )
        .unwrap();

        for (t, k, v) in &left {
            let covered = right.iter().any(|re| {
                re.payload.get(0).as_str() == Some(k.as_str()) && re.lifetime.contains(*t)
            });
            let in_output = result.events().iter().any(|e| {
                e.start() == *t
                    && e.payload.get(0).as_str() == Some(k.as_str())
                    && e.payload.get(1).as_long() == Some(*v)
            });
            prop_assert_eq!(in_output, !covered, "point at t={} k={}", t, k);
        }
    }

    /// Normalization is idempotent and preserves the relation.
    #[test]
    fn normalize_idempotent(points in arb_points(50)) {
        let s = stream_of(&points);
        let n1 = s.normalize();
        let n2 = n1.normalize();
        prop_assert_eq!(n1.events(), n2.events());
        prop_assert!(s.same_relation(&n1));
    }
}
