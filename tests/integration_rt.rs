//! Online/offline equivalence (paper §VII): the same plans, fed a live
//! stream event-by-event, emit exactly what the batch executor computes —
//! piece for piece, across plan shapes, punctuation cadences and arrival
//! orders within the watermark — and that is the relation the oracle
//! computes. Each punctuation's output must equal the batch output over all
//! the events, normalized and clipped to the window that punctuation
//! finalizes, byte for byte, and the oracle's output clipped the same way.
//! The session picks its own path per shape; the checks are the same for
//! both.

mod common;

use common::oracle::{self, Tolerance};
use proptest::prelude::*;
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{row, Schema};
use timr_suite::temporal::agg::AggExpr;
use timr_suite::temporal::exec::{bindings, execute_single};
use timr_suite::temporal::expr::{col, lit};
use timr_suite::temporal::rt::RtSession;
use timr_suite::temporal::{Event, EventStream, Lifetime, LogicalPlan, Query, Time};

fn payload() -> Schema {
    Schema::new(vec![
        Field::new("StreamId", ColumnType::Int),
        Field::new("K", ColumnType::Str),
        Field::new("X", ColumnType::Double),
    ])
}

/// A plan, the sources it reads, and whether the session runs it on state.
struct Shape {
    name: &'static str,
    plan: LogicalPlan,
    sources: &'static [&'static str],
    stateful: bool,
}

fn shape(name: &'static str, q: Query, out: timr_suite::temporal::StreamHandle) -> Shape {
    Shape {
        name,
        plan: q.build(vec![out]).unwrap(),
        sources: &["in"],
        stateful: true,
    }
}

fn recomputed(mut s: Shape) -> Shape {
    s.stateful = false;
    s
}

fn shapes() -> Vec<Shape> {
    let mut out = Vec::new();

    let q = Query::new();
    let p = q
        .source("in", payload())
        .filter(col("StreamId").eq(lit(1)))
        .group_apply(&["K"], |g| g.window(25).count("N"));
    out.push(shape("windowed_count", q, p));

    let q = Query::new();
    let p = q
        .source("in", payload())
        .filter(col("StreamId").eq(lit(1)))
        .hop_window(10, 30)
        .group_apply(&["K"], |g| g.count("N"));
    out.push(shape("hopping_count", q, p));

    // Tumbling: the batch side runs the pane kernel, not the sweep.
    let q = Query::new();
    let p = q
        .source("in", payload())
        .group_apply(&["K"], |g| g.hop_window(15, 15).count("N"));
    out.push(shape("tumbling_count", q, p));

    let q = Query::new();
    let p = q
        .source("in", payload())
        .filter(col("StreamId").eq(lit(2)).not())
        .group_apply(&["K"], |g| {
            g.window(20).aggregate(vec![
                ("Lo".into(), AggExpr::Min(col("X"))),
                ("Hi".into(), AggExpr::Max(col("X"))),
                ("S".into(), AggExpr::Sum(col("X"))),
            ])
        });
    out.push(shape("windowed_min_max_double_sum", q, p));

    let q = Query::new();
    let p = q
        .source("in", payload())
        .project(vec![
            ("K".into(), col("K")),
            ("Y".into(), col("X").mul(lit(3.0))),
        ])
        .group_apply(&["K"], |g| {
            g.window(15).aggregate(vec![
                ("N".into(), AggExpr::Count),
                ("S".into(), AggExpr::Sum(col("Y"))),
                ("A".into(), AggExpr::Avg(col("Y"))),
            ])
        });
    out.push(shape("project_then_group", q, p));

    // The filter is the prefix; the window it fuses with stays per-event,
    // outside the GroupApply.
    let q = Query::new();
    let p = q
        .source("in", payload())
        .filter(col("StreamId").eq(lit(0)).not())
        .window(12)
        .group_apply(&["K"], |g| {
            g.aggregate(vec![("S".into(), AggExpr::StdDev(col("X")))])
        });
    out.push(shape("window_outside_group", q, p));

    let q = Query::new();
    let p = q.source("in", payload()).group_apply(&["K"], |g| {
        g.window(30).count("N").filter(col("N").gt(lit(2i64)))
    });
    out.push(recomputed(shape("filter_after_aggregate", q, p)));

    let q = Query::new();
    let a = q.source("a", payload()).filter(col("StreamId").eq(lit(1)));
    let b = q.source("b", payload()).filter(col("StreamId").eq(lit(0)));
    let p = a.union(b).group_apply(&["K"], |g| g.window(20).count("N"));
    let mut two = recomputed(shape("two_sources", q, p));
    two.sources = &["a", "b"];
    out.push(two);

    let q = Query::new();
    let input = q.source("in", payload());
    let hot = input
        .clone()
        .filter(col("StreamId").eq(lit(1)))
        .group_apply(&["K"], |g| {
            g.window(30).count("N").filter(col("N").gt(lit(2i64)))
        });
    let p = input.anti_semi_join(hot, &[("K", "K")]);
    out.push(recomputed(shape("rate_limiter", q, p)));

    let q = Query::new();
    let input = q.source("in", payload());
    let profile = input
        .clone()
        .filter(col("StreamId").eq(lit(2)))
        .group_apply(&["K"], |g| g.window(40).count("Cnt"));
    let p = input
        .clone()
        .filter(col("StreamId").eq(lit(0)))
        .temporal_join(profile, &[("K", "K")], None);
    out.push(recomputed(shape("profile_join", q, p)));

    out
}

const XS: [f64; 5] = [0.1, 0.2, 0.3, 0.7, 1.1];

/// `(source index, event)` in time order.
fn events_from(raw: &[(i64, u8, u8, u8)]) -> Vec<(usize, Event)> {
    let mut events: Vec<(usize, Event)> = raw
        .iter()
        .map(|&(t, sid, k, x)| {
            let payload = row![(sid % 3) as i32, format!("k{}", k % 5), XS[x as usize % 5]];
            (sid as usize / 3, Event::point(t, payload))
        })
        .collect();
    events.sort_by(|a, b| a.1.cmp(&b.1));
    events
}

/// Cut the time-ordered `events` into punctuation intervals of `cadence`
/// events and shuffle each interval: any order is legal, since every
/// event in it starts at or after the previous punctuation.
fn arrivals(
    events: &[(usize, Event)],
    cadence: usize,
    mut seed: u64,
) -> Vec<(Vec<(usize, Event)>, Time)> {
    events
        .chunks(cadence)
        .map(|chunk| {
            let at = chunk.iter().map(|(_, e)| e.start()).max().unwrap();
            let mut chunk = chunk.to_vec();
            for i in (1..chunk.len()).rev() {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                chunk.swap(i, (seed >> 33) as usize % (i + 1));
            }
            (chunk, at)
        })
        .collect()
}

/// `relation`'s events clipped to `[from, until)`, sorted.
fn clipped(relation: &EventStream, from: Time, until: Time) -> Vec<Event> {
    if from >= until {
        return Vec::new();
    }
    let window = Lifetime::new(from, until);
    let mut pieces: Vec<Event> = (relation.events().iter())
        .filter_map(|e| {
            Some(Event::new(
                e.lifetime.intersect(&window)?,
                e.payload.clone(),
            ))
        })
        .collect();
    pieces.sort();
    pieces
}

/// Run `shape` online over `intervals`, asserting every punctuation's and
/// the close's pieces against the batch run and the oracle over all events
/// in push order.
fn check_pieces(
    shape: &Shape,
    intervals: &[(Vec<(usize, Event)>, Time)],
) -> Result<(), TestCaseError> {
    let source = |i: usize| shape.sources[i % shape.sources.len()];
    let pushed: Vec<&(usize, Event)> = intervals.iter().flat_map(|(c, _)| c).collect();
    let inputs = shape
        .sources
        .iter()
        .map(|&name| {
            let events = pushed
                .iter()
                .filter(|(i, _)| source(*i) == name)
                .map(|(_, e)| e.clone())
                .collect();
            (name, EventStream::new(payload(), events))
        })
        .collect();
    let sources = bindings(inputs);
    let offline = execute_single(&shape.plan, &sources).unwrap().normalize();
    let want = oracle::run_single(&shape.plan, &sources)
        .unwrap()
        .normalize();
    let tolerance = Tolerance::of(&shape.plan, shape.plan.roots()[0]).scaled_by(&want);
    let check = |got: Vec<Event>, from: Time, until: Time, at: &str| {
        prop_assert_eq!(
            &got,
            &clipped(&offline, from, until),
            "`{}` {}",
            shape.name,
            at
        );
        let got = EventStream::new(want.schema().clone(), got);
        let expected = EventStream::new(want.schema().clone(), clipped(&want, from, until));
        let same = oracle::same_relation(&got, &expected, &tolerance);
        prop_assert!(
            same.is_ok(),
            "`{}` {}: {}",
            shape.name,
            at,
            same.unwrap_err()
        );
        Ok(())
    };

    let horizon = shape.plan.history_horizon();
    let mut session = RtSession::new(shape.plan.clone()).unwrap();
    let (mut watermark, mut from) = (Time::MIN, Time::MIN);
    for (chunk, at) in intervals {
        for (i, e) in chunk {
            session.push(source(*i), e.clone()).unwrap();
        }
        watermark = watermark.max(*at);
        let until = watermark.saturating_sub(horizon).max(from);
        let got = session.punctuate(*at).unwrap();
        check(got, from, until, &format!("at punctuation {at}"))?;
        from = until;
    }
    check(session.close().unwrap(), from, Time::MAX, "at close")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn online_equals_offline_for_all_plan_shapes(
        raw in prop::collection::vec((0i64..100, 0u8..6, 0u8..5, 0u8..5), 1..100),
        cadence in 1usize..20,
        seed in any::<u64>(),
    ) {
        let intervals = arrivals(&events_from(&raw), cadence, seed);
        for shape in shapes() {
            check_pieces(&shape, &intervals)?;
        }
    }
}

#[test]
fn each_shape_runs_on_the_path_it_should() {
    for shape in shapes() {
        let explain = RtSession::new(shape.plan).unwrap().explain();
        assert_eq!(
            explain.ends_with("recomputed: nothing"),
            shape.stateful,
            "`{}`:\n{explain}",
            shape.name
        );
    }
}

#[test]
fn session_rejects_unknown_source_and_late_events() {
    let plan = shapes().remove(0).plan;
    let mut session = RtSession::new(plan).unwrap();
    assert!(session
        .push("nope", Event::point(1, row![1i32, "k0", 0.5]))
        .is_err());
    session
        .push("in", Event::point(100, row![1i32, "k0", 0.5]))
        .unwrap();
    session.punctuate(100).unwrap();
    assert!(session
        .push("in", Event::point(50, row![1i32, "k0", 0.5]))
        .is_err());
}
