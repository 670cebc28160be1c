//! An integer SUM adds up exactly and fails by name when a snapshot leaves
//! `i64`: in the sweep, in GroupApply's segmented walk and pane kernel, and
//! in a real-time session's stateful sweep, each against the oracle. The
//! same error in debug and release builds: nothing overflows an `i64` on
//! the way.

mod common;

use common::oracle;
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{row, Schema, Value};
use timr_suite::temporal::agg::AggExpr;
use timr_suite::temporal::exec::{bindings, execute_single};
use timr_suite::temporal::rt::RtSession;
use timr_suite::temporal::{
    col, Event, EventStream, LogicalPlan, Query, StreamHandle, TemporalError, Time,
};

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("K", ColumnType::Str),
        Field::new("V", ColumnType::Long),
    ])
}

fn sum(input: StreamHandle) -> StreamHandle {
    input.aggregate(vec![("S".to_string(), AggExpr::Sum(col("V")))])
}

fn plan(body: impl FnOnce(StreamHandle) -> StreamHandle) -> LogicalPlan {
    let q = Query::new();
    let out = body(q.source("in", schema()));
    q.build(vec![out]).unwrap()
}

/// Points `(t, key, v)`.
fn points(events: &[(Time, &str, i64)]) -> EventStream {
    let events = (events.iter())
        .map(|&(t, k, v)| Event::point(t, row![k, v]))
        .collect();
    EventStream::new(schema(), events)
}

/// The engine's result and the oracle's, which must agree.
fn run(plan: &LogicalPlan, input: EventStream) -> Result<EventStream, TemporalError> {
    let srcs = bindings(vec![("in", input)]);
    let engine = execute_single(plan, &srcs);
    let want = oracle::run_single(plan, &srcs);
    match (&engine, &want) {
        (Ok(e), Ok(o)) => assert_eq!(e.clone().normalize(), o.clone().normalize()),
        _ => assert_eq!(engine.as_ref().err(), want.as_ref().err()),
    }
    engine
}

fn overflow(at: Time) -> TemporalError {
    TemporalError::SumOverflow {
        aggregate: "S".to_string(),
        at,
    }
}

#[test]
fn a_sum_past_i64_is_a_named_error() {
    let windowed = plan(|s| sum(s.window(10)));
    let err = run(&windowed, points(&[(1, "a", i64::MAX), (2, "a", 1)])).unwrap_err();
    assert_eq!(err, overflow(2));
    assert_eq!(
        err.to_string(),
        "sum overflow: aggregate `S` at instant 2 leaves the range of a long"
    );
    let low = run(&windowed, points(&[(1, "a", i64::MIN), (2, "a", -1)]));
    assert_eq!(low.unwrap_err(), overflow(2));
}

#[test]
fn the_sum_is_exact_whatever_the_order_at_an_instant() {
    let windowed = plan(|s| sum(s.window(10)));
    // `MAX` leaves at 10 as `1` enters.
    let out = run(&windowed, points(&[(0, "a", i64::MAX), (10, "a", 1)])).unwrap();
    let at_10: Vec<&Event> = out.events().iter().filter(|e| e.start() == 10).collect();
    assert_eq!(at_10.len(), 1);
    assert_eq!(at_10[0].payload.get(0), &Value::Long(1));
    // At 5 the running sum passes `MAX` before `-5` enters: the snapshot
    // fits, so it stands.
    let input = points(&[(0, "a", 1), (5, "a", i64::MAX), (5, "a", -5)]);
    let out = run(&windowed, input).unwrap();
    let at_5 = out.events().iter().find(|e| e.start() == 5).unwrap();
    assert_eq!(at_5.payload.get(0), &Value::Long(i64::MAX - 4));
}

/// Under a GroupApply the lowest failing group in key order fails, at its
/// first overflowing instant — on the segmented walk and on the pane
/// kernel (a tumbling window) alike.
#[test]
fn the_lowest_failing_group_fails_first() {
    let input = || {
        points(&[
            (1, "b", i64::MAX),
            (2, "b", i64::MAX),
            (21, "a", i64::MAX),
            (22, "a", 1),
            (3, "c", 4),
        ])
    };
    let sliding = plan(|s| s.group_apply(&["K"], |g| sum(g.window(10))));
    assert_eq!(run(&sliding, input()).unwrap_err(), overflow(22));
    let tumbling = plan(|s| s.group_apply(&["K"], |g| sum(g.hop_window(10, 10))));
    // A hop moves a point to the next cell boundary: `a`'s both go to 30.
    assert_eq!(run(&tumbling, input()).unwrap_err(), overflow(30));
    // Without `b` and `a`'s overflow, both publish the oracle's relation.
    let fine = points(&[(0, "b", i64::MAX), (12, "b", i64::MAX), (3, "c", 4)]);
    run(&sliding, fine.clone()).unwrap();
    run(&tumbling, fine).unwrap();
}

/// The stateful real-time sweep names the overflow too, and the session
/// ends there: a later punctuation fails the same way.
#[test]
fn a_real_time_session_fails_by_name_and_stays_failed() {
    let grouped = plan(|s| s.group_apply(&["K"], |g| sum(g.window(10))));
    let mut session = RtSession::new(grouped).unwrap();
    assert!(
        session.explain().contains("stateful: GroupApply"),
        "{}",
        session.explain()
    );
    for (t, k, v) in [
        (0, "c", i64::MAX),
        (1, "c", 2),
        (2, "b", i64::MAX),
        (3, "b", 1),
    ] {
        session.push("in", Event::point(t, row![k, v])).unwrap();
    }
    let err = session.punctuate(50).unwrap_err();
    assert_eq!(err, overflow(3));
    assert_eq!(session.punctuate(60).unwrap_err(), overflow(3));
}
