//! Aggregates read their arguments as native cells of typed columns, not
//! as one `Value` per event. What they compute must not change:
//!
//! - COUNT counts every event, a null argument's too; SUM skips nulls, and
//!   a SUM over only nulls is Null; `Int` and `Long` sums are exact. These
//!   are held to the oracle, cell for cell, through the sweep, GroupApply's
//!   segmented walk and the pane kernel.
//! - A SUM over `Double`s adds and retracts in the sweep's order, so its
//!   bits are the running sum's: `±0.0` and infinities included (a NaN is
//!   a NaN: Rust does not fix its sign or payload), and a sum that comes
//!   back to an equal bit pattern coalesces its segments.
//!   The oracle sums each snapshot afresh, so the reference here is a
//!   running sum in that order ([`running_sum`]), compared bit for bit.
//! - A computed argument that fails on some event fails the query with the
//!   oracle's error.

mod common;

use common::oracle::{self, Tolerance};
use proptest::prelude::*;
use proptest::TestRng;
use timr_suite::relation::column::Validity;
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{Column, ColumnBatch, ColumnData, Row, Schema, StrCodes, Value};
use timr_suite::temporal::agg::AggExpr;
use timr_suite::temporal::exec::{bindings, execute, BatchBindings};
use timr_suite::temporal::plan::fuse_plan;
use timr_suite::temporal::{
    col, Event, EventBatch, EventStream, Lifetime, LogicalPlan, Query, StreamHandle, Time,
};

/// The key `K`, nullable arguments `V` (`Long`), `I` (`Int`) and `D`
/// (`Double`), and `E`: declared `Long`, null but where it holds a string,
/// on which an argument that reads it fails.
fn schema() -> Schema {
    Schema::new(vec![
        Field::new("K", ColumnType::Str),
        Field::new("V", ColumnType::Long),
        Field::new("I", ColumnType::Int),
        Field::new("D", ColumnType::Double),
        Field::new("E", ColumnType::Long),
    ])
}

const DOUBLES: [f64; 10] = [
    0.0,
    -0.0,
    0.5,
    0.25,
    -1.5,
    0.1,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e300,
];

#[derive(Debug, Clone)]
struct Ev {
    lifetime: Lifetime,
    key: usize,
    v: Option<i64>,
    i: Option<i32>,
    d: Option<f64>,
    fails: bool,
}

/// Events over few keys and instants, so lifetimes overlap, meet and
/// nest; `exotic` lets `D` take NaNs and infinities.
fn arb_events(rng: &mut TestRng, exotic: bool, failing: bool) -> Vec<Ev> {
    let n = rng.below(30) as usize;
    let null_rate = rng.below(4);
    let opt = |rng: &mut TestRng| rng.below(4) >= null_rate;
    (0..n)
        .map(|_| {
            let start = rng.below(40) as i64 - 5;
            let len = [1, 2, 3, 7, 20][rng.below(5) as usize];
            let palette = if exotic { DOUBLES.len() } else { 6 };
            Ev {
                lifetime: Lifetime::new(start, start + len),
                key: rng.below(3) as usize,
                v: opt(rng).then(|| rng.below(2001) as i64 - 1000),
                i: opt(rng).then(|| rng.below(21) as i32 - 10),
                d: opt(rng).then(|| DOUBLES[rng.below(palette as u64) as usize]),
                fails: failing && rng.below(12) == 0,
            }
        })
        .collect()
}

/// The events as the engine's batch. `E` holds strings where an event
/// fails, which no row layout would accept: the batch is built column by
/// column.
fn batch_of(events: &[Ev]) -> EventBatch {
    let nulls = |f: &dyn Fn(&Ev) -> bool| {
        Validity::from_null_flags(&events.iter().map(|e| !f(e)).collect::<Vec<_>>())
    };
    let keys = ["k0", "k1", "k2"];
    let columns = vec![
        Column::new(
            ColumnData::Str(StrCodes::from_strs(events.iter().map(|e| keys[e.key]))),
            None,
        ),
        Column::new(
            ColumnData::Long(events.iter().map(|e| e.v.unwrap_or(0)).collect()),
            nulls(&|e| e.v.is_some()),
        ),
        Column::new(
            ColumnData::Int(events.iter().map(|e| e.i.unwrap_or(0)).collect()),
            nulls(&|e| e.i.is_some()),
        ),
        Column::new(
            ColumnData::Double(events.iter().map(|e| e.d.unwrap_or(0.0)).collect()),
            nulls(&|e| e.d.is_some()),
        ),
        Column::new(
            ColumnData::Str(StrCodes::from_strs(events.iter().map(|_| "x"))),
            nulls(&|e| e.fails),
        ),
    ];
    EventBatch::new(
        events.iter().map(|e| e.lifetime.start).collect(),
        events.iter().map(|e| e.lifetime.end).collect(),
        ColumnBatch::new(schema(), columns, events.len()),
    )
}

/// How a plan reaches its aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    /// The top-level sweep.
    Sweep,
    /// GroupApply's segmented walk over key-ordered runs.
    Walk,
    /// GroupApply's pane kernel (a tumbling hop of combinable aggregates).
    Pane,
}

const PATHS: [Path; 3] = [Path::Sweep, Path::Walk, Path::Pane];

fn plan(path: Path, aggs: Vec<(String, AggExpr)>) -> LogicalPlan {
    let q = Query::new();
    let input = q.source("in", schema());
    let out = match path {
        Path::Sweep => input.aggregate(aggs),
        Path::Walk => input.group_apply(&["K"], |g: StreamHandle| g.aggregate(aggs)),
        Path::Pane => input.group_apply(&["K"], |g| g.hop_window(8, 8).aggregate(aggs)),
    };
    let plan = q.build(vec![out]).unwrap();
    let text = fuse_plan(&plan).unwrap().to_string();
    assert_eq!(text.contains("[pane]"), path == Path::Pane, "{text}");
    plan
}

fn engine(plan: &LogicalPlan, batch: EventBatch) -> Result<EventStream, String> {
    let bound: BatchBindings = [("in".to_string(), batch)].into_iter().collect();
    execute(plan, bound)
        .map(|(mut roots, _)| roots.pop().unwrap().into_stream())
        .map_err(|e| e.to_string())
}

/// The engine's result is the oracle's, exactly, or both fail alike.
fn as_the_oracle(plan: &LogicalPlan, events: &[Ev]) -> Result<(), TestCaseError> {
    let batch = batch_of(events);
    let rows = bindings(vec![("in", batch.clone().into_stream())]);
    let want = oracle::run_single(plan, &rows).map_err(|e| e.to_string());
    match (engine(plan, batch), want) {
        (Ok(got), Ok(want)) => {
            let same = oracle::same_relation(&got, &want, &Tolerance::exact());
            prop_assert!(same.is_ok(), "{}", same.unwrap_err());
        }
        (got, want) => prop_assert_eq!(got.err(), want.err()),
    }
    Ok(())
}

fn counts_and_integer_sums() -> Vec<(String, AggExpr)> {
    vec![
        ("N".to_string(), AggExpr::Count),
        ("SV".to_string(), AggExpr::Sum(col("V"))),
        ("SI".to_string(), AggExpr::Sum(col("I"))),
        ("SX".to_string(), AggExpr::Sum(col("V").mul(col("I")))),
    ]
}

/// COUNT and a double SUM over the events of one run, in the run's order,
/// swept as the engine sweeps: endpoints in (instant, ends before starts,
/// event) order, a running `f64` sum that adds and retracts, everything
/// reset when no event is alive, a segment closed only when its value
/// changes.
fn running_sum(run: &[&Ev]) -> Vec<(Lifetime, Row)> {
    let mut ends: Vec<(Time, bool, usize)> = (run.iter().enumerate())
        .flat_map(|(i, e)| [(e.lifetime.start, true, i), (e.lifetime.end, false, i)])
        .collect();
    ends.sort_unstable();
    let (mut alive, mut values, mut sum) = (0i64, 0i64, 0.0f64);
    let mut open: Option<(Time, Row)> = None;
    let mut out = Vec::new();
    let mut k = 0;
    while k < ends.len() {
        let t = ends[k].0;
        while k < ends.len() && ends[k].0 == t {
            let (_, start, i) = ends[k];
            alive += if start { 1 } else { -1 };
            if let Some(d) = run[i].d {
                values += if start { 1 } else { -1 };
                if start {
                    sum += d;
                } else {
                    sum -= d;
                }
            }
            k += 1;
        }
        let now = (alive > 0).then(|| {
            let s = if values == 0 {
                Value::Null
            } else {
                Value::Double(sum)
            };
            Row::new(vec![Value::Long(alive), s])
        });
        if alive == 0 {
            (values, sum) = (0, 0.0);
        }
        if open.as_ref().is_some_and(|(_, v)| Some(v) == now.as_ref()) {
            continue;
        }
        if let Some((from, v)) = open.take() {
            out.push((Lifetime::new(from, t), v));
        }
        open = now.map(|v| (t, v));
    }
    out
}

/// [`running_sum`] over the whole input (`keyed` false) or per key, the key
/// prefixed, each key's events in input order.
fn reference(events: &[Ev], keyed: bool) -> EventStream {
    let mut out = Vec::new();
    for key in 0..3 {
        let run: Vec<&Ev> = (events.iter()).filter(|e| !keyed || e.key == key).collect();
        for (lifetime, row) in running_sum(&run) {
            let mut cells = row.values().to_vec();
            if keyed {
                cells.insert(0, Value::str(format!("k{key}")));
            }
            out.push(Event::new(lifetime, Row::new(cells)));
        }
        if !keyed {
            break;
        }
    }
    let mut fields = vec![
        Field::new("N", ColumnType::Long),
        Field::new("S", ColumnType::Double),
    ];
    if keyed {
        fields.insert(0, Field::new("K", ColumnType::Str));
    }
    EventStream::new(Schema::new(fields), out)
}

/// `stream` normalized with every NaN made one: Rust leaves the sign and
/// payload of a NaN that arithmetic yields unspecified (an addition may
/// take either operand's), so those bits are no part of what a SUM
/// answers. Every other bit is, `-0.0` and the infinities included.
fn one_nan(stream: EventStream) -> EventStream {
    let events = (stream.events().iter())
        .map(|e| {
            let cells = (e.payload.values().iter())
                .map(|v| match v {
                    Value::Double(x) if x.is_nan() => Value::Double(f64::NAN),
                    v => v.clone(),
                })
                .collect();
            Event::new(e.lifetime, Row::new(cells))
        })
        .collect();
    EventStream::new(stream.schema().clone(), events).normalize()
}

/// Whether every NaN `stream` holds is `f64::NAN` bit for bit: the engine
/// publishes one NaN whatever bits the arithmetic that made it left, so a
/// build cannot change a published byte and two NaN snapshots coalesce.
fn nans_are_canonical(stream: &EventStream) -> bool {
    (stream.events().iter())
        .flat_map(|e| e.payload.values())
        .all(|v| !matches!(v, Value::Double(x) if x.is_nan() && x.to_bits() != f64::NAN.to_bits()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// COUNT and exact integer sums — null arguments, sums over nulls
    /// only, `Int`s and `Long`s, a computed product — on every path.
    #[test]
    fn counts_and_integer_sums_are_the_oracle_s(
        events in proptest::composed(|rng| arb_events(rng, false, false)),
    ) {
        for path in PATHS {
            as_the_oracle(&plan(path, counts_and_integer_sums()), &events)?;
        }
    }

    /// A double SUM's bits are the running sum's, on the sweep and the
    /// walk (a double SUM never takes the pane kernel).
    #[test]
    fn a_double_sum_is_the_running_sum_bit_for_bit(
        events in proptest::composed(|rng| arb_events(rng, true, false)),
    ) {
        let aggs = vec![
            ("N".to_string(), AggExpr::Count),
            ("S".to_string(), AggExpr::Sum(col("D"))),
        ];
        for path in [Path::Sweep, Path::Walk] {
            let got = engine(&plan(path, aggs.clone()), batch_of(&events)).unwrap();
            let want = reference(&events, path == Path::Walk);
            prop_assert!(nans_are_canonical(&got), "a NaN other than f64::NAN: {:?}", got.events());
            let (got, want) = (one_nan(got), one_nan(want));
            prop_assert_eq!(got.events(), want.events());
        }
    }

    /// A computed argument that fails on some events: the query fails as
    /// the oracle's does, on every path, with the aggregates beside it
    /// unchanged when nothing fails.
    #[test]
    fn a_failing_argument_is_the_oracle_s_error(
        events in proptest::composed(|rng| arb_events(rng, false, true)),
    ) {
        let mut aggs = counts_and_integer_sums();
        aggs.insert(1, ("SE".to_string(), AggExpr::Sum(col("V").add(col("E")))));
        for path in PATHS {
            as_the_oracle(&plan(path, aggs.clone()), &events)?;
        }
    }
}

/// The pinned cases: a sum that returns to its bits coalesces; infinities
/// leave a NaN for the rest of their burst and not after it; an argument
/// that is null in every live event is a Null sum beside a non-zero count.
#[test]
fn pinned_double_sums() {
    let ev = |start: i64, end: i64, d: Option<f64>| Ev {
        lifetime: Lifetime::new(start, end),
        key: 0,
        v: None,
        i: None,
        d,
        fails: false,
    };
    let aggs = vec![
        ("N".to_string(), AggExpr::Count),
        ("S".to_string(), AggExpr::Sum(col("D"))),
    ];
    let run = |events: &[Ev]| {
        let got = engine(&plan(Path::Sweep, aggs.clone()), batch_of(events)).unwrap();
        let want = one_nan(reference(events, false));
        assert!(
            nans_are_canonical(&got),
            "a NaN other than f64::NAN: {:?}",
            got.events()
        );
        assert_eq!(one_nan(got.clone()).events(), want.events());
        got.into_events()
    };
    let row = |n: i64, s: Value| Row::new(vec![Value::Long(n), s]);
    // At 5 one 0.1 leaves and another comes: 0.1 - 0.1 + 0.1 is 0.1 again,
    // so the two lifetimes are one segment.
    let out = run(&[ev(0, 5, Some(0.1)), ev(5, 10, Some(0.1))]);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].lifetime, Lifetime::new(0, 10));
    assert_eq!(out[0].payload, row(1, Value::Double(0.1)));
    // +inf retracted leaves NaN until the burst ends; the next burst is
    // clean.
    let out = run(&[
        ev(0, 10, Some(0.5)),
        ev(2, 4, Some(f64::INFINITY)),
        ev(20, 21, Some(0.25)),
    ]);
    assert!(out[2].payload.get(1).as_double().unwrap().is_nan());
    assert_eq!(out[3].payload, row(1, Value::Double(0.25)));
    // Only nulls alive: COUNT counts them, SUM is Null. A running sum
    // starts at +0.0, so -0.0 added to it is +0.0.
    let out = run(&[ev(0, 3, None), ev(1, 2, Some(-0.0))]);
    assert_eq!(out[0].payload, row(1, Value::Null));
    assert_eq!(
        out[1].payload.get(1).as_double().unwrap().to_bits(),
        0.0f64.to_bits()
    );
}
