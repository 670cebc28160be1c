//! GroupApply groups rows on exact key words — a string's code in its
//! column's dictionary, an integer's value, a double's bits, and for a
//! column with nulls a null flag of its own — and never compares a key
//! cell. Whatever the physical layout of the keys, the groups must be the
//! oracle's, which groups by the materialized values:
//!
//! - string keys from two dictionaries, joined by `StrCodes::append` (a
//!   reducer's concatenated chunks) or by a union of two sources;
//! - dictionaries with entries no row holds, and codes in another order
//!   than the strings';
//! - null keys, and the key `""` beside a null one;
//! - `Int`, `Long` and `Double` keys, `-0.0` beside `0.0` and both NaNs;
//! - one, two and three key columns, packed into one word or not.
//!
//! Both paths are held to the oracle, compared as bytes: the segmented
//! walk (a window and an aggregate per group) and the pane kernel (a
//! tumbling hop of combinable aggregates).

mod common;

use common::oracle;
use proptest::prelude::*;
use proptest::TestRng;
use std::sync::Arc;
use timr_suite::relation::column::Validity;
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{
    Column, ColumnBatch, ColumnData, Dictionary, Row, Schema, StrCodes, Value,
};
use timr_suite::temporal::agg::AggExpr;
use timr_suite::temporal::exec::{bindings, execute, BatchBindings, Bindings};
use timr_suite::temporal::plan::fuse_plan;
use timr_suite::temporal::{col, Event, EventBatch, EventStream, LogicalPlan, Query, StreamHandle};

/// Key columns `S1`, `S2` (strings), `I`, `L`, `D`, then the value `V`.
fn schema() -> Schema {
    Schema::new(vec![
        Field::new("S1", ColumnType::Str),
        Field::new("S2", ColumnType::Str),
        Field::new("I", ColumnType::Int),
        Field::new("L", ColumnType::Long),
        Field::new("D", ColumnType::Double),
        Field::new("V", ColumnType::Long),
    ])
}

const STRS: [&str; 4] = ["", "a", "ab", "é"];
const INTS: [i32; 4] = [i32::MIN, -1, 0, i32::MAX];
const LONGS: [i64; 4] = [i64::MIN, 0, 1, i64::MAX];
const DOUBLES: [f64; 6] = [0.0, -0.0, f64::NAN, -f64::NAN, 1.5, f64::NEG_INFINITY];

/// One event: its start, the cell of each key column (an index into that
/// column's palette, `None` for a null) and `V`.
#[derive(Debug, Clone)]
struct Ev {
    t: i64,
    keys: [Option<usize>; 5],
    v: i64,
}

fn key_value(column: usize, pick: Option<usize>) -> Value {
    let Some(i) = pick else { return Value::Null };
    match column {
        0 | 1 => Value::str(STRS[i % STRS.len()]),
        2 => Value::Int(INTS[i % INTS.len()]),
        3 => Value::Long(LONGS[i % LONGS.len()]),
        _ => Value::Double(DOUBLES[i % DOUBLES.len()]),
    }
}

fn row_of(e: &Ev) -> Row {
    let mut cells: Vec<Value> = (0..5).map(|c| key_value(c, e.keys[c])).collect();
    cells.push(Value::Long(e.v));
    Row::new(cells)
}

/// The events as the oracle sees them: rows of values.
fn stream_of(events: &[Ev]) -> EventStream {
    let events = events
        .iter()
        .map(|e| Event::point(e.t, row_of(e)))
        .collect();
    EventStream::new(schema(), events)
}

/// A string column over a dictionary of its own: `unused` entries no row
/// holds come first, then the strings in reverse palette order when
/// `reversed`, so that codes and strings are ordered differently.
fn str_column(picks: &[Option<usize>], unused: usize, reversed: bool, salt: u64) -> Column {
    let mut dict = Dictionary::new();
    for k in 0..unused {
        dict.intern(&format!("unused-{salt}-{k}"));
    }
    if reversed {
        for s in STRS.iter().rev() {
            dict.intern(s);
        }
    }
    let codes: Vec<u32> = (picks.iter())
        .map(|p| dict.intern(STRS[p.unwrap_or(0) % STRS.len()]))
        .collect();
    let nulls: Vec<bool> = picks.iter().map(Option::is_none).collect();
    let data = ColumnData::Str(StrCodes::new(Arc::new(dict), codes));
    Column::new(data, Validity::from_null_flags(&nulls))
}

/// One chunk of events laid out as the engine's batch, each string column
/// on a dictionary of its own (see [`str_column`]).
fn chunk(events: &[Ev], unused: usize, reversed: bool, salt: u64) -> EventBatch {
    let picks = |c: usize| events.iter().map(|e| e.keys[c]).collect::<Vec<_>>();
    let nulls = |c: usize| {
        Validity::from_null_flags(&picks(c).iter().map(Option::is_none).collect::<Vec<_>>())
    };
    let pick = |p: Option<usize>| p.unwrap_or(0);
    let columns = vec![
        str_column(&picks(0), unused, reversed, salt),
        str_column(&picks(1), unused / 2, !reversed, salt + 1),
        Column::new(
            ColumnData::Int(
                picks(2)
                    .into_iter()
                    .map(|p| INTS[pick(p) % INTS.len()])
                    .collect(),
            ),
            nulls(2),
        ),
        Column::new(
            ColumnData::Long(
                picks(3)
                    .into_iter()
                    .map(|p| LONGS[pick(p) % LONGS.len()])
                    .collect(),
            ),
            nulls(3),
        ),
        Column::new(
            ColumnData::Double(
                (picks(4).into_iter())
                    .map(|p| DOUBLES[pick(p) % DOUBLES.len()])
                    .collect(),
            ),
            nulls(4),
        ),
        Column::new(ColumnData::Long(events.iter().map(|e| e.v).collect()), None),
    ];
    let vt: Vec<i64> = events.iter().map(|e| e.t).collect();
    let ve = vt.iter().map(|t| t + 1).collect();
    EventBatch::new(vt, ve, ColumnBatch::new(schema(), columns, events.len()))
}

/// A generated case: the events, where they split into two chunks, and
/// how each chunk's dictionaries are laid out.
#[derive(Debug, Clone)]
struct Case {
    events: Vec<Ev>,
    split: usize,
    unused: [usize; 2],
    reversed: [bool; 2],
}

impl Case {
    /// The two chunks, apart.
    fn chunks(&self) -> (EventBatch, EventBatch) {
        let (a, b) = self.events.split_at(self.split);
        (
            chunk(a, self.unused[0], self.reversed[0], 1),
            chunk(b, self.unused[1], self.reversed[1], 7),
        )
    }

    /// The chunks joined as a reducer joins them: the second's strings
    /// translated into the first's dictionaries.
    fn appended(&self) -> EventBatch {
        let (mut a, b) = self.chunks();
        a.append(b).unwrap();
        a
    }
}

fn arb_case(rng: &mut TestRng) -> Case {
    let n = rng.below(40) as usize;
    // Few distinct cells per column, so groups share keys.
    let null_rate = 1 + rng.below(4);
    let events = (0..n)
        .map(|_| {
            let mut keys = [None; 5];
            for (c, k) in keys.iter_mut().enumerate() {
                let palette = if c < 2 {
                    STRS.len()
                } else if c == 4 {
                    DOUBLES.len()
                } else {
                    4
                };
                if rng.below(null_rate + 4) >= null_rate {
                    *k = Some(rng.below(palette as u64) as usize);
                }
            }
            Ev {
                t: rng.below(60) as i64 - 10,
                keys,
                v: rng.below(9) as i64 - 3,
            }
        })
        .collect();
    Case {
        events,
        split: rng.below(n as u64 + 1) as usize,
        unused: [rng.below(3) as usize * 3, rng.below(3) as usize],
        reversed: [rng.below(2) == 1, rng.below(2) == 1],
    }
}

/// The key sets: one, two and three columns, some packed into one word
/// (strings, an `Int`), some not (a `Long` or `Double` with nulls).
const KEY_SETS: [&[&str]; 10] = [
    &["S1"],
    &["I"],
    &["L"],
    &["D"],
    &["S1", "S2"],
    &["S1", "D"],
    &["I", "L"],
    &["S2", "I", "S1"],
    &["D", "L", "S1"],
    &["I", "S1", "S2"],
];

/// The sub-plan each path runs: the segmented walk sweeps a window per
/// group; the pane kernel takes a tumbling hop of combinable aggregates.
fn sub_plan(pane: bool, g: StreamHandle) -> StreamHandle {
    if pane {
        g.hop_window(8, 8).aggregate(vec![
            ("N".to_string(), AggExpr::Count),
            ("S".to_string(), AggExpr::Sum(col("V"))),
            ("Lo".to_string(), AggExpr::Min(col("V"))),
            ("Hi".to_string(), AggExpr::Max(col("V"))),
        ])
    } else {
        g.window(5).aggregate(vec![
            ("N".to_string(), AggExpr::Count),
            ("S".to_string(), AggExpr::Sum(col("V"))),
        ])
    }
}

/// `in → GroupApply(keys)`, or with `union` the same over `a ∪ b`.
fn plan(keys: &[&str], pane: bool, union: bool) -> LogicalPlan {
    let q = Query::new();
    let input = match union {
        false => q.source("in", schema()),
        true => q.source("a", schema()).union(q.source("b", schema())),
    };
    let out = input.group_apply(keys, |g| sub_plan(pane, g));
    let plan = q.build(vec![out]).unwrap();
    let text = fuse_plan(&plan).unwrap().to_string();
    assert_eq!(text.contains("[pane]"), pane, "{text}");
    plan
}

/// A stream's normal form as its exact cells and its extent bytes.
fn bytes_of(stream: EventStream) -> (Vec<Event>, Vec<u8>) {
    let normal = stream.normalize();
    let batch = EventBatch::from_stream(&normal).unwrap();
    let bytes = batch.payload().to_extent_bytes().unwrap();
    (normal.into_events(), bytes)
}

/// The engine over `bound` and the oracle over `rows` publish the same
/// bytes.
fn same_bytes(
    plan: &LogicalPlan,
    bound: BatchBindings,
    rows: &Bindings,
) -> Result<(), TestCaseError> {
    let got = execute(plan, bound).map(|(mut roots, _)| roots.pop().unwrap().into_stream());
    let want = oracle::run_single(plan, rows);
    match (got, want) {
        (Ok(got), Ok(want)) => {
            let (got, want) = (bytes_of(got), bytes_of(want));
            prop_assert_eq!(&got.0, &want.0, "events");
            prop_assert_eq!(got.1, want.1, "extent bytes");
        }
        (got, want) => prop_assert_eq!(got.err(), want.err()),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Two chunks appended into one batch: the second's strings are
    /// translated into the first's dictionaries, and the walk and the pane
    /// group the result exactly as the oracle groups the values.
    #[test]
    fn appended_chunks_group_as_the_oracle(case in proptest::composed(arb_case)) {
        let rows = bindings(vec![("in", stream_of(&case.events))]);
        for keys in KEY_SETS {
            for pane in [false, true] {
                let bound: BatchBindings = [("in".to_string(), case.appended())].into_iter().collect();
                same_bytes(&plan(keys, pane, false), bound, &rows)?;
            }
        }
    }

    /// The chunks as two sources of a union, which joins their columns
    /// inside the engine.
    #[test]
    fn a_union_of_chunks_groups_as_the_oracle(case in proptest::composed(arb_case)) {
        let (a, b) = case.events.split_at(case.split);
        let rows = bindings(vec![("a", stream_of(a)), ("b", stream_of(b))]);
        for keys in KEY_SETS {
            for pane in [false, true] {
                let (ca, cb) = case.chunks();
                let bound: BatchBindings =
                    [("a".to_string(), ca), ("b".to_string(), cb)].into_iter().collect();
                same_bytes(&plan(keys, pane, true), bound, &rows)?;
            }
        }
    }
}

/// The pinned case of the keys that sit closest: `""` (code 0 of its
/// dictionary) beside a null, `-0.0` beside `0.0`, and the two NaNs, each
/// pair a group apart.
#[test]
fn near_keys_stay_apart() {
    let ev = |t: i64, s: Option<usize>, d: Option<usize>| Ev {
        t,
        keys: [s, s, None, None, d],
        v: t,
    };
    let events = vec![
        ev(1, Some(0), Some(0)),
        ev(2, None, Some(1)),
        ev(3, Some(0), Some(2)),
        ev(4, None, Some(3)),
        ev(5, Some(0), None),
    ];
    let case = Case {
        split: 2,
        unused: [0, 0],
        reversed: [false, false],
        events,
    };
    let rows = bindings(vec![("in", stream_of(&case.events))]);
    for keys in [&["S1"][..], &["D"], &["S1", "D"]] {
        for pane in [false, true] {
            let bound: BatchBindings = [("in".to_string(), case.appended())].into_iter().collect();
            same_bytes(&plan(keys, pane, false), bound, &rows).unwrap();
        }
    }
    let q = Query::new();
    let out = q
        .source("in", schema())
        .group_apply(&["S1", "D"], |g| g.count("N"));
    let plan = q.build(vec![out]).unwrap();
    let bound: BatchBindings = [("in".to_string(), case.appended())].into_iter().collect();
    let (roots, stats) = execute(&plan, bound).unwrap();
    assert_eq!(stats.groups, 5, "every event is a group of its own");
    assert_eq!(roots[0].len(), 5);
}
