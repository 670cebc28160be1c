//! Kernel-level property tests for the engine's columns: every vectorized
//! expression, predicate and lifetime kernel must be *observably
//! identical* — values, selection, and error cases — to evaluating the
//! same steps one row at a time by the language's definition
//! ([`row_steps`]: `Expr::eval`, as the oracle evaluates it).
//!
//! Each kernel is driven the only way production reaches it: as a step of
//! [`fused_fragment`], both **dense** (first step of a fragment) and
//! **after a selection** (behind a filter step, so leaf reads gather
//! through the selection vector). Batches are routinely null-heavy, `0..`
//! stream lengths include empty batches, and the expression generator
//! raises errors as often as it produces values — the first failing
//! *surviving* row must surface `Expr::eval`'s exact message.
//!
//! The binary operators — TemporalJoin, AntiSemiJoin, Union — are held to
//! the oracle over keys that collide on the hash and null key cells: the
//! oracle's relation, or the oracle's error. A side whose cells do not
//! inhabit their columns never reaches them: it is refused where it enters
//! the engine, by name.

mod common;

use common::oracle::{self, Tolerance};
use common::{
    arb_events, arb_expr, arb_lifetime_op, batch_of, ill_typed_error, make_ill_typed, palette,
    pred_menu, raw_proj, row_steps, schema, stream_of,
};
use proptest::prelude::*;
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{Row, Schema, Value};
use timr_suite::temporal::exec::{bindings, execute, execute_single, BatchBindings};
use timr_suite::temporal::operators::{anti_semi_join, fused_fragment, temporal_join};
use timr_suite::temporal::plan::FusedStep;
use timr_suite::temporal::{
    col, lit, Event, EventBatch, EventStream, Expr, Lifetime, Query, TemporalError,
};

/// Run `steps` on the batch kernels and one row at a time over the same
/// events; both must produce the identical event vector or the identical
/// error message.
fn assert_kernels_match_rows(
    events: &[(i64, i64, Row)],
    steps: &[FusedStep],
) -> Result<(), TestCaseError> {
    let on_batch = fused_fragment(batch_of(events), steps).map(EventBatch::into_stream);
    let on_rows = row_steps(steps, stream_of(events).events().to_vec());
    match (on_batch, on_rows) {
        (Ok(b), Ok(r)) => prop_assert_eq!(b.events(), &r[..]),
        (Err(b), Err(r)) => prop_assert_eq!(b.to_string(), r.to_string()),
        (b, r) => prop_assert!(false, "diverged: batch {:?} rows {:?}", b, r),
    }
    Ok(())
}

fn filter_step(predicate: Expr) -> FusedStep {
    FusedStep::Filter { predicate }
}

fn project_step(picks: &[usize]) -> FusedStep {
    FusedStep::Project {
        exprs: picks
            .iter()
            .enumerate()
            .map(|(j, &i)| raw_proj(i + 10 * j))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The value kernels, dense: one projected column per random
    /// expression holds every row's value bit for bit, and a failing batch
    /// reports the *first* failing row's error — same row, same message.
    ///
    /// A projection type-checks its expressions first, so ill-typed trees
    /// reach the kernels through a comparison inside a filter instead
    /// (filters defer every type error to evaluation).
    #[test]
    fn expression_kernels_match_rows_dense(
        events in arb_events(40),
        e in arb_expr(),
        thresh in -100i64..100,
    ) {
        let project = [FusedStep::Project { exprs: vec![("X".to_string(), e.clone())] }];
        assert_kernels_match_rows(&events, &project)?;
        assert_kernels_match_rows(&events, &[filter_step(e.ge(lit(thresh)))])?;
    }

    /// The value kernels behind a selection: leaves gather through the
    /// selection vector, and an error on a filtered-out row must not
    /// surface.
    #[test]
    fn expression_kernels_match_rows_after_a_selection(
        events in arb_events(40),
        e in arb_expr(),
        p in 0usize..8,
        thresh in -100i64..100,
    ) {
        // The second filter evaluates `e` (twice) under the first one's
        // selection; `==` defers every type error in `e` to evaluation.
        let steps = [
            filter_step(pred_menu(p, thresh)),
            filter_step(e.clone().eq(e)),
        ];
        assert_kernels_match_rows(&events, &steps)?;
    }

    /// The predicate kernels, dense and selected: identical keep-sets
    /// (Null → false) and identical first errors (non-boolean predicates
    /// included) to `Expr::eval_predicate` row by row.
    #[test]
    fn predicate_kernels_match_rows(
        events in arb_events(40),
        e in arb_expr(),
        p in 0usize..8,
        thresh in -100i64..100,
    ) {
        assert_kernels_match_rows(&events, &[filter_step(e.clone())])?;
        let selected = [filter_step(pred_menu(p, thresh)), filter_step(e)];
        assert_kernels_match_rows(&events, &selected)?;
    }

    /// Multi-expression projections, dense and selected: row-major error
    /// order across expressions (the smallest (row, expr) pair fails
    /// first) and column stealing for passthroughs (repeated ones
    /// included).
    #[test]
    fn projection_matches_rows(
        events in arb_events(40),
        picks in prop::collection::vec(0usize..10, 1..6),
        p in 0usize..8,
        thresh in -100i64..100,
    ) {
        assert_kernels_match_rows(&events, &[project_step(&picks)])?;
        let selected = [filter_step(pred_menu(p, thresh)), project_step(&picks)];
        assert_kernels_match_rows(&events, &selected)?;
    }

    /// Lifetime rewrites patch the lifetime vectors exactly as the lifetime
    /// definitions say, including Hop's event drops — dense and at
    /// selected indices only.
    #[test]
    fn lifetime_rewrites_match_rows(
        events in arb_events(40),
        op in arb_lifetime_op(),
        p in 0usize..8,
        thresh in -100i64..100,
    ) {
        let rewrite = FusedStep::AlterLifetime { op };
        assert_kernels_match_rows(&events, std::slice::from_ref(&rewrite))?;
        let selected = [filter_step(pred_menu(p, thresh)), rewrite];
        assert_kernels_match_rows(&events, &selected)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Ill-typed payloads (an `Int` in the `Long` column) have no columnar
    /// form, so a stream holding them is refused where it enters the
    /// engine, whatever the plan: an input error naming the source, the
    /// first bad row and its column.
    #[test]
    fn ill_typed_payloads_are_a_named_input_error(
        events in arb_events(40),
        stride in 1usize..4,
        p in 0usize..8,
        thresh in -100i64..100,
    ) {
        let mut events = events;
        let Some(row) = make_ill_typed(&mut events, stride) else {
            return Ok(());
        };
        let stream = stream_of(&events);
        let q = Query::new();
        let out = q.source("in", schema()).filter(pred_menu(p, thresh)).hop_window(7, 7);
        let plan = q.build(vec![out]).unwrap();
        let srcs = bindings(vec![("in", stream.clone())]);
        prop_assert_eq!(execute_single(&plan, &srcs), Err(ill_typed_error("in", row)));
        prop_assert!(EventBatch::from_stream(&stream).is_err());
    }
}

#[test]
fn empty_batches_run_every_step_kind() {
    let steps = [
        filter_step(pred_menu(0, 0)),
        project_step(&[0, 2, 5]),
        FusedStep::AlterLifetime {
            op: timr_suite::temporal::plan::LifetimeOp::Hop { hop: 4, width: 6 },
        },
    ];
    let out = fused_fragment(batch_of(&[]), &steps).unwrap();
    assert!(out.is_empty());
    assert_eq!(out.schema().len(), 3);
}

// ---- The binary operators: the oracle's answer ----

fn key_payload() -> Schema {
    Schema::new(vec![
        Field::new("A", ColumnType::Long),
        Field::new("B", ColumnType::Long),
        Field::new("V", ColumnType::Long),
    ])
}

/// `(start, width, palette index, null mask over (A, B), v, duplicated)`.
type KeyEvent = (i64, i64, usize, u8, i64, bool);

/// Interval events (so left events fragment under a set difference) over
/// the hash-colliding key palette, with the odd null key cell, few distinct
/// `V`s and explicit duplicates; lengths start at zero (empty sides).
fn arb_key_events(max_len: usize) -> impl Strategy<Value = Vec<KeyEvent>> {
    // One key in five has a null cell; one event in six comes twice.
    let nulls = (0u8..20).prop_map(|n| if n < 4 { n } else { 0 });
    let duplicated = (0u8..6).prop_map(|n| n == 0);
    prop::collection::vec(
        (0i64..60, 1i64..30, 0usize..64, nulls, 0i64..5, duplicated),
        0..max_len,
    )
}

/// The events as a stream; `ill_typed` stores every third `V` as an `Int`,
/// which rows hold and typed columns cannot.
fn key_stream(events: &[KeyEvent], ill_typed: bool) -> EventStream {
    let palette = palette();
    let mut out = Vec::new();
    for (i, &(start, width, pi, nulls, v, duplicated)) in events.iter().enumerate() {
        let (a, b) = palette[pi % palette.len()];
        let mut cells = vec![Value::Long(a), Value::Long(b), Value::Long(v)];
        for (k, cell) in cells.iter_mut().take(2).enumerate() {
            if nulls & (1 << k) != 0 {
                *cell = Value::Null;
            }
        }
        if ill_typed && i % 3 == 0 {
            cells[2] = Value::Int(v as i32);
        }
        let event = Event::interval(start, start + width, Row::new(cells));
        out.extend(std::iter::repeat_n(event, 1 + duplicated as usize));
    }
    EventStream::new(key_payload(), out)
}

/// A stream laid out as the engine lays it out, or the error an ill-typed
/// one is refused with — which names its first bad row (row 0: every
/// third `V` is an `Int`, the first among them).
fn laid_out(stream: &EventStream) -> Result<Option<EventBatch>, TestCaseError> {
    match EventBatch::from_stream(stream) {
        Ok(batch) => Ok(Some(batch)),
        Err(err) => {
            let want = "events: row 0: type mismatch in `V`: expected long, got int";
            prop_assert_eq!(err, TemporalError::Input(want.into()));
            Ok(None)
        }
    }
}

fn key_pairs(n: usize) -> Vec<(String, String)> {
    (["A", "B"].iter().take(n))
        .map(|k| (k.to_string(), k.to_string()))
        .collect()
}

/// No residual, one that filters, and one that *errors* on exactly the
/// candidate pairs whose `V`s sum to `k` (the missing column is only
/// resolved where `OR` does not short-circuit past it).
fn residual(kind: usize, k: i64) -> Option<Expr> {
    match kind % 3 {
        0 => None,
        1 => Some(col("V").le(col("V.r"))),
        _ => Some((col("V").add(col("V.r")).ne(lit(k))).or(col("Missing").gt(lit(0i64)))),
    }
}

type Events = Result<Vec<Event>, TemporalError>;

fn events_of(out: Result<EventBatch, TemporalError>) -> Events {
    out.map(|data| data.into_stream().into_events())
}

/// The engine's answer (`first`, over `schema`) against the oracle's: the
/// same relation, or the same error.
fn assert_oracle(first: &Events, want: Events, schema: &Schema) -> Result<(), TestCaseError> {
    match (first, want) {
        (Ok(got), Ok(want)) => {
            let (got, want) = (
                EventStream::new(schema.clone(), got.clone()),
                EventStream::new(schema.clone(), want),
            );
            let same = oracle::same_relation(&got, &want, &Tolerance::exact());
            prop_assert!(same.is_ok(), "{}", same.unwrap_err());
        }
        (Err(got), Err(want)) => prop_assert_eq!(got, &want),
        (got, want) => prop_assert!(false, "engine {:?} vs oracle {:?}", got, want),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// TemporalJoin over hash-colliding keys, null key cells, residuals
    /// that filter and that fail: the oracle's relation, or its error. A
    /// side with an ill-typed cell is refused before the join, by name.
    #[test]
    fn temporal_join_is_one_answer_in_every_layout(
        left in arb_key_events(14),
        right in arb_key_events(14),
        n_keys in 0usize..3,
        kind in 0usize..3,
        k in 0i64..9,
        ill in 0usize..4,
    ) {
        let (left, right) = (key_stream(&left, ill == 1), key_stream(&right, ill == 2));
        let (keys, residual) = (key_pairs(n_keys), residual(kind, k));
        let joined = left.schema().join(right.schema());
        let sides = [left.events(), right.events()];
        let schemas = [left.schema(), right.schema()];
        let want = oracle::temporal_join(schemas, sides, &keys, residual.as_ref(), &joined);
        let (Some(l), Some(r)) = (laid_out(&left)?, laid_out(&right)?) else {
            return Ok(());
        };
        let out = events_of(temporal_join(&l, &r, &keys, residual.as_ref(), None));
        assert_oracle(&out, want, &joined)?;
    }

    /// AntiSemiJoin likewise.
    #[test]
    fn anti_semi_join_is_one_answer_in_every_layout(
        left in arb_key_events(14),
        right in arb_key_events(14),
        n_keys in 0usize..3,
        ill in 0usize..4,
    ) {
        let (left, right) = (key_stream(&left, ill == 1), key_stream(&right, ill == 2));
        let keys = key_pairs(n_keys);
        let sides = [left.events(), right.events()];
        let want = oracle::anti_semi_join([left.schema(), right.schema()], sides, &keys);
        let (Some(l), Some(r)) = (laid_out(&left)?, laid_out(&right)?) else {
            return Ok(());
        };
        let out = events_of(anti_semi_join(&l, &r, &keys));
        assert_oracle(&out, want, left.schema())?;
    }

    /// Union of three inputs: `EventBatch::merge`'s order (the larger side
    /// first), the oracle's bag; a schema mismatch is an error.
    #[test]
    fn union_is_one_answer_in_every_layout(
        a in arb_key_events(10),
        b in arb_key_events(10),
        c in arb_key_events(10),
    ) {
        let streams = [key_stream(&a, false), key_stream(&b, false), key_stream(&c, false)];
        let want = streams.iter().flat_map(|s| s.events().to_vec()).collect();
        let inputs: Vec<EventBatch> = (streams.iter()).map(|s| EventBatch::from_stream(s).unwrap()).collect();
        let mut merged = streams[0].clone();
        merged.merge(streams[1].clone()).unwrap();
        merged.merge(streams[2].clone()).unwrap();
        // A one-operator plan over three bindings.
        let q = Query::new();
        let names = ["a", "b", "c"];
        let [a, b, c] = names.map(|n| q.source(n, key_payload()));
        let plan = q.build(vec![a.union_all(vec![b, c])]).unwrap();
        let bound: BatchBindings = names.iter().map(|n| n.to_string()).zip(inputs).collect();
        let out = execute(&plan, bound).map(|(mut roots, _)| roots.remove(0));
        prop_assert_eq!(&out.as_ref().unwrap().clone().into_stream(), &merged);
        assert_oracle(&events_of(out), Ok(want), &key_payload())?;
        let q = Query::new();
        let other = q.source("x", Schema::new(vec![Field::new("X", ColumnType::Long)]));
        prop_assert!(q.build(vec![q.source("a", key_payload()).union(other)]).is_err());
    }

    /// A join whose right side reaches far — `[−100, +∞)`, lifetimes that
    /// start at `i64::MIN`, the whole line — against left events at both
    /// ends of time, run by the executor with the join as the root and
    /// under a fragment that filters on one column and projects from
    /// three more: the oracle's relation either way, and the fragment's
    /// join builds only the 4 of its 6 columns the fragment reads.
    #[test]
    fn a_join_over_unbounded_lifetimes_matches_the_oracle_with_and_without_a_consumer(
        left in arb_key_events(14),
        right in arb_key_events(14),
        left_reach in prop::collection::vec(0usize..8, 14..15),
        right_reach in prop::collection::vec(0usize..6, 14..15),
        n_keys in 0usize..3,
        kind in 0usize..2,
    ) {
        let reach = |stream: EventStream, picks: &[usize], far: fn(usize, Lifetime) -> Lifetime| {
            let events = (stream.events().iter().enumerate())
                .map(|(i, e)| Event::new(far(picks[i % picks.len()], e.lifetime), e.payload.clone()))
                .collect();
            EventStream::new(stream.schema().clone(), events)
        };
        let left = reach(key_stream(&left, false), &left_reach, |pick, lt| match pick {
            0 => Lifetime::new(i64::MIN, i64::MIN + 5),
            1 => Lifetime::new(i64::MAX - 3, i64::MAX),
            2 => Lifetime::point(-100),
            _ => lt,
        });
        let right = reach(key_stream(&right, false), &right_reach, |pick, lt| match pick {
            0 => Lifetime::new(-100, i64::MAX),
            1 => Lifetime::new(i64::MIN, lt.end),
            2 => Lifetime::new(i64::MIN, i64::MAX),
            _ => lt,
        });
        let keys = [("A", "A"), ("B", "B")];
        let srcs = bindings(vec![("l", left.clone()), ("r", right.clone())]);
        for projected in [false, true] {
            let q = Query::new();
            let (l, r) = (q.source("l", key_payload()), q.source("r", key_payload()));
            let joined = l.temporal_join(r, &keys[..n_keys], residual(kind, 0));
            let out = match projected {
                false => joined,
                true => joined.filter(col("B.r").ge(lit(0i64))).project(vec![
                    ("A".to_string(), col("A")),
                    ("W".to_string(), col("V").add(col("V.r"))),
                ]),
            };
            let plan = q.build(vec![out]).unwrap();
            let want = oracle::run_single(&plan, &srcs).unwrap();
            let mut bound = BatchBindings::default();
            bound.insert("l".to_string(), EventBatch::from_stream(&left).unwrap());
            bound.insert("r".to_string(), EventBatch::from_stream(&right).unwrap());
            let (mut roots, stats) = execute(&plan, bound).unwrap();
            prop_assert_eq!(stats.join_columns_pruned, if projected { 2 } else { 0 });
            let got = roots.pop().unwrap().into_stream();
            let same = oracle::same_relation(&got, &want, &Tolerance::exact());
            prop_assert!(same.is_ok(), "{}", same.unwrap_err());
        }
    }

    /// The same through the executor: one plan joins, subtracts and unions
    /// two bindings — each read several times, so shared — and its roots
    /// are the oracle's relations.
    #[test]
    fn binary_operator_plans_match_the_reference_in_every_binding_layout(
        left in arb_key_events(14),
        right in arb_key_events(14),
        n_keys in 0usize..3,
        filtered in any::<bool>(),
    ) {
        let (left, right) = (key_stream(&left, false), key_stream(&right, false));
        let q = Query::new();
        let (l, r) = (q.source("l", key_payload()), q.source("r", key_payload()));
        let keys = [("A", "A"), ("B", "B")];
        let joined =
            (l.clone()).temporal_join(r.clone(), &keys[..n_keys], residual(filtered as usize, 0));
        // (The planner refuses a set difference without keys.)
        let minus_keys = &keys[..n_keys.max(1)];
        let rest = l.clone().anti_semi_join(r.clone(), minus_keys).union(r).union(l);
        let plan = q.build(vec![joined, rest]).unwrap();
        let srcs = bindings(vec![("l", left.clone()), ("r", right.clone())]);
        let want = oracle::run(&plan, &srcs).unwrap();
        let mut bound = BatchBindings::default();
        bound.insert("l".to_string(), EventBatch::from_stream(&left).unwrap());
        bound.insert("r".to_string(), EventBatch::from_stream(&right).unwrap());
        let (roots, _) = execute(&plan, bound).unwrap();
        prop_assert_eq!(roots.len(), want.len());
        for (got, want) in roots.into_iter().zip(&want) {
            let got = got.into_stream();
            let same = oracle::same_relation(&got, want, &Tolerance::exact());
            prop_assert!(same.is_ok(), "{}", same.unwrap_err());
        }
    }
}
