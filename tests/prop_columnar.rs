//! Kernel-level property tests for the columnar half of the engine: every
//! vectorized expression, predicate and lifetime kernel must be
//! *observably identical* — values, selection, and error cases — to the
//! row operators, because a fragment runs on whichever layout its input
//! arrives in and the repeatability guarantee of restarted reducers (paper
//! §III-C.1) makes the two byte-comparable.
//!
//! Each kernel is driven the only way production reaches it: as a step of
//! [`fused_fragment_batch`], both **dense** (first step of a fragment) and
//! **after a selection** (behind a filter step, so leaf reads gather
//! through the selection vector), against [`fused_fragment_rows`] on the
//! same events. Batches are routinely null-heavy, `0..` stream lengths
//! include empty batches, and the expression generator raises errors as
//! often as it produces values — the first failing *surviving* row must
//! surface the row path's exact message.
//!
//! The binary operators — TemporalJoin, AntiSemiJoin, Union — have no
//! second form to compare against: each reads its inputs in whichever
//! layout they arrive and builds its output once. They are held to "three
//! layouts, one answer": every mix of row and batch inputs gives the same
//! event vector, order included, or the same error value — and that answer
//! is the oracle's relation, or fails where the oracle fails.

mod common;

use common::oracle::{self, Tolerance};
use common::{
    arb_events, arb_expr, arb_lifetime_op, batch_of, make_ill_typed, palette, pred_menu, raw_proj,
    schema, stream_of,
};
use proptest::prelude::*;
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{Row, Schema, Value};
use timr_suite::temporal::exec::{bindings, execute_data, DataBindings, ExecStats, StreamData};
use timr_suite::temporal::operators::{
    anti_semi_join, fused_fragment_batch, fused_fragment_rows, temporal_join, union,
};
use timr_suite::temporal::plan::FusedStep;
use timr_suite::temporal::{
    col, lit, Event, EventBatch, EventStream, Expr, Lifetime, Query, TemporalError,
};

/// Run `steps` on the batch kernels and on the row operators over the same
/// events; both must produce the identical event vector or the identical
/// error message. A batch run that fell back to rows mid-fragment
/// (mixed-type projection) is held to the same standard.
fn assert_kernels_match_rows(
    events: &[(i64, i64, Row)],
    steps: &[FusedStep],
) -> Result<(), TestCaseError> {
    let on_batch = fused_fragment_batch(batch_of(events), steps).map(StreamData::into_stream);
    let on_rows = fused_fragment_rows(stream_of(events), steps);
    match (on_batch, on_rows) {
        (Ok(b), Ok(r)) => prop_assert_eq!(b, r),
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
    /// expression holds every row's scalar value bit for bit, and a failing
    /// batch reproduces the *first* scalar error — same row, same message.
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
    /// (Null → false), identical first errors (non-boolean predicates
    /// included), and agreement with `Expr::eval_predicate` row by row.
    #[test]
    fn predicate_kernels_match_rows(
        events in arb_events(40),
        e in arb_expr(),
        p in 0usize..8,
        thresh in -100i64..100,
    ) {
        let dense = [filter_step(e.clone())];
        assert_kernels_match_rows(&events, &dense)?;
        let selected = [filter_step(pred_menu(p, thresh)), filter_step(e.clone())];
        assert_kernels_match_rows(&events, &selected)?;
        // The dense case against the independent oracle too.
        let on_batch = fused_fragment_batch(batch_of(&events), &dense).map(StreamData::into_stream);
        match (on_batch, oracle::filter(&schema(), stream_of(&events).events(), &e)) {
            (Ok(b), Ok(o)) => prop_assert_eq!(b.events(), &o[..]),
            (Err(_), Err(_)) => {}
            (b, o) => prop_assert!(false, "diverged: batch {:?} reference {:?}", b, o),
        }
    }

    /// Multi-expression projections, dense and selected: row-major error
    /// order across expressions (the smallest (row, expr) pair fails
    /// first), column stealing for passthroughs (repeated ones included),
    /// and the row fallback for results with no dense column form.
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

    /// Lifetime rewrites patch the lifetime vectors exactly like the row
    /// operator, including Hop's event drops — dense and at selected
    /// indices only.
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
    /// form, so such a stream runs the fragment on the row operators — the
    /// fallback that owns the errors — and must match the oracle's
    /// operators applied step by step: same events, same error outcome.
    #[test]
    fn ill_typed_payloads_stay_on_rows_and_match_the_reference(
        events in arb_events(40),
        stride in 1usize..4,
        e in arb_expr(),
        picks in prop::collection::vec(0usize..10, 1..4),
        op in arb_lifetime_op(),
    ) {
        let mut events = events;
        make_ill_typed(&mut events, stride);
        let stream = stream_of(&events);
        prop_assert_eq!(EventBatch::from_stream(&stream).is_none(), !events.is_empty());
        let FusedStep::Project { exprs } = project_step(&picks) else { unreachable!() };
        let steps = [
            filter_step(e.clone()),
            FusedStep::AlterLifetime { op: op.clone() },
            FusedStep::Project { exprs: exprs.clone() },
        ];
        let reference = oracle::filter(&schema(), stream.events(), &e)
            .map(|kept| oracle::alter_lifetime(&kept, &op))
            .and_then(|moved| oracle::project(&schema(), &moved, &exprs));
        match (fused_fragment_rows(stream, &steps), reference) {
            (Ok(r), Ok(o)) => prop_assert_eq!(r.events(), &o[..]),
            (Err(_), Err(_)) => {}
            (r, o) => prop_assert!(false, "diverged: rows {:?} reference {:?}", r, o),
        }
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
    let on_batch = fused_fragment_batch(batch_of(&[]), &steps)
        .unwrap()
        .into_stream();
    let on_rows = fused_fragment_rows(stream_of(&[]), &steps).unwrap();
    assert_eq!(on_batch, on_rows);
    assert!(on_batch.is_empty());
}

// ---- The binary operators: three layouts, one answer ----

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

/// Every layout a stream can be handed over in: rows always, a batch when
/// its cells inhabit their columns.
fn layouts(stream: &EventStream) -> Vec<StreamData> {
    let mut out = vec![StreamData::Rows(stream.clone())];
    out.extend(EventBatch::from_stream(stream).map(StreamData::Batch));
    out
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

fn events_of(out: Result<StreamData, TemporalError>) -> Events {
    out.map(|data| data.into_stream().into_events())
}

/// The engine's answer in one layout (`first`, over `schema`) against the
/// oracle's: the same relation, or the same error.
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

    /// TemporalJoin over {both rows, both batch, left batch, right batch}:
    /// one event vector or one error, and the oracle's. A well-typed
    /// answer is a batch whatever the inputs were; an ill-typed row side
    /// (which has no batch form) finishes on rows, with the same events.
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
        let mut first: Option<Events> = None;
        for l in &layouts(&left) {
            for r in &layouts(&right) {
                let out = temporal_join(l, r, &keys, residual.as_ref());
                if let Ok(out) = &out {
                    let typed = EventBatch::from_stream(&out.clone().into_stream()).is_some();
                    prop_assert_eq!(matches!(out, StreamData::Batch(_)), typed);
                }
                let out = events_of(out);
                prop_assert_eq!(first.get_or_insert_with(|| out.clone()), &out);
            }
        }
        assert_oracle(&first.unwrap(), want, &joined)?;
    }

    /// AntiSemiJoin likewise; the answer keeps the left input's layout.
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
        let mut first: Option<Events> = None;
        for l in layouts(&left) {
            for r in &layouts(&right) {
                let as_batch = matches!(l, StreamData::Batch(_));
                let out = anti_semi_join(l.clone(), r, &keys);
                prop_assert!(out.iter().all(|o| matches!(o, StreamData::Batch(_)) == as_batch));
                let out = events_of(out);
                prop_assert_eq!(first.get_or_insert_with(|| out.clone()), &out);
            }
        }
        assert_oracle(&first.unwrap(), want, left.schema())?;
    }

    /// Union of three inputs in every mix of layouts: `EventStream::merge`'s
    /// order (the larger side first), a batch exactly when every input was
    /// one, and the transposed events accounted for otherwise.
    #[test]
    fn union_is_one_answer_in_every_layout(
        a in arb_key_events(10),
        b in arb_key_events(10),
        c in arb_key_events(10),
        ill in 0usize..5,
    ) {
        let streams = [key_stream(&a, ill == 1), key_stream(&b, ill == 2), key_stream(&c, false)];
        let want = streams.iter().flat_map(|s| s.events().to_vec()).collect();
        let mut first: Option<Events> = None;
        let [a, b, c] = streams.each_ref().map(layouts);
        for a in &a {
            for b in &b {
                for c in &c {
                    let inputs = vec![a.clone(), b.clone(), c.clone()];
                    let batches: Vec<u64> = (inputs.iter())
                        .filter(|i| matches!(i, StreamData::Batch(_)))
                        .map(|i| i.len() as u64)
                        .collect();
                    let mut stats = ExecStats::default();
                    let out = union(inputs, &mut stats);
                    let as_batch = matches!(out, Ok(StreamData::Batch(_)));
                    prop_assert_eq!(as_batch, batches.len() == 3);
                    let transposed = if as_batch { 0 } else { batches.iter().sum() };
                    prop_assert_eq!(stats.transposed_events, transposed);
                    prop_assert_eq!(stats.row_fallbacks, 0);
                    let out = events_of(out);
                    prop_assert_eq!(first.get_or_insert_with(|| out.clone()), &out);
                }
            }
        }
        assert_oracle(&first.unwrap(), Ok(want), &key_payload())?;
        // A schema mismatch is the same error value in every layout.
        let other = EventStream::empty(Schema::new(vec![Field::new("X", ColumnType::Long)]));
        let mut first: Option<TemporalError> = None;
        for a in &a {
            for o in layouts(&other) {
                let got = union(vec![a.clone(), o], &mut ExecStats::default()).unwrap_err();
                prop_assert_eq!(first.get_or_insert_with(|| got.clone()), &got);
            }
        }
    }

    /// A join whose right side reaches far — `[−100, +∞)`, lifetimes that
    /// start at `i64::MIN`, the whole line — against left events at both
    /// ends of time, run by the executor with the join as the root and
    /// under a fragment that filters on one column and projects from
    /// three more: the oracle's relation either way, every layout one
    /// answer, and the fragment's join builds only the 4 of its 6 columns
    /// the fragment reads.
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
            let mut first: Option<EventStream> = None;
            for l in layouts(&left) {
                for r in layouts(&right) {
                    let mut bound = DataBindings::default();
                    bound.insert("l".to_string(), l.clone());
                    bound.insert("r".to_string(), r);
                    let (mut roots, stats) = execute_data(&plan, bound).unwrap();
                    prop_assert_eq!(stats.join_columns_pruned, if projected { 2 } else { 0 });
                    let got = roots.pop().unwrap().into_stream();
                    prop_assert_eq!(first.get_or_insert_with(|| got.clone()), &got);
                }
            }
            let same = oracle::same_relation(&first.unwrap(), &want, &Tolerance::exact());
            prop_assert!(same.is_ok(), "{}", same.unwrap_err());
        }
    }

    /// The same through the executor: one plan joins, subtracts and unions
    /// two bindings — each read several times, so shared in whatever layout
    /// it was bound in — and every mix of binding layouts gives the same
    /// roots, event for event, which are the oracle's relations.
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
        let mut first: Option<Vec<EventStream>> = None;
        for l in layouts(&left) {
            for r in layouts(&right) {
                let mut bound = DataBindings::default();
                bound.insert("l".to_string(), l.clone());
                bound.insert("r".to_string(), r);
                let (roots, stats) = execute_data(&plan, bound).unwrap();
                prop_assert_eq!(stats.row_fallbacks, 0);
                let roots: Vec<EventStream> =
                    roots.into_iter().map(StreamData::into_stream).collect();
                prop_assert_eq!(first.get_or_insert_with(|| roots.clone()), &roots);
            }
        }
        for (got, want) in first.unwrap().iter().zip(&want) {
            let same = oracle::same_relation(got, want, &Tolerance::exact());
            prop_assert!(same.is_ok(), "{}", same.unwrap_err());
        }
    }
}
