//! Property tests for the engine's one expression evaluator, the batch
//! kernels, and the fused fragment's single steps: each step run in place
//! on a batch must be *observably identical* to the language's definition,
//! `Expr::eval` applied row by row (and to the oracle's lifetime
//! definitions), on one-event and random batches, and on storage the step
//! owns and on storage another consumer still holds. The expressions are
//! the well-typed trees of the generator; a tree with no type is refused by
//! every step with `Expr::infer_type`'s error, whatever the batch.

mod common;

use common::oracle;
use common::{
    arb_events, arb_ill_typed_expr, arb_lifetime_op, arb_predicate, arb_row, arb_typed_expr,
    raw_proj, schema, stream_of,
};
use proptest::prelude::*;
use timr_suite::relation::schema::Field;
use timr_suite::relation::{Row, Schema};
use timr_suite::temporal::operators::fused_fragment;
use timr_suite::temporal::plan::{FusedStep, LifetimeOp};
use timr_suite::temporal::{EventBatch, EventStream, Expr, Result};

/// One fused step over `input`, back as rows.
fn step(input: EventBatch, step: FusedStep) -> Result<EventStream> {
    fused_fragment(input, &[step]).map(EventBatch::into_stream)
}

fn filter(input: EventBatch, predicate: &Expr) -> Result<EventStream> {
    let predicate = predicate.clone();
    step(input, FusedStep::Filter { predicate })
}

fn alter_lifetime(input: EventBatch, op: &LifetimeOp) -> Result<EventStream> {
    step(input, FusedStep::AlterLifetime { op: op.clone() })
}

fn project(input: EventBatch, exprs: &[(String, Expr)]) -> Result<EventStream> {
    let exprs = exprs.to_vec();
    step(input, FusedStep::Project { exprs })
}

fn batch(events: &[(i64, i64, Row)]) -> EventBatch {
    EventBatch::from_stream(&stream_of(events)).unwrap()
}

/// The filter step by `Expr::eval_predicate`, event by event.
fn filter_reference(events: &[(i64, i64, Row)], predicate: &Expr) -> Result<EventStream> {
    oracle::filter(&schema(), stream_of(events).events(), predicate)
        .map(|kept| EventStream::new(schema(), kept))
}

/// The projection step by `Expr::eval`, event by event, under the schema
/// `Expr::infer_type` gives.
fn project_reference(events: &[(i64, i64, Row)], exprs: &[(String, Expr)]) -> Result<EventStream> {
    let fields = (exprs.iter())
        .map(|(name, e)| Ok(Field::new(name.clone(), e.infer_type(&schema())?)))
        .collect::<Result<Vec<_>>>()?;
    let rows = oracle::project(&schema(), stream_of(events).events(), exprs)?;
    Ok(EventStream::new(Schema::new(fields), rows))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A well-typed expression evaluated by the batch kernels, as a
    /// projection over one event and over a random batch, is `Expr::eval`:
    /// equal values, bit for bit, and the schema `infer_type` gives.
    #[test]
    fn compiled_expr_matches_interpreter(
        e in arb_typed_expr(),
        r in arb_row(),
        events in arb_events(24),
    ) {
        let exprs = vec![("X".to_string(), e)];
        for events in [vec![(0, 1, r)], events] {
            let got = project(batch(&events), &exprs);
            prop_assert_eq!(got, project_reference(&events, &exprs), "expr: {}", &exprs[0].1);
        }
    }

    /// Predicate semantics (Null → false) agree too, as a filter over one
    /// event and over a random batch: the same survivors.
    #[test]
    fn compiled_predicate_matches_interpreter(
        e in arb_predicate(),
        r in arb_row(),
        events in arb_events(24),
    ) {
        for events in [vec![(0, 1, r)], events] {
            let got = filter(batch(&events), &e);
            prop_assert_eq!(got, filter_reference(&events, &e), "expr: {}", &e);
        }
    }

    /// The filter step keeps exactly the rows `Expr::eval_predicate`
    /// accepts, in order, on both the uniquely-owned and the shared-storage
    /// path, and never mutates a batch another consumer still holds.
    #[test]
    fn filter_matches_interpreted(events in arb_events(40), e in arb_predicate()) {
        let input = batch(&events);
        let baseline = filter_reference(&events, &e);
        // Shared path: a clone of `input` is alive during the call.
        let shared = filter(input.clone(), &e);
        // Owned path: the step holds the only handle.
        let owned = filter(batch(&events), &e);
        prop_assert_eq!(input.into_stream(), stream_of(&events), "shared input mutated");
        prop_assert_eq!(&shared, &baseline);
        prop_assert_eq!(&owned, &baseline);
    }

    /// In-place lifetime alteration is the oracle's `LifetimeOp`
    /// definitions applied event by event, on both storage paths.
    #[test]
    fn alter_lifetime_matches_interpreted(events in arb_events(40), op in arb_lifetime_op()) {
        let input = batch(&events);
        let rows = stream_of(&events);
        let baseline = EventStream::new(schema(), oracle::alter_lifetime(rows.events(), &op).unwrap());
        let shared = alter_lifetime(input.clone(), &op).unwrap();
        let owned = alter_lifetime(batch(&events), &op).unwrap();
        prop_assert_eq!(input.into_stream(), rows, "shared input mutated");
        prop_assert_eq!(&baseline, &shared);
        prop_assert_eq!(&baseline, &owned);
    }

    /// Projection — including the move-out of passthrough columns on the
    /// owned path — is `Expr::eval` per row, under the schema
    /// `Expr::infer_type` gives; a list holding an expression with no type
    /// is refused with its error.
    #[test]
    fn project_matches_interpreted(
        events in arb_events(40),
        picks in prop::collection::vec(0usize..10, 1..6),
    ) {
        let exprs: Vec<(String, Expr)> =
            picks.iter().enumerate().map(|(j, &i)| raw_proj(i + 10 * j)).collect();
        let input = batch(&events);
        let baseline = project_reference(&events, &exprs);
        let shared = project(input.clone(), &exprs);
        let owned = project(batch(&events), &exprs);
        prop_assert_eq!(input.into_stream(), stream_of(&events), "shared input mutated");
        prop_assert_eq!(&shared, &baseline);
        prop_assert_eq!(&owned, &baseline);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A tree that `Expr::infer_type` refuses is refused by a filter step
    /// and by a projection with exactly that error, over an empty batch and
    /// over a non-empty one: a type error is found before any row is read.
    #[test]
    fn an_ill_typed_step_is_infer_type_s_error_over_any_batch(
        e in arb_ill_typed_expr(),
        events in arb_events(24),
    ) {
        let want = e.infer_type(&schema()).unwrap_err();
        for events in [Vec::new(), events] {
            prop_assert_eq!(filter(batch(&events), &e), Err(want.clone()), "filter {}", &e);
            let exprs = vec![("X".to_string(), e.clone())];
            prop_assert_eq!(project(batch(&events), &exprs), Err(want.clone()), "project {}", &e);
        }
    }
}
