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

mod common;

use common::{
    arb_events, arb_expr, arb_lifetime_op, batch_of, make_ill_typed, pred_menu, raw_proj, stream_of,
};
use proptest::prelude::*;
use timr_suite::relation::Row;
use timr_suite::temporal::exec::StreamData;
use timr_suite::temporal::operators::{fused_fragment_batch, fused_fragment_rows, interpreted};
use timr_suite::temporal::plan::FusedStep;
use timr_suite::temporal::{lit, EventBatch, Expr};

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
    /// included), and agreement with the reference filter.
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
        match (on_batch, interpreted::filter(&stream_of(&events), &e)) {
            (Ok(b), Ok(o)) => prop_assert_eq!(b, o),
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
    /// fallback that owns the errors — and must match the reference
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
        let reference = interpreted::filter(&stream, &e)
            .and_then(|s| interpreted::alter_lifetime(&s, &op))
            .and_then(|s| interpreted::project(&s, &exprs));
        match (fused_fragment_rows(stream, &steps), reference) {
            (Ok(r), Ok(o)) => prop_assert_eq!(r, o),
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
