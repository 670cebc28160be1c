//! Property tests for the compiled expression evaluator and the fused
//! fragment's single steps: the one-row evaluator (what recovers an exact
//! error and evaluates a join's residual) and each step run in place on a
//! batch must be *observably identical* to `Expr::eval` applied row by row
//! (and to the oracle's lifetime definitions), values and error cases, on
//! storage the step owns and on storage another consumer still holds.

mod common;

use common::oracle;
use common::{arb_events, arb_expr, arb_lifetime_op, arb_row, raw_proj, schema, stream_of};
use proptest::prelude::*;
use timr_suite::relation::schema::Field;
use timr_suite::relation::Schema;
use timr_suite::temporal::operators::fused_fragment;
use timr_suite::temporal::plan::{FusedStep, LifetimeOp};
use timr_suite::temporal::{CompiledExpr, EventBatch, EventStream, Expr, Result};

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

fn batch(events: &[(i64, i64, timr_suite::relation::Row)]) -> EventBatch {
    EventBatch::from_stream(&stream_of(events)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `CompiledExpr::eval` is observably identical to `Expr::eval`:
    /// equal values when both succeed, and errors at exactly the same
    /// inputs (short-circuiting included).
    #[test]
    fn compiled_expr_matches_interpreter(e in arb_expr(), r in arb_row()) {
        let s = schema();
        let interp = e.eval(&s, &r);
        let comp = CompiledExpr::compile(&e, &s).eval(&r);
        match (interp, comp) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "expr: {}", e),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "diverged on {}: {:?} vs {:?}", e, a, b),
        }
    }

    /// Predicate semantics (Null → false, non-boolean → error) agree too.
    #[test]
    fn compiled_predicate_matches_interpreter(e in arb_expr(), r in arb_row()) {
        let s = schema();
        let interp = e.eval_predicate(&s, &r);
        let comp = CompiledExpr::compile(&e, &s).eval_predicate(&r);
        match (interp, comp) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "expr: {}", e),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "diverged on {}: {:?} vs {:?}", e, a, b),
        }
    }

    /// The filter step keeps exactly the rows `Expr::eval_predicate`
    /// accepts, in order, on both the uniquely-owned and the shared-storage
    /// path, and never mutates a batch another consumer still holds.
    #[test]
    fn filter_matches_interpreted(events in arb_events(40), e in arb_expr()) {
        let input = batch(&events);
        let baseline = oracle::filter(&schema(), stream_of(&events).events(), &e)
            .map(|kept| EventStream::new(schema(), kept));
        // Shared path: a clone of `input` is alive during the call.
        let shared = filter(input.clone(), &e);
        // Owned path: the step holds the only handle.
        let owned = filter(batch(&events), &e);
        prop_assert_eq!(input.into_stream(), stream_of(&events), "shared input mutated");
        match (baseline, shared, owned) {
            (Ok(b), Ok(s), Ok(o)) => {
                prop_assert_eq!(&b, &s);
                prop_assert_eq!(&b, &o);
            }
            (Err(_), Err(_), Err(_)) => {}
            (b, s, o) => prop_assert!(
                false, "diverged: base {:?} shared {:?} owned {:?}", b, s, o
            ),
        }
    }

    /// In-place lifetime alteration is the oracle's `LifetimeOp`
    /// definitions applied event by event, on both storage paths.
    #[test]
    fn alter_lifetime_matches_interpreted(events in arb_events(40), op in arb_lifetime_op()) {
        let input = batch(&events);
        let rows = stream_of(&events);
        let baseline = EventStream::new(schema(), oracle::alter_lifetime(rows.events(), &op));
        let shared = alter_lifetime(input.clone(), &op).unwrap();
        let owned = alter_lifetime(batch(&events), &op).unwrap();
        prop_assert_eq!(input.into_stream(), rows, "shared input mutated");
        prop_assert_eq!(&baseline, &shared);
        prop_assert_eq!(&baseline, &owned);
    }

    /// Projection — including the move-out of passthrough columns on the
    /// owned path — is `Expr::eval` per row, under the schema
    /// `Expr::infer_type` gives.
    #[test]
    fn project_matches_interpreted(
        events in arb_events(40),
        picks in prop::collection::vec(0usize..10, 1..6),
    ) {
        let exprs: Vec<(String, Expr)> =
            picks.iter().enumerate().map(|(j, &i)| raw_proj(i + 10 * j)).collect();
        let input = batch(&events);
        let rows = stream_of(&events);
        let baseline = (exprs.iter())
            .map(|(name, e)| Ok(Field::new(name.clone(), e.infer_type(&schema())?)))
            .collect::<Result<Vec<_>>>()
            .and_then(|fields| {
                let rows = oracle::project(&schema(), rows.events(), &exprs)?;
                Ok(EventStream::new(Schema::new(fields), rows))
            });
        let shared = project(input.clone(), &exprs);
        let owned = project(batch(&events), &exprs);
        prop_assert_eq!(input.into_stream(), rows, "shared input mutated");
        match (baseline, shared, owned) {
            (Ok(b), Ok(s), Ok(o)) => {
                prop_assert_eq!(&b, &s);
                prop_assert_eq!(&b, &o);
            }
            (Err(_), Err(_), Err(_)) => {}
            (b, s, o) => prop_assert!(
                false, "diverged: base {:?} shared {:?} owned {:?}", b, s, o
            ),
        }
    }
}
