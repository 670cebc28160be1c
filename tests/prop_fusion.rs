//! Property tests for fragment fusion and the plan-level engine contract:
//! the engine must compute the oracle's relation on randomized plans, fail
//! where the oracle fails, and refuse a stream whose cells do not inhabit
//! their declared types with an error naming the source, the row and the
//! column.
//!
//! The row generator flips each column to Null independently (null-heavy
//! batches), stream lengths start at zero (empty batches), some streams
//! carry ill-typed payloads, the step generator produces error-raising
//! expressions (missing columns, type errors, division by zero), and plan
//! kinds include fragments nested inside `GroupApply` sub-plans. The SIMD
//! shim itself is additionally unit-tested against the scalar reference on
//! boundary values (`i64::MIN/MAX`, `NaN`, `±0.0`).

mod common;

use common::oracle::{self, Tolerance};
use common::{
    arb_events, arb_lifetime_op, assert_matches_oracle, batch_of, build_plan, ill_typed_error,
    make_ill_typed, raw_pred, raw_proj, row_steps, run_against_oracle, schema, stream_of,
    PLAN_KINDS,
};
use proptest::prelude::*;
use timr_suite::temporal::exec::{bindings, execute_single};
use timr_suite::temporal::operators::fused_fragment;
use timr_suite::temporal::plan::{fuse_plan, FusedStep, Operator};
use timr_suite::temporal::{col, lit, EventBatch, Query};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The engine on full plans is the oracle's relation (or fails where it
    /// fails), across null-heavy rows, empty batches and fragments inside
    /// GroupApply; a stream with ill-typed payloads is refused by name.
    #[test]
    fn plans_match_the_reference(
        events in arb_events(60),
        // One stream in five carries ill-typed payloads every `stride` events.
        ill_typed in 0usize..5,
        stride in 1usize..5,
        kind in 0usize..PLAN_KINDS,
        w in 2i64..50,
        thresh in -100i64..100,
        p1 in 0usize..8,
        p2 in 0usize..8,
    ) {
        let mut events = events;
        let plan = build_plan(kind, w, thresh, p1, p2);
        let run = run_against_oracle(&plan, stream_of(&events));
        match (ill_typed == 0).then(|| make_ill_typed(&mut events, stride)).flatten() {
            Some(row) => {
                let run = run_against_oracle(&plan, stream_of(&events));
                prop_assert_eq!(run.engine, Err(ill_typed_error("in", row)));
            }
            None => assert_matches_oracle(run)?,
        }
    }

    /// The fusion rewrite never changes a plan's semantics: the engine runs
    /// the rewritten plan (every FusedFragment as one node) to the relation
    /// the oracle computes from the original, or to the oracle's error.
    #[test]
    fn fusion_preserves_reference_semantics(
        events in arb_events(40),
        kind in 0usize..PLAN_KINDS,
        w in 2i64..50,
        thresh in -100i64..100,
        p1 in 0usize..8,
        p2 in 0usize..8,
    ) {
        let plan = build_plan(kind, w, thresh, p1, p2);
        let rewritten = fuse_plan(&plan).unwrap();
        let srcs = bindings(vec![("in", stream_of(&events))]);
        match (oracle::run(&plan, &srcs), execute_single(&rewritten, &srcs)) {
            (Ok(want), Ok(got)) => {
                let tolerance = Tolerance::of(&plan, plan.roots()[0]);
                let same = oracle::same_relation(&got, &want[0], &tolerance);
                prop_assert!(same.is_ok(), "{}", same.unwrap_err());
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "diverged: oracle {:?} rewritten {:?}", a, b),
        }
    }
}

fn arb_step() -> impl Strategy<Value = FusedStep> {
    prop_oneof![
        (0usize..10, -50i64..50).prop_map(|(i, t)| FusedStep::Filter {
            predicate: raw_pred(i, t)
        }),
        prop::collection::vec(0usize..10, 1..4).prop_map(|picks| FusedStep::Project {
            exprs: picks
                .iter()
                .enumerate()
                .map(|(j, &i)| raw_proj(i * 10 + j))
                .collect(),
        }),
        arb_lifetime_op().prop_map(|op| FusedStep::AlterLifetime { op }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The fused batch engine over an arbitrary step chain is the chain's
    /// steps run one after another, event by event ([`row_steps`]):
    /// same surviving events in the same order, same lifetimes, and — for
    /// chains containing error expressions — the same first error, because
    /// the selection vector must not reorder which row fails first.
    #[test]
    fn fused_engine_matches_sequential_operators(
        events in arb_events(40),
        steps in prop::collection::vec(arb_step(), 1..5),
    ) {
        let fused = fused_fragment(batch_of(&events), &steps).map(EventBatch::into_stream);
        match (fused, row_steps(&steps, stream_of(&events).events().to_vec())) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a.events(), &b[..]),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "diverged: fused {:?} sequential {:?}", a, b),
        }
    }
}

/// The acceptance contract on fragment boundaries: a stateless chain of
/// length ≥ 2 compiles to exactly one FusedFragment, asserted through the
/// plan display.
#[test]
fn chain_compiles_to_exactly_one_fragment() {
    let q = Query::new();
    let out = q
        .source("in", schema())
        .filter(col("L").ge(lit(0i64)))
        .project(vec![
            ("S".to_string(), col("S")),
            ("L".to_string(), col("L")),
        ])
        .window(25);
    let plan = q.build(vec![out]).unwrap();
    let fused = fuse_plan(&plan).unwrap();
    let fragments = fused
        .nodes()
        .iter()
        .filter(|n| matches!(n.op, Operator::FusedFragment { .. }))
        .count();
    assert_eq!(fragments, 1, "expected one fragment:\n{fused}");
    let text = fused.to_string();
    assert_eq!(
        text.matches("FusedFragment").count(),
        1,
        "plan display:\n{text}"
    );
    assert!(
        text.contains("FusedFragment [Filter") && text.contains("Window w=25"),
        "fragment should list its steps in order:\n{text}"
    );
    // The chain members only appear *inside* the fragment: one Filter, one
    // Project, and no standalone AlterLifetime node anywhere in the plan.
    assert_eq!(text.matches("Filter").count(), 1, "plan display:\n{text}");
    assert_eq!(text.matches("Project").count(), 1, "plan display:\n{text}");
    assert!(!text.contains("AlterLifetime"), "plan display:\n{text}");
}

#[test]
fn an_empty_stream_matches_the_reference() {
    let run = run_against_oracle(&build_plan(0, 10, 0, 0, 1), stream_of(&[]));
    assert!(run.engine.as_ref().unwrap().is_empty());
    assert_matches_oracle(run).unwrap();
}

mod simd_shim {
    //! Boundary-value unit tests for the portable SIMD shim against the
    //! scalar reference: `i64::MIN/MAX` wrapping, `NaN` and `±0.0`
    //! comparison semantics, and the total-order key used by the
    //! comparison kernels.
    use timr_suite::simd::{total_key, F64x8, I64x8, LANES, M8};

    const EDGE_F: [f64; 8] = [
        f64::NAN,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::INFINITY,
        -f64::NAN,
    ];
    const EDGE_I: [i64; 8] = [
        i64::MIN,
        i64::MIN + 1,
        -1,
        0,
        1,
        i64::MAX - 1,
        i64::MAX,
        1 << 53,
    ];

    #[test]
    fn total_key_orders_exactly_like_total_cmp() {
        for &a in &EDGE_F {
            for &b in &EDGE_F {
                assert_eq!(
                    total_key(a) < total_key(b),
                    a.total_cmp(&b).is_lt(),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn total_keys_lanes_match_scalar_key() {
        let keys = F64x8::load(&EDGE_F).total_keys();
        for (i, k) in keys.0.iter().enumerate() {
            assert_eq!(*k, total_key(EDGE_F[i]), "lane {i}");
        }
    }

    #[test]
    fn f64_eq_keeps_ieee_semantics() {
        // IEEE ==: NaN equals nothing (itself included), -0.0 == 0.0.
        let x = F64x8::load(&EDGE_F);
        let m = x.eq(x);
        assert!(!m.0[0], "NaN == NaN must be false");
        let mz = F64x8::load(&EDGE_F).eq(F64x8::splat(0.0));
        assert!(mz.0[2] && mz.0[3], "-0.0 == 0.0 must hold lanewise");
    }

    #[test]
    fn i64_wrapping_matches_scalar() {
        let a = I64x8::load(&EDGE_I);
        let b = I64x8::splat(3);
        let mut add = [0i64; LANES];
        let mut mul = [0i64; LANES];
        a.wrapping_add(b).store(&mut add);
        a.wrapping_mul(b).store(&mut mul);
        for (i, &v) in EDGE_I.iter().enumerate() {
            assert_eq!(add[i], v.wrapping_add(3), "lane {i}");
            assert_eq!(mul[i], v.wrapping_mul(3), "lane {i}");
        }
    }

    #[test]
    fn division_by_zero_lanes_never_trap() {
        let zero = F64x8::splat(0.0);
        let x = F64x8::load(&EDGE_F);
        let q = x / zero; // IEEE: ±inf / NaN, no trap
        let mask = zero.eq(zero); // all-true: mask the quotient away
        let mut out = [1.0f64; LANES];
        mask.select_f64(zero, q).store(&mut out);
        assert!(out.iter().all(|&v| v == 0.0), "zero-divisor lanes masked");
    }

    #[test]
    fn widening_loads_match_scalar_casts() {
        let w = F64x8::load_i64(&EDGE_I);
        for (i, v) in w.0.iter().enumerate() {
            assert_eq!(v.to_bits(), (EDGE_I[i] as f64).to_bits(), "lane {i}");
        }
        let narrow = [i32::MIN, -1, 0, 1, i32::MAX, 2, 3, 4];
        let wide = I64x8::load_i32(&narrow);
        for (i, v) in wide.0.iter().enumerate() {
            assert_eq!(*v, narrow[i] as i64, "lane {i}");
        }
    }

    #[test]
    fn mask_ops_compose() {
        let t = M8::splat(true);
        let f = M8::splat(false);
        assert!(t.and(t).all() && !t.and(f).any());
        assert!(t.or(f).all() && !f.or(f).any());
        assert!((!f).all());
    }
}
