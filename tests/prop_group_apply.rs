//! Property tests for parallel GroupApply: fanning groups out on the
//! worker pool must be invisible in the output. For any plan, key set and
//! event bag — including distinct keys engineered to share an FxHash
//! value, and groups whose sub-plan output is empty — the event vector at
//! 2+ threads must be **byte-identical** (`events() ==`, not just the
//! same relation) to the sequential run. This is the repeatability
//! guarantee restarted reducers compare bytes against (paper §III-C.1).

use proptest::prelude::*;
use timr_suite::relation::hash::values_hash;
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{row, Schema, Value};
use timr_suite::temporal::agg::AggExpr;
use timr_suite::temporal::exec::{bindings, data_bindings, execute_data, WorkerPool};
use timr_suite::temporal::expr::{col, lit};
use timr_suite::temporal::plan::LogicalPlan;
use timr_suite::temporal::{Event, EventStream, Query};

fn payload() -> Schema {
    Schema::new(vec![
        Field::new("A", ColumnType::Long),
        Field::new("B", ColumnType::Long),
        Field::new("V", ColumnType::Long),
    ])
}

/// One Fx round: `state = (state <<< 5 ^ word) * SEED`.
fn fx_add(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Hash state after absorbing `[rank(Long), a, rank(Long)]` — everything
/// the key hash of `[Long(a), Long(b)]` mixes in before `b` itself.
fn prefix_state(a: i64) -> u64 {
    fx_add(fx_add(fx_add(0, 3), a as u64), 3)
}

/// Given the key `[Long(a1), Long(b1)]` and a different first column
/// `a2`, solve for the `b2` that makes `[Long(a2), Long(b2)]` collide on
/// the full 64-bit key hash. The final Fx round multiplies by an odd
/// (invertible) constant, so equal hashes reduce to equal pre-multiply
/// words: `rotl5(u1) ^ b1 = rotl5(u2) ^ b2`.
fn colliding_partner(a1: i64, b1: i64, a2: i64) -> i64 {
    (b1 as u64 ^ prefix_state(a1).rotate_left(5) ^ prefix_state(a2).rotate_left(5)) as i64
}

/// Key-pair palette: a few small `(a, b)` keys, each paired with a
/// distinct partner key constructed to share its 64-bit FxHash — so
/// random event bags routinely exercise the hash-then-compare collision
/// path in GroupApply's partitioner.
fn palette() -> Vec<(i64, i64)> {
    let mut pairs = Vec::new();
    for a in 0..3i64 {
        for b in 0..2i64 {
            let pa = a + 101;
            pairs.push((a, b));
            pairs.push((pa, colliding_partner(a, b, pa)));
        }
    }
    pairs
}

#[test]
fn palette_pairs_really_collide() {
    for chunk in palette().chunks(2) {
        let [(a1, b1), (a2, b2)] = chunk else {
            panic!("palette comes in pairs")
        };
        assert_ne!((a1, b1), (a2, b2));
        assert_eq!(
            values_hash(&[Value::Long(*a1), Value::Long(*b1)]),
            values_hash(&[Value::Long(*a2), Value::Long(*b2)]),
            "constructed partner must share the key hash"
        );
    }
}

/// A random GroupApply plan: 1- or 2-column key, one of three sub-plan
/// shapes (the filtered variant can leave groups with zero output).
fn build_plan(key_cols: usize, plan_kind: usize, w: i64) -> LogicalPlan {
    let keys: &[&str] = if key_cols == 1 { &["A"] } else { &["A", "B"] };
    let q = Query::new();
    let src = q.source("in", payload());
    let out = match plan_kind {
        0 => src.group_apply(keys, |g| g.window(w).count("N")),
        1 => src.group_apply(keys, |g| {
            g.aggregate(vec![
                ("S".into(), AggExpr::Sum(col("V"))),
                ("C".into(), AggExpr::Count),
            ])
        }),
        _ => src.group_apply(keys, |g| {
            // Groups where no event passes the filter produce no output.
            g.filter(col("V").ge(lit(25i64))).window(w).count("N")
        }),
    };
    q.build(vec![out]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parallel GroupApply at 2+ threads is byte-identical to the
    /// sequential run, for random plans, key widths and event bags —
    /// `0..` lengths include the empty input.
    #[test]
    fn parallel_group_apply_is_byte_identical(
        events in prop::collection::vec((0i64..400, 0usize..64, 0i64..40), 0..80),
        key_cols in 1usize..3,
        plan_kind in 0usize..3,
        w in 1i64..50,
    ) {
        let palette = palette();
        let stream = EventStream::new(
            payload(),
            events
                .iter()
                .map(|&(t, pi, v)| {
                    let (a, b) = palette[pi % palette.len()];
                    Event::point(t, row![a, b, v])
                })
                .collect(),
        );
        let plan = build_plan(key_cols, plan_kind, w);
        let srcs = bindings(vec![("in", stream)]);
        let run = |threads: usize| {
            let (mut roots, _) = execute_data(&plan, data_bindings(srcs.clone()), &WorkerPool::new(threads)).unwrap();
            roots.pop().unwrap().into_stream()
        };
        let sequential = run(1);
        for threads in [2usize, 3, 8] {
            let parallel = run(threads);
            prop_assert_eq!(
                sequential.events(),
                parallel.events(),
                "threads={} changed the output", threads
            );
        }
    }
}
