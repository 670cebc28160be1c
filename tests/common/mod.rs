//! Generators shared by the engine property suites (`prop_compiled`,
//! `prop_columnar`, `prop_fusion`): one schema, one row/expression/stream
//! generator, one plan generator — and, for the suites that group or join
//! (`prop_group_apply`, `prop_columnar`), one palette of hash-colliding keys.
//! Every suite's reference is [`oracle`] ([`run_against_oracle`]); the
//! whole-job suites share [`harness`].
//!
//! The row generator flips each column to Null independently (null-heavy
//! batches) and stream lengths start at zero (empty batches). The
//! expression generator draws ill-typed trees too (a missing column,
//! arithmetic on strings), which every step must refuse with
//! `Expr::infer_type`'s error before it reads a row; its well-typed draws
//! ([`arb_typed_expr`], [`arb_predicate`]) divide by zero and take square
//! roots of negatives, so null and NaN paths get traffic.

#![allow(dead_code)] // each suite uses its own subset

pub mod custom_rows;
pub mod harness;
pub mod oracle;
pub mod sink_order;

use oracle::Tolerance;
use proptest::prelude::*;
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{Row, Schema, Value};
use timr_suite::temporal::agg::AggExpr;
use timr_suite::temporal::exec::{bindings, execute_single};
use timr_suite::temporal::plan::{FusedStep, LifetimeOp, LogicalPlan};
use timr_suite::temporal::Result as TemporalResult;
use timr_suite::temporal::{
    col, lit, Event, EventBatch, EventStream, Expr, Lifetime, Query, TemporalError,
};

pub fn schema() -> Schema {
    Schema::new(vec![
        Field::new("I", ColumnType::Int),
        Field::new("L", ColumnType::Long),
        Field::new("D", ColumnType::Double),
        Field::new("S", ColumnType::Str),
        Field::new("B", ColumnType::Bool),
    ])
}

pub fn arb_row() -> impl Strategy<Value = Row> {
    (
        -1000i32..1000,
        -10_000i64..10_000,
        -1e6f64..1e6,
        0u8..3,
        any::<bool>(),
        0u8..32,
    )
        .prop_map(|(i, l, d, s, b, nulls)| {
            let mut vals = vec![
                Value::Int(i),
                Value::Long(l),
                Value::Double(d),
                Value::from(format!("u{s}")),
                Value::Bool(b),
            ];
            for (k, v) in vals.iter_mut().enumerate() {
                if nulls & (1 << k) != 0 {
                    *v = Value::Null;
                }
            }
            Row::new(vals)
        })
}

fn apply_op(a: Expr, b: Expr, op: usize) -> Expr {
    match op {
        0 => a.add(b),
        1 => a.sub(b),
        2 => a.mul(b),
        3 => a.div(b),
        4 => a.eq(b),
        5 => a.ne(b),
        6 => a.lt(b),
        7 => a.le(b),
        8 => a.gt(b),
        9 => a.ge(b),
        10 => a.and(b),
        _ => a.or(b),
    }
}

/// Random expression trees over the test schema — ill-typed ones included:
/// references to a column that does not exist (`Missing`), arithmetic on
/// strings/booleans — and division by zero and sqrt of negatives.
pub fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        prop_oneof![
            Just("I"),
            Just("L"),
            Just("D"),
            Just("S"),
            Just("B"),
            Just("Missing"),
        ]
        .prop_map(col),
        (-100i64..100).prop_map(lit),
        (-50.0f64..50.0).prop_map(lit),
        Just(lit(0i64)), // division-by-zero fodder
        Just(lit("u1")),
        any::<bool>().prop_map(|b| Expr::Literal(Value::Bool(b))),
        Just(Expr::Literal(Value::Null)),
    ];
    leaf.prop_recursive(3, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), 0usize..12).prop_map(|(a, b, op)| apply_op(a, b, op)),
            inner.clone().prop_map(Expr::not),
            inner.clone().prop_map(Expr::sqrt),
            inner.prop_map(Expr::abs),
        ]
    })
}

/// The trees of [`arb_expr`] whose type `keep` accepts, drawn until one is:
/// every case of a property runs, none is skipped.
fn arb_expr_where(keep: fn(TemporalResult<ColumnType>) -> bool) -> impl Strategy<Value = Expr> {
    let exprs = arb_expr();
    composed(move |rng| loop {
        let e = exprs.generate(rng);
        if keep(e.infer_type(&schema())) {
            return e;
        }
    })
}

/// The trees of [`arb_expr`] that `Expr::infer_type` accepts over
/// [`schema`]: about 36 % of its draws (7 266 of 20 000).
pub fn arb_typed_expr() -> impl Strategy<Value = Expr> {
    arb_expr_where(|ty| ty.is_ok())
}

/// The boolean trees of [`arb_expr`], what a filter accepts: about 6 % of
/// its draws (1 214 of 20 000).
pub fn arb_predicate() -> impl Strategy<Value = Expr> {
    arb_expr_where(|ty| matches!(ty, Ok(ColumnType::Bool)))
}

/// The trees of [`arb_expr`] that `Expr::infer_type` refuses over
/// [`schema`]: about 64 % of its draws.
pub fn arb_ill_typed_expr() -> impl Strategy<Value = Expr> {
    arb_expr_where(|ty| ty.is_err())
}

/// `(start, end, payload)` triples; lengths start at zero.
pub fn arb_events(max_len: usize) -> impl Strategy<Value = Vec<(i64, i64, Row)>> {
    prop::collection::vec((0i64..200, 1i64..50, arb_row()), 0..max_len)
        .prop_map(|v| v.into_iter().map(|(s, w, r)| (s, s + w, r)).collect())
}

pub fn stream_of(events: &[(i64, i64, Row)]) -> EventStream {
    EventStream::new(
        schema(),
        events
            .iter()
            .map(|(s, e, r)| Event::new(Lifetime::new(*s, *e), r.clone()))
            .collect(),
    )
}

pub fn batch_of(events: &[(i64, i64, Row)]) -> EventBatch {
    EventBatch::from_stream(&stream_of(events)).expect("generator rows fit the schema")
}

/// Overwrite the `L` cell of every `stride`-th event with an `Int`: row
/// storage holds it happily, the typed batch cannot, so such a stream is
/// refused where it enters the engine. Returns the first overwritten row
/// (`None` for no events).
pub fn make_ill_typed(events: &mut [(i64, i64, Row)], stride: usize) -> Option<usize> {
    for (_, _, row) in events.iter_mut().step_by(stride.max(1)) {
        row.values_mut()[1] = Value::Int(7);
    }
    (!events.is_empty()).then_some(0)
}

/// The error the engine gives a binding of source `name` whose row `row`
/// holds the `Int` [`make_ill_typed`] wrote into `L`.
pub fn ill_typed_error(name: &str, row: usize) -> TemporalError {
    TemporalError::Input(format!(
        "source `{name}`: row {row}: type mismatch in `L`: expected long, got int"
    ))
}

/// `steps` one after another over `events` of [`schema`], one event at a
/// time through the language's definition ([`Expr::eval`] and
/// [`Expr::eval_predicate`]) and the oracle's lifetime definitions: the
/// reference the fused kernels are held to — same survivors in the same
/// order, and the first failing row's error. The chain is typed first, as
/// the engine types it: an expression with no type is `infer_type`'s error,
/// a filter predicate that is not boolean is refused, before any event.
pub fn row_steps(steps: &[FusedStep], mut events: Vec<Event>) -> Result<Vec<Event>, TemporalError> {
    let mut schemas = vec![schema()];
    for step in steps {
        let input = schemas.last().expect("the chain's input schema");
        let output = match step {
            FusedStep::Filter { predicate } => match predicate.infer_type(input)? {
                ColumnType::Bool => input.clone(),
                t => {
                    return Err(TemporalError::Plan(format!(
                        "filter predicate has type {t}, expected bool"
                    )))
                }
            },
            FusedStep::Project { exprs } => Schema::new(
                (exprs.iter())
                    .map(|(n, e)| Ok(Field::new(n.clone(), e.infer_type(input)?)))
                    .collect::<Result<Vec<Field>, TemporalError>>()?,
            ),
            FusedStep::AlterLifetime { .. } => input.clone(),
        };
        schemas.push(output);
    }
    for (step, schema) in steps.iter().zip(&schemas) {
        events = match step {
            FusedStep::Filter { predicate } => oracle::filter(schema, &events, predicate)?,
            FusedStep::Project { exprs } => oracle::project(schema, &events, exprs)?,
            FusedStep::AlterLifetime { op } => oracle::alter_lifetime(&events, op)?,
        };
    }
    Ok(events)
}

pub fn arb_lifetime_op() -> impl Strategy<Value = LifetimeOp> {
    prop_oneof![
        (1i64..50).prop_map(LifetimeOp::Window),
        (1i64..20, 1i64..40).prop_map(|(hop, width)| LifetimeOp::Hop { hop, width }),
        (-20i64..20).prop_map(LifetimeOp::Shift),
        (0i64..20).prop_map(LifetimeOp::ExtendBack),
        Just(LifetimeOp::ToPoint),
    ]
}

/// A menu of filter predicates: numeric compares on every width (the SIMD
/// comparison kernels), boolean connectives (the dense AND/OR kernels),
/// string equality, plus div-by-zero (→ Null → dropped) and
/// sqrt-of-negative (→ NaN compares) fodder. All entries are schema-valid:
/// `Query::build` rejects unknown columns, so runtime error raisers live in
/// [`raw_pred`].
pub fn pred_menu(idx: usize, thresh: i64) -> Expr {
    match idx % 8 {
        0 => col("L").ge(lit(thresh)),
        1 => col("I").lt(lit(thresh)).and(col("B")),
        2 => col("D").mul(col("D")).le(lit(250_000.0f64)),
        3 => col("S").eq(lit("u1")).or(col("L").gt(lit(0i64))),
        4 => col("I").add(col("L")).ne(lit(0i64)),
        5 => col("B").or(col("D").lt(lit(0.0f64))),
        6 => col("L").div(col("I")).gt(lit(2i64)), // div-by-zero → Null → false
        _ => col("D").sqrt().le(lit(500.0f64)),    // NaN on negatives → false
    }
}

/// Schema-valid projection menu mixing passthroughs, arithmetic on every
/// width, and NaN/null producers; `idx` salts the output name so chained
/// projects differ.
pub fn proj_menu(idx: usize) -> (String, Expr) {
    let exprs: Vec<(&str, Expr)> = vec![
        ("S", col("S")),
        ("L", col("L")),
        ("C", col("L").mul(lit(3i64)).add(col("I"))),
        ("D", col("D").mul(col("D"))),
        ("B", col("B").and(col("L").gt(lit(0i64)))),
        ("H", col("L").div(col("I"))),
        ("I", col("I")),
        ("G", col("D").sqrt()), // NaN bit patterns flow through columns
    ];
    let (name, e) = &exprs[idx % exprs.len()];
    (format!("{name}{idx}"), e.clone())
}

/// [`pred_menu`] plus predicates with no type (a missing column,
/// arithmetic on strings) — these bypass `Query::build`'s static checks,
/// and a fused fragment refuses them before it reads a row.
pub fn raw_pred(idx: usize, thresh: i64) -> Expr {
    match idx % 10 {
        8 => col("Missing").gt(lit(0i64)),
        9 => col("S").add(lit(1i64)).gt(lit(0i64)),
        _ => pred_menu(idx, thresh),
    }
}

/// [`proj_menu`] plus expressions with no type (`Missing`, Bool + Double),
/// repeated passthroughs (not movable), and div-by-null-prone `L / I`.
pub fn raw_proj(idx: usize) -> (String, Expr) {
    match idx % 10 {
        8 => (format!("G{idx}"), col("Missing").add(lit(1i64))),
        9 => (format!("T{idx}"), col("B").add(col("D"))),
        _ => proj_menu(idx),
    }
}

/// Plan shapes [`build_plan`] draws from.
pub const PLAN_KINDS: usize = 9;

/// Random single-source plans whose stateless prefixes fuse: filter and
/// project chains, windows, hopping windows (fragment-internal drops),
/// multicast fan-out (fragment boundaries), chains nested inside GroupApply
/// sub-plans, and aggregates directly over a fragment, plus a bare windowed
/// count and a point-to-interval temporal join.
pub fn build_plan(kind: usize, w: i64, thresh: i64, p1: usize, p2: usize) -> LogicalPlan {
    let q = Query::new();
    let src = q.source("in", schema());
    let out = match kind % PLAN_KINDS {
        // filter → project → window: the canonical fused chain.
        0 => src
            .filter(pred_menu(p1, thresh))
            .project(vec![
                ("S".to_string(), col("S")),
                proj_menu(p2),
                ("K".to_string(), col("L")),
            ])
            .window(w)
            .count("N"),
        // Double filter → hopping window: selection-vector shrink + drops.
        1 => src
            .filter(pred_menu(p1, thresh))
            .filter(pred_menu(p2, thresh - 3))
            .hop_window(w.max(2) / 2, w)
            .count("N"),
        // Fragment inside a GroupApply sub-plan.
        2 => src.group_apply(&["S"], move |g| {
            g.filter(pred_menu(p1, thresh)).window(w).count("N")
        }),
        // Multicast fan-out: the shared filter fragment must not fuse into
        // either consumer; both branches fuse separately.
        3 => {
            let m = src.filter(pred_menu(p1.min(6), thresh));
            let a = m.clone().filter(col("L").ge(lit(thresh)));
            let b = m.filter(col("L").lt(lit(thresh)));
            a.union(b).window(w).count("N")
        }
        // Project → project → filter chain (projected-column predicate).
        4 => src
            .project(vec![
                ("S".to_string(), col("S")),
                ("V".to_string(), col("L").add(col("I"))),
            ])
            .project(vec![
                ("S".to_string(), col("S")),
                ("V2".to_string(), col("V").mul(lit(2i64))),
            ])
            .filter(col("V2").gt(lit(thresh)))
            .group_apply(&["S"], move |g| g.window(w).count("N")),
        // Aggregate directly over a fused prefix: exercises the
        // scratch-row batch aggregation entry.
        5 => src
            .filter(pred_menu(p1, thresh))
            .window(w)
            .aggregate(vec![("SL".to_string(), AggExpr::Sum(col("L")))]),
        // Lone window feeding a GroupApply whose sub-plan filters: a
        // singleton fragment, then batch key hashing.
        6 => src
            .window(w)
            .group_apply(&["S"], |g| g.filter(col("I").ge(lit(0i64))).count("N")),
        // A sliding count with nothing in front of it.
        7 => src.window(w).count("N"),
        // Points joined to the key-equal windowed events they fall in.
        _ => {
            let points = src.clone().filter(pred_menu(p1, thresh));
            points.temporal_join(src.window(w), &[("S", "S")], None)
        }
    };
    q.build(vec![out]).unwrap()
}

/// One plan, two executions: the engine over the stream, and the oracle.
pub struct AgainstOracle {
    pub engine: Result<EventStream, TemporalError>,
    pub oracle: Result<EventStream, TemporalError>,
    pub tolerance: Tolerance,
}

pub fn run_against_oracle(plan: &LogicalPlan, stream: EventStream) -> AgainstOracle {
    let srcs = bindings(vec![("in", stream)]);
    AgainstOracle {
        engine: execute_single(plan, &srcs),
        oracle: oracle::run_single(plan, &srcs),
        tolerance: Tolerance::of(plan, plan.roots()[0]),
    }
}

/// Assert the engine's output denotes the oracle's relation, or that it
/// fails with the oracle's error.
pub fn assert_matches_oracle(run: AgainstOracle) -> Result<(), TestCaseError> {
    match (run.engine, run.oracle) {
        (Ok(e), Ok(o)) => {
            let same = oracle::same_relation(&e, &o, &run.tolerance);
            prop_assert!(same.is_ok(), "engine vs oracle: {}", same.unwrap_err());
        }
        (Err(e), Err(o)) => {
            prop_assert_eq!(e.to_string(), o.to_string(), "engine vs oracle error");
        }
        (e, o) => prop_assert!(false, "diverged: engine {:?} oracle {:?}", e, o),
    }
    Ok(())
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
pub fn palette() -> Vec<(i64, i64)> {
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
