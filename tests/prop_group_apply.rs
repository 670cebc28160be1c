//! Property tests for segmented GroupApply: walking the sub-plan once over
//! key-ordered runs must be invisible in the output. For any sub-plan
//! shape, key set and event bag — including distinct keys engineered to
//! share an FxHash value, and groups whose sub-plan output is empty — the
//! event vector, on rows and on a batch, must be **byte-identical**
//! (`events() ==`, not just the same relation) to the group-at-a-time
//! reference, and so must the error when a group fails. This is the repeatability guarantee
//! restarted reducers compare bytes against (paper §III-C.1).
//!
//! Two more things must be invisible. The planner's normal form: a lifetime
//! operator above a GroupApply and the same operator at the head of its
//! sub-plan are one query. And the pane kernel: a tumbling hopping aggregate
//! of combinable aggregates, run as one hash aggregation over (group, cell),
//! is the endpoint sweep.

mod common;

use common::palette;
use proptest::prelude::*;
use std::sync::Arc;
use timr_suite::relation::hash::values_hash;
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{row, Column, ColumnBatch, ColumnData, Row, Schema, Value};
use timr_suite::temporal::agg::AggExpr;
use timr_suite::temporal::exec::{
    bindings, data_bindings, execute_data, execute_reference, execute_single, Bindings,
    DataBindings, ExecStats, StreamData,
};
use timr_suite::temporal::expr::{col, lit, Expr, Func};
use timr_suite::temporal::plan::{LifetimeOp, LogicalPlan, Operator, PlanNode, StreamHandle};
use timr_suite::temporal::udo::{WindowCountUdo, WindowUdo};
use timr_suite::temporal::{Event, EventBatch, EventStream, Query, TemporalError};

fn payload() -> Schema {
    Schema::new(vec![
        Field::new("A", ColumnType::Long),
        Field::new("B", ColumnType::Long),
        Field::new("V", ColumnType::Long),
    ])
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

/// A window UDO that fails on a chosen `V`: a data-dependent error that is
/// the same on every layout.
#[derive(Debug)]
struct FailOn {
    name: &'static str,
    v: i64,
}

impl WindowUdo for FailOn {
    fn name(&self) -> &str {
        self.name
    }

    fn output_schema(&self, input: &Schema) -> timr_suite::temporal::Result<Schema> {
        Ok(input.clone())
    }

    fn apply(
        &self,
        _window_end: i64,
        _input_schema: &Schema,
        events: &[Event],
    ) -> timr_suite::temporal::Result<Vec<Row>> {
        if events
            .iter()
            .any(|e| e.payload.get(2) == &Value::Long(self.v))
        {
            return Err(TemporalError::Eval(format!("{} saw {}", self.name, self.v)));
        }
        Ok(events.iter().map(|e| e.payload.clone()).collect())
    }
}

/// Every sub-plan shape the segmented walk has a path for. `thr` steers
/// the filters so that some groups — sometimes all — produce no output.
const SUB_PLANS: usize = 11;

fn sub_plan(kind: usize, g: StreamHandle, w: i64, thr: i64) -> StreamHandle {
    let sums = || {
        vec![
            ("S".to_string(), AggExpr::Sum(col("V"))),
            ("C".to_string(), AggExpr::Count),
        ]
    };
    match kind {
        0 => g.window(w).count("N"),
        1 => g.aggregate(sums()),
        2 => g.filter(col("V").ge(lit(thr))).window(w).count("N"),
        3 => g.hop_window(w.max(2) / 2, w).aggregate(sums()),
        // Filter after the aggregate: whole groups can vanish late.
        4 => g.window(w).count("N").filter(col("N").ge(lit(2i64))),
        // The BotElim shape: two branches off one GroupInput, unioned.
        5 => {
            let low = g
                .clone()
                .filter(col("V").lt(lit(thr)))
                .window(w)
                .count("N")
                .filter(col("N").gt(lit(1i64)));
            let high = g.filter(col("V").ge(lit(thr))).count("N");
            low.union(high)
                .project(vec![("Hit".to_string(), lit(1i64))])
        }
        6 => {
            let counts = g.clone().window(w).count("N");
            let totals = g
                .filter(col("V").ge(lit(thr)))
                .window(2 * w)
                .aggregate(sums());
            counts.temporal_join(totals, &[], Some(col("C").le(col("N"))))
        }
        7 => {
            let holes = g.clone().filter(col("V").ge(lit(thr))).window(w);
            g.anti_semi_join(holes, &[("B", "B")])
                .project(vec![("X".to_string(), col("V"))])
        }
        8 => g.group_apply(&["V"], move |h| {
            h.filter(col("B").lt(lit(thr))).window(w).count("N")
        }),
        9 => g.hop_udo(w, 2 * w, Arc::new(WindowCountUdo)),
        // Three inputs of uneven sizes: the union's run order is decided
        // run by run.
        _ => {
            let a = g.clone().filter(col("V").lt(lit(thr)));
            let b = g.clone().window(w);
            a.union_all(vec![b, g.filter(col("V").ge(lit(thr / 2)))])
                .project(vec![("X".to_string(), col("V"))])
        }
    }
}

fn keys_of(key_cols: usize) -> &'static [&'static str] {
    if key_cols == 1 {
        &["A"]
    } else {
        &["A", "B"]
    }
}

/// `in → GroupApply(keys, sub_plan(kind))`.
fn build_plan(key_cols: usize, kind: usize, w: i64, thr: i64) -> LogicalPlan {
    let q = Query::new();
    let out = q
        .source("in", payload())
        .group_apply(keys_of(key_cols), |g| sub_plan(kind, g, w, thr));
    q.build(vec![out]).unwrap()
}

/// A sub-plan that reads an outer `Source`: every group sees the whole of
/// `side` next to its own events. The builder has no spelling for it, so
/// the arena is assembled by hand: `Union(GroupInput, side) → window → count`.
fn outer_source_plan(key_cols: usize, w: i64) -> LogicalPlan {
    let node = |op, inputs| PlanNode { op, inputs };
    let sub = LogicalPlan::from_parts(
        vec![
            node(Operator::GroupInput { schema: payload() }, vec![]),
            node(
                Operator::Source {
                    name: "side".into(),
                    schema: payload(),
                },
                vec![],
            ),
            node(Operator::Union, vec![0, 1]),
            node(
                Operator::AlterLifetime {
                    op: LifetimeOp::Window(w),
                },
                vec![2],
            ),
            node(
                Operator::Aggregate {
                    aggs: vec![("N".into(), AggExpr::Count)],
                },
                vec![3],
            ),
        ],
        vec![4],
    )
    .unwrap();
    LogicalPlan::from_parts(
        vec![
            node(
                Operator::Source {
                    name: "in".into(),
                    schema: payload(),
                },
                vec![],
            ),
            node(
                Operator::GroupApply {
                    keys: keys_of(key_cols).iter().map(|k| k.to_string()).collect(),
                    subplan: Arc::new(sub),
                },
                vec![0],
            ),
        ],
        vec![1],
    )
    .unwrap()
}

fn palette_stream(events: &[(i64, usize, i64)]) -> EventStream {
    let palette = palette();
    EventStream::new(
        payload(),
        events
            .iter()
            .map(|&(t, pi, v)| {
                let (a, b) = palette[pi % palette.len()];
                Event::point(t, row![a, b, v])
            })
            .collect(),
    )
}

/// Run `plan` on the engine with every binding as rows and as a batch, and
/// on the reference operators: three event vectors (or error messages), all
/// identical.
fn assert_all_agree(plan: &LogicalPlan, srcs: &Bindings) -> Result<(), TestCaseError> {
    let reference = execute_reference(plan, srcs)
        .map(|mut roots| roots.pop().unwrap())
        .map_err(|e| e.to_string());
    for as_batch in [false, true] {
        let bound = srcs
            .iter()
            .map(|(name, s)| {
                let data = match EventBatch::from_stream(s) {
                    Some(batch) if as_batch => StreamData::Batch(batch),
                    _ => StreamData::Rows(s.clone()),
                };
                (name.clone(), data)
            })
            .collect();
        let engine = execute_data(plan, bound)
            .map(|(mut roots, _)| roots.pop().unwrap().into_stream())
            .map_err(|e| e.to_string());
        match (&engine, &reference) {
            (Ok(e), Ok(r)) => prop_assert_eq!(e.events(), r.events(), "batch={}", as_batch),
            (e, r) => prop_assert_eq!(
                e.as_ref().map(|_| ()),
                r.as_ref().map(|_| ()),
                "batch={}",
                as_batch
            ),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Segmented GroupApply — on rows and on a batch — is byte-identical to
    /// the group-at-a-time reference, for random
    /// sub-plan shapes, key widths and event bags; `0..` lengths include
    /// the empty input.
    #[test]
    fn segmented_group_apply_is_byte_identical_to_the_reference(
        events in prop::collection::vec((0i64..400, 0usize..64, 0i64..40), 0..80),
        key_cols in 1usize..3,
        kind in 0usize..SUB_PLANS,
        w in 1i64..50,
        thr in 0i64..45,
    ) {
        let plan = build_plan(key_cols, kind, w, thr);
        let srcs = bindings(vec![("in", palette_stream(&events))]);
        assert_all_agree(&plan, &srcs)?;
    }

    /// The same with a sub-plan that reads an outer source, which every
    /// group sees whole.
    #[test]
    fn a_sub_plan_source_is_broadcast_to_every_group(
        events in prop::collection::vec((0i64..400, 0usize..64, 0i64..40), 0..40),
        side in prop::collection::vec((0i64..400, 0usize..64, 0i64..40), 0..6),
        key_cols in 1usize..3,
        w in 1i64..50,
    ) {
        let plan = outer_source_plan(key_cols, w);
        let srcs = bindings(vec![
            ("in", palette_stream(&events)),
            ("side", palette_stream(&side)),
        ]);
        assert_all_agree(&plan, &srcs)?;
    }

    /// A failing group: whichever operator fails in whichever group, every
    /// execution reports what the reference meets first — the lowest group
    /// in key order, and its first failing operator.
    #[test]
    fn a_failing_group_reports_the_reference_s_first_error(
        events in prop::collection::vec((0i64..400, 0usize..64, 0i64..12), 1..60),
        key_cols in 1usize..3,
        first in 0i64..12,
        second in 0i64..12,
        w in 1i64..50,
    ) {
        let q = Query::new();
        let out = q.source("in", payload()).group_apply(keys_of(key_cols), |g| {
            g.hop_udo(w, w, Arc::new(FailOn { name: "first", v: first }))
                .filter(col("V").ge(lit(0i64)))
                .hop_udo(w, w, Arc::new(FailOn { name: "second", v: second }))
                .count("N")
        });
        let plan = q.build(vec![out]).unwrap();
        let srcs = bindings(vec![("in", palette_stream(&events))]);
        assert_all_agree(&plan, &srcs)?;
    }
}

fn alter(h: StreamHandle, op: &LifetimeOp) -> StreamHandle {
    match *op {
        LifetimeOp::Window(w) => h.window(w),
        LifetimeOp::Hop { hop, width } => h.hop_window(hop, width),
        LifetimeOp::Shift(d) => h.shift(d),
        LifetimeOp::ExtendBack(d) => h.extend_back(d),
        LifetimeOp::ToPoint => h.to_point(),
    }
}

fn arb_lifetime_op() -> impl Strategy<Value = LifetimeOp> {
    prop_oneof![
        (1i64..50).prop_map(LifetimeOp::Window),
        (1i64..20, 1i64..40).prop_map(|(hop, width)| LifetimeOp::Hop { hop, width }),
        (1i64..20).prop_map(|g| LifetimeOp::Hop { hop: g, width: g }),
        (-20i64..20).prop_map(LifetimeOp::Shift),
        (0i64..20).prop_map(LifetimeOp::ExtendBack),
        Just(LifetimeOp::ToPoint),
    ]
}

/// The combinable aggregates, over a bare column, a computed argument and
/// no argument at all; `mix` picks a non-empty subset.
fn combinable_mix(mix: usize) -> Vec<(String, AggExpr)> {
    let menu = [
        ("C", AggExpr::Count),
        ("S", AggExpr::Sum(col("V"))),
        ("Lo", AggExpr::Min(col("V"))),
        ("Hi", AggExpr::Max(col("V"))),
        ("S2", AggExpr::Sum(col("V").mul(lit(2i64)).sub(col("A")))),
    ];
    menu.iter()
        .enumerate()
        .filter(|(k, _)| (mix % 31 + 1) & (1 << k) != 0)
        .map(|(_, (name, a))| (name.to_string(), a.clone()))
        .collect()
}

/// `in → GroupApply(keys){hop → [keep-all filter →] aggregate}`. The filter
/// changes nothing but the sub-plan's shape: with it the aggregate is the
/// endpoint sweep over key-ordered runs, without it (and with `hop ==
/// width`, all aggregates combinable) the pane kernel.
fn hop_aggregate_plan(
    key_cols: usize,
    hop: i64,
    width: i64,
    aggs: Vec<(String, AggExpr)>,
    via_sweep: bool,
) -> LogicalPlan {
    let q = Query::new();
    let out = q
        .source("in", payload())
        .group_apply(keys_of(key_cols), |g| {
            let g = g.hop_window(hop, width);
            let g = if via_sweep {
                g.filter(Expr::Literal(Value::Bool(true)))
            } else {
                g
            };
            g.aggregate(aggs)
        });
    q.build(vec![out]).unwrap()
}

/// Events with nullable `V`: `(t, palette index, v)`.
fn nullable_stream(events: &[(i64, usize, Option<i64>)]) -> EventStream {
    let palette = palette();
    EventStream::new(
        payload(),
        events
            .iter()
            .map(|&(t, pi, v)| {
                let (a, b) = palette[pi % palette.len()];
                let v = v.map_or(Value::Null, Value::Long);
                Event::point(t, Row::new(vec![Value::Long(a), Value::Long(b), v]))
            })
            .collect(),
    )
}

fn stats_of(plan: &LogicalPlan, srcs: &Bindings, as_batch: bool) -> ExecStats {
    let bound = srcs
        .iter()
        .map(|(name, s)| {
            let data = match EventBatch::from_stream(s) {
                Some(batch) if as_batch => StreamData::Batch(batch),
                _ => StreamData::Rows(s.clone()),
            };
            (name.clone(), data)
        })
        .collect();
    execute_data(plan, bound).unwrap().1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The normal form is an identity: any lifetime operator above a
    /// GroupApply, or at the head of its sub-plan, is the same query — on
    /// rows, on a batch and on the reference, which
    /// rewrites nothing. (The planner sinks only a `Hop`; the algebra holds
    /// for all of them.)
    #[test]
    fn a_lifetime_op_commutes_with_grouping(
        events in prop::collection::vec((-60i64..400, 0usize..64, 0i64..40), 0..80),
        key_cols in 1usize..3,
        kind in 0usize..SUB_PLANS,
        op in arb_lifetime_op(),
        w in 1i64..50,
        thr in 0i64..45,
    ) {
        let q = Query::new();
        let above = alter(q.source("in", payload()), &op)
            .group_apply(keys_of(key_cols), |g| sub_plan(kind, g, w, thr));
        let above = q.build(vec![above]).unwrap();
        let q = Query::new();
        let inside = q
            .source("in", payload())
            .group_apply(keys_of(key_cols), |g| sub_plan(kind, alter(g, &op), w, thr));
        let inside = q.build(vec![inside]).unwrap();
        let srcs = bindings(vec![("in", palette_stream(&events))]);
        assert_all_agree(&above, &srcs)?;
        assert_all_agree(&inside, &srcs)?;
        let (above, inside) = (
            execute_reference(&above, &srcs).unwrap(),
            execute_reference(&inside, &srcs).unwrap(),
        );
        prop_assert_eq!(above[0].events(), inside[0].events());
    }

    /// The pane kernel is the sweep: `Hop{g, g}` over every mix of
    /// combinable aggregates — null arguments, cells whose arguments are all
    /// null, negative and grid-aligned times, empty cells between bursts and
    /// (`V` ranges over three values) adjacent cells with equal results,
    /// which coalesce — equals the same aggregate swept over key-ordered
    /// runs and the reference, on both layouts. And the
    /// plan alone picks the path: tumbling and combinable takes the kernel,
    /// anything else does not.
    #[test]
    fn the_pane_kernel_is_the_sweep(
        events in prop::collection::vec(
            ((-40i64..120).prop_map(|t| if t % 3 == 0 { t / 3 * 8 } else { t }),
             0usize..64,
             prop_oneof![Just(None), (0i64..3).prop_map(Some)]),
            0..90),
        key_cols in 1usize..3,
        grid in prop_oneof![Just(1i64), Just(8i64), 2i64..20],
        mix in 0usize..31,
    ) {
        let srcs = bindings(vec![("in", nullable_stream(&events))]);
        let aggs = combinable_mix(mix);
        let kernel = hop_aggregate_plan(key_cols, grid, grid, aggs.clone(), false);
        let sweep = hop_aggregate_plan(key_cols, grid, grid, aggs.clone(), true);
        assert_all_agree(&kernel, &srcs)?;
        assert_all_agree(&sweep, &srcs)?;
        let (on_kernel, on_sweep) = (
            execute_single(&kernel, &srcs).unwrap(),
            execute_single(&sweep, &srcs).unwrap(),
        );
        prop_assert_eq!(on_kernel.events(), on_sweep.events());
        for as_batch in [false, true] {
            let taken = stats_of(&kernel, &srcs, as_batch);
            prop_assert_eq!(taken.pane_groups, taken.groups);
            prop_assert_eq!(stats_of(&sweep, &srcs, as_batch).pane_groups, 0);
            // A sliding hop, or one aggregate that does not combine.
            let sliding = hop_aggregate_plan(key_cols, grid, 2 * grid, aggs.clone(), false);
            prop_assert_eq!(stats_of(&sliding, &srcs, as_batch).pane_groups, 0);
            let mut with_avg = aggs.clone();
            with_avg.push(("Mean".to_string(), AggExpr::Avg(col("V"))));
            let avg = hop_aggregate_plan(key_cols, grid, grid, with_avg, false);
            prop_assert_eq!(stats_of(&avg, &srcs, as_batch).pane_groups, 0);
            assert_all_agree(&avg, &srcs)?;
        }
    }
}

/// The sub-plan kinds of [`sub_plan`] that are per-event steps ending in
/// one Aggregate: over a batch, GroupApply sweeps them on the columns.
const PER_EVENT_AGGREGATES: usize = 3;

/// Events whose key cells may be Null: `(t, palette index, v, nulls)`,
/// where bit 0 of `nulls` blanks `A` and bit 1 blanks `B`.
fn null_key_stream(events: &[(i64, usize, i64, u8)]) -> EventStream {
    let palette = palette();
    EventStream::new(
        payload(),
        events
            .iter()
            .map(|&(t, pi, v, nulls)| {
                let (a, b) = palette[pi % palette.len()];
                let cell = |x: i64, bit: u8| match nulls & bit {
                    0 => Value::Long(x),
                    _ => Value::Null,
                };
                Event::point(t, Row::new(vec![cell(a, 1), cell(b, 2), Value::Long(v)]))
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A per-event aggregate over a batch never leaves the columns — keys
    /// that collide on the hash, Null key cells, groups the filter empties
    /// and all — and publishes the reference's bytes. The plan alone picks
    /// the path: a filter after the aggregate takes the segmented walk,
    /// which transposes.
    #[test]
    fn a_per_event_aggregate_on_a_batch_stays_columnar(
        events in prop::collection::vec((0i64..400, 0usize..64, 0i64..40, 0u8..4), 0..80),
        key_cols in 1usize..3,
        kind in 0usize..PER_EVENT_AGGREGATES,
        w in 1i64..50,
        thr in 0i64..45,
    ) {
        let plan = build_plan(key_cols, kind, w, thr);
        let srcs = bindings(vec![("in", null_key_stream(&events))]);
        assert_all_agree(&plan, &srcs)?;
        let (on_batch, on_rows) = (stats_of(&plan, &srcs, true), stats_of(&plan, &srcs, false));
        prop_assert_eq!((on_batch.transposed_events, on_batch.row_fallbacks), (0, 0));
        prop_assert_eq!(on_batch.groups, on_rows.groups);
        let walked = build_plan(key_cols, 4, w, thr);
        assert_all_agree(&walked, &srcs)?;
        prop_assert_eq!(
            stats_of(&walked, &srcs, true).transposed_events,
            events.len() as u64
        );
    }

    /// A per-event step that fails on some values only: `V >= k OR X`,
    /// where `X` is declared boolean but the batch holds integers there (the
    /// column layout accepts what the schema does not promise), so the
    /// predicate is non-boolean exactly on the rows with `V < k`. On a batch
    /// the columnar path gives up and the segmented walk reports what the
    /// reference meets first — the lowest failing group in key order — not
    /// the first failing row; on rows, and when nothing fails, every
    /// execution is the reference's too.
    #[test]
    fn a_failing_per_event_step_on_a_batch_reports_the_reference_s_error(
        events in prop::collection::vec((0i64..400, 0usize..64, 0i64..12), 1..60),
        key_cols in 1usize..3,
        k in 0i64..12,
        w in 1i64..50,
    ) {
        let plan = flagged_plan(key_cols, k, w);
        let batch = flagged_batch(&events);
        let srcs = bindings(vec![("in", batch.clone().into_stream())]);
        let reference = execute_reference(&plan, &srcs)
            .map(|mut roots| roots.pop().unwrap())
            .map_err(|e| e.to_string());
        let fails = events.iter().any(|&(_, _, v)| v < k);
        prop_assert_eq!(reference.is_err(), fails);
        let mut bound = DataBindings::default();
        bound.insert("in".to_string(), StreamData::Batch(batch));
        let on_batch = execute_data(&plan, bound)
            .map(|(mut roots, stats)| (roots.pop().unwrap().into_stream(), stats))
            .map_err(|e| e.to_string());
        let on_rows = execute_single(&plan, &srcs).map_err(|e| e.to_string());
        match (&on_batch, &reference) {
            (Ok((out, stats)), Ok(r)) => {
                prop_assert_eq!(out.events(), r.events());
                prop_assert_eq!(stats.transposed_events, 0);
            }
            (e, r) => prop_assert_eq!(e.as_ref().map(|_| ()), r.as_ref().map(|_| ())),
        }
        prop_assert_eq!(
            on_rows.map(|s| s.events().to_vec()),
            reference.map(|r| r.events().to_vec())
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A per-event step whose result has no dense column form: `min2(V,
    /// 2.5)` keeps the chosen operand's runtime type, so a batch holding
    /// values on both sides of 2.5 projects a column of longs and doubles.
    /// The columnar path gives up and the segmented walk runs the input as
    /// rows — the reference's bytes either way, and a transposition exactly
    /// when the types mix.
    #[test]
    fn a_projection_with_no_column_form_walks_the_runs(
        events in prop::collection::vec((0i64..400, 0usize..64, 0i64..6), 0..60),
        key_cols in 1usize..3,
        w in 1i64..50,
    ) {
        let q = Query::new();
        let out = q.source("in", payload()).group_apply(keys_of(key_cols), |g| {
            g.project(vec![(
                "M".to_string(),
                Expr::call(Func::Min2, vec![col("V"), lit(2.5f64)]),
            )])
            .window(w)
            .aggregate(vec![("S".to_string(), AggExpr::Sum(col("M")))])
        });
        let plan = q.build(vec![out]).unwrap();
        let srcs = bindings(vec![("in", palette_stream(&events))]);
        assert_all_agree(&plan, &srcs)?;
        let mixed = events.iter().any(|e| e.2 <= 2) && events.iter().any(|e| e.2 >= 3);
        let transposed = if mixed { events.len() as u64 } else { 0 };
        prop_assert_eq!(stats_of(&plan, &srcs, true).transposed_events, transposed);
    }
}

/// `payload()` plus a flag `X`, declared boolean.
fn flagged_payload() -> Schema {
    let mut fields = payload().fields().to_vec();
    fields.push(Field::new("X", ColumnType::Bool));
    Schema::new(fields)
}

/// `in → GroupApply(keys){filter(V >= k OR X) → window → count}`.
fn flagged_plan(key_cols: usize, k: i64, w: i64) -> LogicalPlan {
    let q = Query::new();
    let out = q
        .source("in", flagged_payload())
        .group_apply(keys_of(key_cols), |g| {
            g.filter(col("V").ge(lit(k)).or(col("X")))
                .window(w)
                .count("N")
        });
    q.build(vec![out]).unwrap()
}

/// A batch of [`flagged_payload`] whose `X` column holds `V` as integers.
fn flagged_batch(events: &[(i64, usize, i64)]) -> EventBatch {
    let palette = palette();
    let cells = |f: &dyn Fn(&(i64, usize, i64)) -> i64| {
        let data = ColumnData::Long(events.iter().map(f).collect());
        Column::new(data, None)
    };
    let columns = vec![
        cells(&|&(_, pi, _)| palette[pi % palette.len()].0),
        cells(&|&(_, pi, _)| palette[pi % palette.len()].1),
        cells(&|&(_, _, v)| v),
        cells(&|&(_, _, v)| v),
    ];
    EventBatch::new(
        events.iter().map(|e| e.0).collect(),
        events.iter().map(|e| e.0 + 1).collect(),
        ColumnBatch::new(flagged_payload(), columns, events.len()),
    )
}

/// The cases the property above leaves to chance, pinned: two adjacent
/// cells with equal values coalesce into one event, a third with another
/// value does not; an empty cell splits a group's output; a cell whose
/// arguments are all null still reports (its count, and null extrema); a
/// grid-aligned time opens the cell it sits on, a negative one rounds up.
#[test]
fn pane_cells_coalesce_split_and_report_like_the_sweep() {
    let aggs = || {
        vec![
            ("C".to_string(), AggExpr::Count),
            ("S".to_string(), AggExpr::Sum(col("V"))),
            ("Hi".to_string(), AggExpr::Max(col("V"))),
        ]
    };
    let plan = hop_aggregate_plan(1, 10, 10, aggs(), false);
    let ev = |t: i64, a: i64, v: Option<i64>| {
        let v = v.map_or(Value::Null, Value::Long);
        Event::point(t, Row::new(vec![Value::Long(a), Value::Long(0), v]))
    };
    let stream = EventStream::new(
        payload(),
        vec![
            ev(25, 1, Some(4)),  // cell 30
            ev(-15, 1, Some(4)), // cell -10
            ev(-5, 1, Some(4)),  // cell 0: equals cell -10, adjacent
            ev(10, 1, Some(5)),  // cell 10 (aligned): adjacent, differs
            ev(31, 1, None),     // cell 40: all-null arguments
            ev(7, 2, Some(1)),   // another group
        ],
    );
    let srcs = bindings(vec![("in", stream)]);
    let out = execute_single(&plan, &srcs).unwrap();
    let null = Value::Null;
    let row =
        |a: i64, c: i64, s: Value, hi: Value| Row::new(vec![Value::Long(a), Value::Long(c), s, hi]);
    assert_eq!(
        out.events(),
        &[
            Event::interval(-10, 10, row(1, 1, Value::Long(4), Value::Long(4))),
            Event::interval(10, 20, row(1, 1, Value::Long(5), Value::Long(5))),
            Event::interval(30, 40, row(1, 1, Value::Long(4), Value::Long(4))),
            Event::interval(40, 50, row(1, 1, null.clone(), null)),
            Event::interval(10, 20, row(2, 1, Value::Long(1), Value::Long(1))),
        ]
    );
    assert_eq!(out, execute_reference(&plan, &srcs).unwrap().pop().unwrap());
    let sweep = hop_aggregate_plan(1, 10, 10, aggs(), true);
    assert_eq!(out, execute_single(&sweep, &srcs).unwrap());
    assert_eq!(stats_of(&plan, &srcs, true).pane_groups, 2);
}

/// Combinability is decided from the declared argument type; a row stream
/// can hold a double where the schema says long. A SUM that met one answers
/// in doubles until its burst of adjacent cells ends — the kernel sees it
/// and leaves the input to the sweep.
#[test]
fn a_double_in_an_integer_sum_takes_the_sweep() {
    let plan = hop_aggregate_plan(
        1,
        10,
        10,
        vec![("S".to_string(), AggExpr::Sum(col("V")))],
        false,
    );
    let ev = |t: i64, v: Value| Event::point(t, Row::new(vec![Value::Long(1), Value::Long(0), v]));
    let stream = EventStream::new(
        payload(),
        vec![
            ev(5, Value::Double(0.5)), // cell 10
            ev(15, Value::Long(3)),    // cell 20: adjacent, still a double
            ev(45, Value::Long(3)),    // cell 50: a fresh burst, a long again
        ],
    );
    let srcs = bindings(vec![("in", stream)]);
    let reference = execute_reference(&plan, &srcs).unwrap().pop().unwrap();
    let sums: Vec<_> = reference
        .events()
        .iter()
        .map(|e| e.payload.get(1))
        .collect();
    assert_eq!(
        sums,
        [&Value::Double(0.5), &Value::Double(3.0), &Value::Long(3)]
    );
    assert_eq!(execute_single(&plan, &srcs).unwrap(), reference);
    let stats = stats_of(&plan, &srcs, false);
    assert_eq!((stats.groups, stats.pane_groups), (1, 0));
}

/// An argument error in the kernel is the reference's: the lowest failing
/// group in key order, its first failing event (rows only — the typed batch
/// has no form for the offending cells).
#[test]
fn pane_argument_errors_keep_the_reference_s_order() {
    let plan = hop_aggregate_plan(
        1,
        10,
        10,
        vec![("S".to_string(), AggExpr::Sum(col("V").mul(lit(2i64))))],
        false,
    );
    let ev = |t: i64, a: i64, v: Value| {
        Event::point(t, Row::new(vec![Value::Long(a), Value::Long(0), v]))
    };
    let stream = EventStream::new(
        payload(),
        vec![
            ev(1, 3, Value::Bool(true)), // group 3 fails first in input order
            ev(2, 1, Value::Long(1)),    // group 1: fine
            ev(3, 2, Value::Long(1)),
            ev(4, 2, Value::str("x")), // group 2: the lowest failing group
            ev(5, 2, Value::Bool(false)),
        ],
    );
    let srcs = bindings(vec![("in", stream)]);
    let reference = execute_reference(&plan, &srcs).unwrap_err().to_string();
    assert_eq!(reference, "eval error: expected integer, got str");
    let err = execute_data(&plan, data_bindings(srcs)).unwrap_err();
    assert_eq!(err.to_string(), reference);
}

/// The pinned case of the property above: group `a` passes the first UDO
/// and fails in the second; group `b` fails in the first. A node-at-a-time
/// walk meets `b`'s error first; the answer is `a`'s.
#[test]
fn the_lower_group_s_later_error_wins() {
    let q = Query::new();
    let out = q.source("in", payload()).group_apply(&["A"], |g| {
        g.hop_udo(
            10,
            10,
            Arc::new(FailOn {
                name: "first",
                v: 7,
            }),
        )
        .hop_udo(
            10,
            10,
            Arc::new(FailOn {
                name: "second",
                v: 3,
            }),
        )
        .count("N")
    });
    let plan = q.build(vec![out]).unwrap();
    let stream = EventStream::new(
        payload(),
        vec![
            Event::point(5, row![2i64, 0i64, 7i64]), // group 2: fails in `first`
            Event::point(5, row![1i64, 0i64, 3i64]), // group 1: fails in `second`
            Event::point(5, row![3i64, 0i64, 1i64]), // group 3: fine
        ],
    );
    let srcs = bindings(vec![("in", stream)]);
    let reference = execute_reference(&plan, &srcs).unwrap_err().to_string();
    assert_eq!(reference, "eval error: second saw 3");
    let err = execute_data(&plan, data_bindings(srcs)).unwrap_err();
    assert_eq!(err.to_string(), reference);
}

/// A segmented kernel failing past the first group (rows only: the typed
/// batch has no form for the offending cell, so `run_three_ways` binds rows
/// on both engine arms). Group 1 fails in the aggregate's argument, group 2
/// already in the filter before it.
#[test]
fn kernel_errors_keep_the_reference_s_order() {
    let q = Query::new();
    let out = q.source("in", payload()).group_apply(&["A"], |g| {
        g.filter(col("V").add(lit(1.5f64)).gt(lit(0i64)))
            .aggregate(vec![("S".into(), AggExpr::Sum(col("B").mul(lit(2i64))))])
    });
    let plan = q.build(vec![out]).unwrap();
    let ill = |v: &str| Value::str(v);
    let stream = EventStream::new(
        payload(),
        vec![
            Event::point(1, row![0i64, 1i64, 1i64]), // group 0: fine
            Event::point(2, Row::new(vec![Value::Long(2), Value::Long(1), ill("v")])),
            Event::point(3, Row::new(vec![Value::Long(1), ill("b"), Value::Long(1)])),
        ],
    );
    let srcs = bindings(vec![("in", stream)]);
    let reference = execute_reference(&plan, &srcs).unwrap_err().to_string();
    // The aggregate's complaint about group 1's `B`, not the filter's
    // about group 2's `V`.
    assert_eq!(reference, "eval error: expected integer, got str");
    let err = execute_data(&plan, data_bindings(srcs)).unwrap_err();
    assert_eq!(err.to_string(), reference);
}

/// The four `BtPipeline` plans over a 200-user log, each fed the previous
/// one's reference output: engine and reference publish the same bytes.
#[test]
fn the_bt_plans_match_the_reference_byte_for_byte() {
    use timr_suite::bt::queries::{bot_elim, feature_selection, log_payload, train_data};
    let mut cfg = timr_suite::adgen::GenConfig::small(7);
    cfg.users = 200;
    let log = timr_suite::adgen::generate(&cfg);
    let logs = timr_suite::timr::EventEncoding::Point
        .decode_stream(log.rows(), &log_payload())
        .unwrap();
    let params = timr_suite::bt::BtParams {
        horizon: cfg.duration * 2,
        ..Default::default()
    };
    let agree = |plan: &LogicalPlan, srcs: Bindings| -> EventStream {
        let engine = execute_single(plan, &srcs).unwrap();
        let reference = execute_reference(plan, &srcs).unwrap().pop().unwrap();
        assert!(!reference.is_empty());
        assert_eq!(engine.events(), reference.events());
        reference
    };
    let clean = agree(
        &bot_elim::query(&params).plan,
        bindings(vec![("logs", logs)]),
    );
    let labels = agree(
        &train_data::labels_query(&params).plan,
        bindings(vec![("clean_logs", clean.clone())]),
    );
    let train = agree(
        &train_data::train_query(&params).plan,
        bindings(vec![("clean_logs", clean)]),
    );
    agree(
        &feature_selection::query(&params).plan,
        bindings(vec![("labels", labels), ("train_rows", train)]),
    );
}
