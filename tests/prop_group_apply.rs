//! Property tests for segmented GroupApply: walking the sub-plan once over
//! key-ordered runs must be invisible in the output. For any sub-plan
//! shape, key set and event bag — including distinct keys engineered to
//! share an FxHash value, and groups whose sub-plan output is empty — the
//! engine must compute the relation the group-at-a-time oracle computes,
//! and when groups fail, at whichever operators, the error the oracle
//! meets first: the lowest failing group in key order, its first failing
//! operator.
//!
//! Two more things must be invisible. The planner's normal form: a lifetime
//! operator above a GroupApply and the same operator at the head of its
//! sub-plan are one query. And the pane kernel: a tumbling hopping aggregate
//! of combinable aggregates, run as one hash aggregation over (group, cell),
//! is the endpoint sweep.

mod common;

use common::oracle::{self, Tolerance};
use common::palette;
use proptest::prelude::*;
use std::sync::Arc;
use timr_suite::relation::hash::values_hash;
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{row, Column, ColumnBatch, ColumnData, Row, Schema, StrCodes, Value};
use timr_suite::temporal::agg::AggExpr;
use timr_suite::temporal::exec::{
    bindings, execute, execute_single, BatchBindings, Bindings, ExecStats,
};
use timr_suite::temporal::expr::{col, lit, Expr, Func};
use timr_suite::temporal::plan::{
    fuse_plan, LifetimeOp, LogicalPlan, Operator, PlanNode, StreamHandle,
};
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
        window: &EventBatch,
    ) -> timr_suite::temporal::Result<ColumnBatch> {
        let v = window.payload().column(2);
        if (0..window.len()).any(|i| v.value(i) == Value::Long(self.v)) {
            return Err(TemporalError::Eval(format!("{} saw {}", self.name, self.v)));
        }
        Ok(window.payload().clone())
    }
}

/// Every sub-plan shape the segmented walk has a path for. `thr` steers
/// the filters so that some groups — sometimes all — produce no output.
const SUB_PLANS: usize = 13;

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
        // A projection after a filter in one fragment: over a batch it
        // compacts mid-fragment, and the survivors are traced back to
        // their input rows.
        11 => g
            .filter(col("V").ge(lit(thr)))
            .project(vec![("X".to_string(), col("V").mul(lit(2i64)))])
            .window(w)
            .aggregate(vec![("S".to_string(), AggExpr::Sum(col("X")))]),
        // A filtered value read twice: each projection runs over a batch
        // that still holds the rows the filter dropped.
        12 => {
            let kept = g.filter(col("V").ge(lit(thr)));
            let doubled = kept
                .clone()
                .project(vec![("X".to_string(), col("V").mul(lit(2i64)))]);
            doubled.union(kept.project(vec![("X".to_string(), col("A"))]))
        }
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

/// `plan`'s one output according to the oracle, or its error message.
fn oracle_single(plan: &LogicalPlan, srcs: &Bindings) -> Result<EventStream, String> {
    oracle::run_single(plan, srcs).map_err(|e| e.to_string())
}

/// The engine's output `got` is the oracle's relation `want`, or both carry
/// the same error message.
fn assert_oracle(
    plan: &LogicalPlan,
    got: &Result<EventStream, String>,
    want: &Result<EventStream, String>,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            let tolerance = Tolerance::of(plan, plan.roots()[0]);
            let same = oracle::same_relation(got, want, &tolerance);
            prop_assert!(same.is_ok(), "{}", same.unwrap_err());
        }
        (got, want) => prop_assert_eq!(
            got.as_ref().map(|_| ()),
            want.as_ref().map(|_| ()),
            "engine vs oracle"
        ),
    }
    Ok(())
}

/// Run `plan` on the engine: the oracle's relation, or its error.
fn assert_all_agree(plan: &LogicalPlan, srcs: &Bindings) -> Result<(), TestCaseError> {
    let engine = execute_single(plan, srcs).map_err(|e| e.to_string());
    assert_oracle(plan, &engine, &oracle_single(plan, srcs))
}

/// `plan` over `batch` bound to `in`, as an `execute` caller binds it:
/// the root as rows, or the error's text.
fn on_batch(plan: &LogicalPlan, batch: EventBatch) -> Result<EventStream, String> {
    let bound: BatchBindings = [("in".to_string(), batch)].into_iter().collect();
    execute(plan, bound)
        .map(|(mut roots, _)| roots.pop().unwrap().into_stream())
        .map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Segmented GroupApply is the group-at-a-time oracle's relation, for
    /// random sub-plan shapes, key widths and event bags; `0..` lengths
    /// include the empty input.
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

    /// The walk keeps the layout it is handed: one batch from the input to
    /// the root, with every group formed once and every node without a
    /// run-aware kernel counted once per walk — or, for the tumbling
    /// shapes, no walk at all: the pane kernel takes every group.
    #[test]
    fn the_walk_keeps_the_layout_it_is_handed(
        events in prop::collection::vec((0i64..400, 0usize..64, 0i64..40), 0..80),
        key_cols in 1usize..3,
        kind in 0usize..SUB_PLANS,
        w in 1i64..50,
        thr in 0i64..45,
    ) {
        let plan = build_plan(key_cols, kind, w, thr);
        let stream = palette_stream(&events);
        let srcs = bindings(vec![("in", stream.clone())]);
        let stats = stats_of(&plan, &srcs);
        let palette = palette();
        let groups = (events.iter())
            .map(|&(_, pi, _)| {
                let (a, b) = palette[pi % palette.len()];
                if key_cols == 1 { (a, 0) } else { (a, b) }
            })
            .collect::<std::collections::BTreeSet<_>>()
            .len() as u64;
        // A nested GroupApply adds its own groups, run by run.
        match kind {
            8 => prop_assert!(stats.groups >= groups),
            _ => prop_assert_eq!(stats.groups, groups),
        }
        let pane = fuse_plan(&plan).unwrap().to_string().contains("[pane]");
        prop_assert_eq!(stats.pane_groups, if pane { groups } else { 0 });
        // The join, the set difference, the nested GroupApply and the UDO
        // run per run: one node each, counted once.
        let per_run = u64::from((6..=9).contains(&kind) && groups > 0);
        prop_assert_eq!(stats.per_run_nodes, per_run);
        let root = execute_single(&plan, &srcs).unwrap();
        assert_oracle(&plan, &Ok(root), &oracle_single(&plan, &srcs))?;
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
    /// execution reports what the oracle meets first — the lowest group in
    /// key order, and its first failing operator.
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

fn stats_of(plan: &LogicalPlan, srcs: &Bindings) -> ExecStats {
    let bound = (srcs.iter())
        .map(|(name, s)| (name.clone(), EventBatch::from_stream(s).unwrap()))
        .collect();
    execute(plan, bound).unwrap().1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The normal form is an identity: any lifetime operator above a
    /// GroupApply, or at the head of its sub-plan, is the same query — on
    /// the engine and on the oracle, which rewrites nothing. (The
    /// planner sinks only a `Hop`; the algebra holds for all of them.)
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
        let (above, inside) = (oracle_single(&above, &srcs), oracle_single(&inside, &srcs));
        let same = oracle::same_relation(&above.unwrap(), &inside.unwrap(), &Tolerance::exact());
        prop_assert!(same.is_ok(), "{}", same.unwrap_err());
    }

    /// The pane kernel is the sweep: `Hop{g, g}` over every mix of
    /// combinable aggregates — null arguments, cells whose arguments are all
    /// null, negative and grid-aligned times, empty cells between bursts and
    /// (`V` ranges over three values) adjacent cells with equal results,
    /// which coalesce — equals the same aggregate swept over key-ordered
    /// runs and the oracle. And the plan alone picks the path: tumbling and combinable takes the kernel,
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
        let taken = stats_of(&kernel, &srcs);
        prop_assert_eq!(taken.pane_groups, taken.groups);
        prop_assert_eq!(stats_of(&sweep, &srcs).pane_groups, 0);
        // A sliding hop, or one aggregate that does not combine.
        let sliding = hop_aggregate_plan(key_cols, grid, 2 * grid, aggs.clone(), false);
        prop_assert_eq!(stats_of(&sliding, &srcs).pane_groups, 0);
        let mut with_avg = aggs.clone();
        with_avg.push(("Mean".to_string(), AggExpr::Avg(col("V"))));
        let avg = hop_aggregate_plan(key_cols, grid, grid, with_avg, false);
        prop_assert_eq!(stats_of(&avg, &srcs).pane_groups, 0);
        assert_all_agree(&avg, &srcs)?;
    }
}

/// The sub-plan kinds of [`sub_plan`] that are per-event steps ending in
/// one Aggregate.
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
    /// and all — and is the oracle's relation, every group formed once. It
    /// is the walk's case of one fragment and one aggregate, so a filter
    /// after the aggregate stays on the columns too.
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
        let stats = stats_of(&plan, &srcs);
        prop_assert_eq!(stats.per_run_nodes, 0);
        let walked = build_plan(key_cols, 4, w, thr);
        assert_all_agree(&walked, &srcs)?;
        prop_assert_eq!(stats_of(&walked, &srcs).groups, stats.groups);
    }

    /// What a per-event aggregate over a batch returns is itself a batch —
    /// the lifetimes, one typed column per aggregate and the key columns,
    /// Null key cells and hash-colliding keys included — whose stream is
    /// the oracle's relation. `min2(V, 2.5)` is typed by both its
    /// arguments, a double, so its `Sum` is a double column whichever
    /// operand wins.
    #[test]
    fn a_per_event_aggregate_on_a_batch_returns_a_batch(
        events in prop::collection::vec((0i64..400, 0usize..64, 0i64..40, 0u8..4), 1..80),
        key_cols in 1usize..3,
        kind in 0usize..PER_EVENT_AGGREGATES,
        w in 1i64..50,
        thr in 0i64..45,
        small in 1i64..40,
    ) {
        let run = |plan: &LogicalPlan, stream: &EventStream| -> Result<EventBatch, TestCaseError> {
            let srcs = bindings(vec![("in", stream.clone())]);
            let want = oracle::run_single(plan, &srcs).unwrap();
            let mut bound = BatchBindings::default();
            bound.insert("in".to_string(), EventBatch::from_stream(stream).unwrap());
            let (mut roots, _) = execute(plan, bound).unwrap();
            let root = roots.pop().unwrap();
            let tolerance = Tolerance::of(plan, plan.roots()[0]);
            let same = oracle::same_relation(&root.clone().into_stream(), &want, &tolerance);
            prop_assert!(same.is_ok(), "{}", same.unwrap_err());
            Ok(root)
        };
        let stream = null_key_stream(&events);
        let root = run(&build_plan(key_cols, kind, w, thr), &stream)?;
        prop_assert_eq!(root.schema().len(), key_cols + root.payload().columns().len() - key_cols);

        // `V` below `small` only where the events say so, then the sum.
        let capped: Vec<_> = events.iter().map(|&(t, pi, v, n)| (t, pi, v % small, n)).collect();
        let q = Query::new();
        let out = q.source("in", payload()).group_apply(keys_of(key_cols), |g| {
            g.window(w).aggregate(vec![(
                "S".to_string(),
                AggExpr::Sum(Expr::call(Func::Min2, vec![col("V"), lit(2.5f64)])),
            )])
        });
        let plan = q.build(vec![out]).unwrap();
        let root = run(&plan, &null_key_stream(&capped))?;
        let sums = root.payload().column(key_cols);
        prop_assert!(matches!(sums.data(), ColumnData::Double(_)));
    }

    /// A per-event step that fails on some events only: `V < k`, shifted
    /// to the end of time, then windowed, so the window moves the lifetime
    /// of a kept event at `t > 400 - w` past the last instant. The walk cuts
    /// the lowest failing group and reports what the oracle meets first —
    /// the lowest failing group in key order, not the first failing row;
    /// when nothing fails, it is the oracle's relation.
    #[test]
    fn a_failing_per_event_step_on_a_batch_reports_the_reference_s_error(
        events in prop::collection::vec((0i64..400, 0usize..64, 0i64..12), 1..60),
        key_cols in 1usize..3,
        k in 0i64..12,
        w in 1i64..50,
    ) {
        let q = Query::new();
        let out = q.source("in", payload()).group_apply(keys_of(key_cols), |g| {
            g.filter(col("V").lt(lit(k)))
                .shift(i64::MAX - 400)
                .window(w)
                .count("N")
        });
        let plan = q.build(vec![out]).unwrap();
        let batch = EventBatch::from_stream(&palette_stream(&events)).unwrap();
        let srcs = bindings(vec![("in", batch.clone().into_stream())]);
        let want = oracle_single(&plan, &srcs);
        let fails = events.iter().any(|&(t, _, v)| v < k && t > 400 - w);
        prop_assert_eq!(want.is_err(), fails);
        let got = on_batch(&plan, batch);
        match (&got, &want) {
            (Err(got), Err(want)) => prop_assert_eq!(got, want),
            _ => assert_oracle(&plan, &got, &want)?,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `min2(V, 2.5)` is typed by both its arguments: a double, whichever
    /// operand wins in whichever group, so a batch holding values on both
    /// sides of 2.5 projects one column of doubles — the oracle's relation.
    #[test]
    fn a_min2_projection_is_typed_by_both_arguments(
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
        let out = execute_single(&plan, &srcs).unwrap();
        prop_assert!(out.events().iter().all(|e| matches!(e.payload.get(key_cols), Value::Double(_))));
    }

    /// Groups that fail at different operators — a fused step, an
    /// aggregate, a UDO — in whichever groups: the walk reports what the
    /// oracle meets first, the lowest failing group in key order and its
    /// first failing operator, text for text.
    #[test]
    fn groups_failing_at_different_operators_report_the_reference_s_error(
        events in prop::collection::vec((0i64..60, 0i64..6, 0i64..12), 1..40),
        step_k in 0i64..13,
        agg_k in 0i64..13,
        udo_v in 0i64..13,
    ) {
        let plan = failing_operators_plan(agg_k, udo_v);
        // An event whose `V` is `step_k` sits at the end of time.
        let events: Vec<_> = (events.iter())
            .map(|&(t, a, v)| (if v == step_k { LATE } else { t }, a, v))
            .collect();
        let batch = batch_of(&events);
        let srcs = bindings(vec![("in", batch.clone().into_stream())]);
        let want = oracle_single(&plan, &srcs);
        let got = on_batch(&plan, batch);
        match (&got, &want) {
            (Err(got), Err(want)) => prop_assert_eq!(got, want),
            _ => assert_oracle(&plan, &got, &want)?,
        }
    }
}

/// A time at the end of time: a window of 3 or more moves a point there
/// past the last instant.
const LATE: i64 = i64::MAX - 2;

/// `in → GroupApply(A)` with three operators that fail on chosen events:
/// a window that moves a [`LATE`] event past the last instant; a SUM of
/// `MAX / ((V - agg_k)² + 1)`, which is `i64::MAX` where `V` is `agg_k`
/// and positive elsewhere, so it leaves `i64` where such an event is alive
/// beside another; and a UDO that fails on `V == udo_v`.
fn failing_operators_plan(agg_k: i64, udo_v: i64) -> LogicalPlan {
    let q = Query::new();
    let out = q.source("in", payload()).group_apply(&["A"], |g| {
        let kept = g.window(3);
        let d = || col("V").sub(lit(agg_k));
        let big = lit(i64::MAX).div(d().mul(d()).add(lit(1i64)));
        let summed = (kept.clone())
            .aggregate(vec![("S".to_string(), AggExpr::Sum(big))])
            .project(vec![("V".to_string(), col("S"))]);
        let udo = kept
            .hop_udo(
                10,
                10,
                Arc::new(FailOn {
                    name: "udo",
                    v: udo_v,
                }),
            )
            .project(vec![("V".to_string(), col("V"))]);
        summed.union(udo)
    });
    q.build(vec![out]).unwrap()
}

/// Points `(t, a, v)` of [`payload`] as a batch, keyed `A = a`, `B = 0`.
fn batch_of(events: &[(i64, i64, i64)]) -> EventBatch {
    let events = (events.iter())
        .map(|&(t, a, v)| Event::point(t, row![a, 0i64, v]))
        .collect();
    EventBatch::from_stream(&EventStream::new(payload(), events)).unwrap()
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
    let want = oracle::run_single(&plan, &srcs).unwrap();
    oracle::same_relation(&out, &want, &Tolerance::exact()).unwrap();
    let sweep = hop_aggregate_plan(1, 10, 10, aggs(), true);
    assert_eq!(out, execute_single(&sweep, &srcs).unwrap());
    assert_eq!(stats_of(&plan, &srcs).pane_groups, 2);
}

/// Combinability is decided from the declared argument type, which every
/// cell inhabits. A double in what would be an integer sum — `V` through
/// `min2(V, 2.5)` — makes the sum a double one, which does not combine: the
/// sweep takes it, and it answers in doubles whichever operand wins.
#[test]
fn a_double_in_an_integer_sum_takes_the_sweep() {
    let min2 = Expr::call(Func::Min2, vec![col("V"), lit(2.5f64)]);
    let plan = hop_aggregate_plan(
        1,
        10,
        10,
        vec![("S".to_string(), AggExpr::Sum(min2))],
        false,
    );
    let ev = |t: i64, v: i64| Event::point(t, row![1i64, 0i64, v]);
    let stream = EventStream::new(payload(), vec![ev(5, 0), ev(15, 3), ev(45, 3)]);
    let srcs = bindings(vec![("in", stream)]);
    let out = execute_single(&plan, &srcs).unwrap();
    let sums: Vec<_> = out.events().iter().map(|e| e.payload.get(1)).collect();
    assert_eq!(
        sums,
        [
            &Value::Double(0.0),
            &Value::Double(2.5),
            &Value::Double(2.5)
        ]
    );
    let want = oracle::run_single(&plan, &srcs).unwrap();
    oracle::same_relation(&out, &want, &Tolerance::exact()).unwrap();
    let stats = stats_of(&plan, &srcs);
    assert_eq!((stats.groups, stats.pane_groups), (1, 0));
}

/// A UDO that hands back its window with `V` as strings: a batch of its
/// output schema whose column does not hold its field's type.
#[derive(Debug)]
struct Mistyped;

impl WindowUdo for Mistyped {
    fn name(&self) -> &str {
        "mistyped"
    }

    fn output_schema(&self, input: &Schema) -> timr_suite::temporal::Result<Schema> {
        Ok(input.clone())
    }

    fn apply(
        &self,
        _window_end: i64,
        window: &EventBatch,
    ) -> timr_suite::temporal::Result<ColumnBatch> {
        let (schema, mut columns, rows) = window.payload().clone().into_parts();
        let strs = StrCodes::from_strs(std::iter::repeat_n("x", rows));
        columns[2] = Column::new(ColumnData::Str(strs), None);
        Ok(ColumnBatch::new(schema, columns, rows))
    }
}

/// A batch whose column does not hold its field's type stops where it
/// enters the engine, with an input error naming the source (or the UDO)
/// and the column, before any operator reads it: a binding at the top
/// level (whose window would fail on its late event), a binding a
/// GroupApply's sub-plan reads, and a UDO's output inside a GroupApply.
/// A column whose every slot is null may carry any storage.
#[test]
fn a_batch_that_contradicts_its_schema_stops_at_the_edge() {
    let strings = |nulls: &[bool]| {
        let strs = StrCodes::from_strs(std::iter::repeat_n("x", nulls.len()));
        let validity = timr_suite::relation::column::Validity::from_null_flags(nulls);
        Column::new(ColumnData::Str(strs), validity)
    };
    let mistyped = |v: Column| {
        let (vt, ve, payload) = batch_of(&[(1, 0, 1), (LATE, 1, 2)]).into_parts();
        let (schema, mut columns, rows) = payload.into_parts();
        columns[2] = v;
        EventBatch::new(vt, ve, ColumnBatch::new(schema, columns, rows))
    };
    let mismatch =
        |name: &str| format!("input error: {name}: type mismatch in `V`: expected long, got str");
    let q = Query::new();
    let out = q.source("in", payload()).window(5).count("N");
    let windowed = q.build(vec![out]).unwrap();
    assert_eq!(
        on_batch(&windowed, mistyped(strings(&[false, true]))),
        Err(mismatch("source `in`"))
    );
    // All null: the window is what fails, on the late event.
    let err = on_batch(&windowed, mistyped(strings(&[true, true]))).unwrap_err();
    assert!(err.contains("past the range of time"), "{err}");
    // A sub-plan's outer source.
    let plan = outer_source_plan(1, 5);
    let mut bound = BatchBindings::default();
    bound.insert("in".to_string(), batch_of(&[(1, 0, 1), (2, 1, 2)]));
    bound.insert("side".to_string(), mistyped(strings(&[false, false])));
    let err = execute(&plan, bound).unwrap_err().to_string();
    assert_eq!(err, mismatch("source `side`"));
    // A UDO's output.
    let q = Query::new();
    let out = (q.source("in", payload()))
        .group_apply(&["A"], |g| g.hop_udo(10, 10, Arc::new(Mistyped)).count("N"));
    let plan = q.build(vec![out]).unwrap();
    assert_eq!(
        on_batch(&plan, batch_of(&[(1, 0, 1), (2, 1, 2)])),
        Err(mismatch("UDO `mistyped`"))
    );
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
    let reference = oracle::run_single(&plan, &srcs).unwrap_err().to_string();
    assert_eq!(reference, "eval error: second saw 3");
    let err = execute_single(&plan, &srcs).unwrap_err();
    assert_eq!(err.to_string(), reference);
}

/// A segmented kernel failing past the first group. Group 1 fails in the
/// aggregate (two `i64::MAX` sums), group 2 already in the fused step
/// before it (a window past the last instant); group 0's only event, which
/// the window would fail on too, is filtered out.
#[test]
fn kernel_errors_keep_the_reference_s_order() {
    let q = Query::new();
    let out = q.source("in", payload()).group_apply(&["A"], |g| {
        g.filter(col("V").ge(lit(5i64)))
            .window(3)
            .aggregate(vec![("S".into(), AggExpr::Sum(col("V")))])
    });
    let plan = q.build(vec![out]).unwrap();
    let max = i64::MAX;
    let batch = batch_of(&[(LATE, 0, 1), (LATE, 2, 9), (1, 1, max), (2, 1, max)]);
    let srcs = bindings(vec![("in", batch.clone().into_stream())]);
    let reference = oracle::run_single(&plan, &srcs).unwrap_err().to_string();
    // The aggregate's complaint about group 1, not the window's about
    // group 2.
    assert_eq!(
        reference,
        "sum overflow: aggregate `S` at instant 2 leaves the range of a long"
    );
    assert_eq!(on_batch(&plan, batch), Err(reference));
}

/// BotElim's shape — two filtered counts off one group, a union, a
/// projection — over a batch whose step fails only in the second branch,
/// and there only in later groups: `V < 5` windowed by 5 fails on the
/// events at the end of time. Group 3's failing row comes first in input
/// order, group 2's is the one a group-at-a-time evaluation meets first.
/// The walk cuts group 3, then group 2, and reports the oracle's error,
/// text for text.
#[test]
fn a_bot_elim_shaped_walk_reports_the_reference_s_error() {
    let q = Query::new();
    let out = q.source("in", payload()).group_apply(&["A"], |g| {
        let low = g
            .clone()
            .filter(col("V").lt(lit(100i64)))
            .count("N")
            .filter(col("N").gt(lit(1i64)));
        let high = g
            .filter(col("V").lt(lit(5i64)))
            .window(5)
            .count("N")
            .filter(col("N").gt(lit(0i64)));
        low.union(high)
            .project(vec![("Hit".to_string(), lit(1i64))])
    });
    let plan = q.build(vec![out]).unwrap();
    let (max, late) = (i64::MAX, i64::MAX - 2);
    let batch = batch_of(&[
        (max - 4, 3, 4),
        (2, 1, 9),
        (3, 2, 9),
        (late, 2, 3),
        (5, 1, 7),
    ]);
    let srcs = bindings(vec![("in", batch.clone().into_stream())]);
    let reference = oracle::run_single(&plan, &srcs).unwrap_err().to_string();
    assert_eq!(
        reference,
        format!(
            "time overflow: Window w=5 moves [{late}, {}) past the range of time",
            late + 1
        )
    );
    assert_eq!(on_batch(&plan, batch), Err(reference));
}

/// A nested GroupApply in one branch of a walk forms its groups once per
/// outer group, and its walk counts as one per-run node of the outer one.
#[test]
fn a_nested_group_apply_counts_its_groups_once() {
    let q = Query::new();
    let out = q.source("in", payload()).group_apply(&["A"], |g| {
        let min2 = |c: &str| Expr::call(Func::Min2, vec![col(c), lit(2.5f64)]);
        let nested = g
            .clone()
            .group_apply(&["B"], |h| h.count("N"))
            .project(vec![("M".to_string(), min2("N"))]);
        nested.union(g.project(vec![("M".to_string(), min2("V"))]))
    });
    let plan = q.build(vec![out]).unwrap();
    let events: Vec<_> = (0..12).map(|i| (i * 7, i as usize % 5, i % 6)).collect();
    let srcs = bindings(vec![("in", palette_stream(&events))]);
    assert_all_agree(&plan, &srcs).unwrap();
    let stats = stats_of(&plan, &srcs);
    // Five palette keys, three outer groups (`A` in 0..3), each holding its
    // own `B`s.
    let palette = palette();
    let outer: std::collections::BTreeSet<_> = (0..5).map(|i| palette[i].0).collect();
    let inner: std::collections::BTreeSet<_> = (0..5).map(|i| palette[i]).collect();
    assert_eq!(stats.groups, (outer.len() + inner.len()) as u64);
    assert_eq!(stats.per_run_nodes, 1);
}

/// The four `BtPipeline` plans over a 200-user log, each fed the previous
/// one's output: the engine computes the oracle's relations.
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
        let want = oracle::run_single(plan, &srcs).unwrap();
        assert!(!want.is_empty());
        let tolerance = Tolerance::of(plan, plan.roots()[0]);
        oracle::same_relation(&engine, &want, &tolerance).unwrap();
        engine
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
