//! Map-side DSMS fragments: the embedded-DSMS idea of paper §III-C applied
//! to the *map* phase.
//!
//! [`crate::compile`] and [`crate::multi`] split each stage plan with
//! [`temporal::plan::push_down`]; the exchange-free prefix of every pushed
//! input compiles into one [`DsmsMapper`] unit. The cluster invokes the
//! mapper once per input extent, *before* partitioning: rows decode into
//! events in the layout the unit chose at compile time (columns when the
//! pushed fragment computes, rows when it only filters — see
//! [`MapperUnit::layout`]), the unmodified DSMS runs the mapper plan, and
//! the root is encoded by value in the order the executor produced it
//! ([`EventEncoding::encode_extent_order`]). Nothing sorts here: canonical
//! order is established once, at the reduce sink, where bytes are published.
//! Executor output order is already a pure function of the extent's rows —
//! fused row operators preserve input order and GroupApply merges its groups
//! in sorted-key order, at any pool width — so mapper output stays a pure
//! byte-deterministic function of its input, which is what lets shuffle
//! rebuilds and task retries re-run it safely.
//!
//! Mapper output is always [`EventEncoding::Interval`]-framed: stateless
//! prefixes can stretch lifetimes (windows) and partial aggregates emit
//! interval cells, so the point encoding of raw logs no longer fits.

use crate::bridge::EventEncoding;
use crate::compile::{bind_rows, InputBinding};
use crate::error::TimrError;
use mapreduce::{Mapper, MapperContext, MrError};
use relation::{Row, Schema};
use rustc_hash::FxHashMap;
use temporal::exec::{DataBindings, StreamData};
use temporal::plan::{FusedStep, LogicalPlan, MapperPlan, Operator};

/// One pushed input's map-side fragment.
#[derive(Debug, Clone)]
pub(crate) struct MapperUnit {
    /// The mapper plan (source → pushed prefix [→ partial aggregation]).
    plan: LogicalPlan,
    /// How to decode the *raw* input rows (the stage input's encoding).
    binding: InputBinding,
    /// Payload schema of the mapper output (the plan root's schema).
    output_payload: Schema,
    /// Decode extents into column batches (else rows): decided once, at
    /// construction, from the fused plan by [`layout_rule`].
    columnar: bool,
    /// The plan feature that decided `columnar` (reported, never read back).
    reason: &'static str,
}

impl MapperUnit {
    /// Build a unit from a [`push_down`](temporal::plan::push_down) mapper
    /// plan and the raw input's binding. The mapper plan is fused here,
    /// separately from the residual — the two halves are independent plans
    /// after the split — so the per-extent executor never re-fuses.
    pub(crate) fn new(mp: &MapperPlan, binding: InputBinding) -> crate::error::Result<Self> {
        let plan = temporal::plan::fuse_plan(&mp.plan)
            .map_err(TimrError::Temporal)?
            .into_owned();
        let output_payload = plan.schema_of(plan.roots()[0]).clone();
        let (columnar, reason) = layout_rule(&plan);
        Ok(MapperUnit {
            plan,
            binding,
            output_payload,
            columnar,
            reason,
        })
    }

    /// Whether this unit decodes its extents to columns, and the plan
    /// feature that decided it.
    pub(crate) fn layout(&self) -> (bool, &'static str) {
        (self.columnar, self.reason)
    }
}

/// The map-side layout rule. Transposing dataset rows into a column batch
/// pays only when the pushed fragment *computes*: a partial aggregate (the
/// only non-stateless node a mapper plan can hold) or a projection runs on
/// the kernels, while a prefix that only filters and rewrites lifetimes is
/// cheaper on the in-place row operators (measured on `dash_pushdown` and
/// `bt_timr`, one workload on each side — DESIGN.md, "The engine").
fn layout_rule(plan: &LogicalPlan) -> (bool, &'static str) {
    let is_partial = |op: &Operator| !matches!(op, Operator::Source { .. }) && !op.is_stateless();
    let projects = |op: &Operator| {
        matches!(op, Operator::FusedFragment { steps }
            if steps.iter().any(|s| matches!(s, FusedStep::Project { .. })))
    };
    if plan.nodes().iter().any(|n| is_partial(&n.op)) {
        (true, "partial aggregate")
    } else if plan.nodes().iter().any(|n| projects(&n.op)) {
        (true, "project step")
    } else {
        (false, "filter-only prefix")
    }
}

/// The map-side sibling of [`crate::compile::DsmsReducer`]: per stage
/// input, either an embedded-DSMS fragment or identity passthrough.
#[derive(Debug, Clone)]
pub(crate) struct DsmsMapper {
    /// One slot per stage input, in stage-input order; `None` passes the
    /// input through to the shuffle untouched.
    units: Vec<Option<MapperUnit>>,
}

impl DsmsMapper {
    pub(crate) fn new(units: Vec<Option<MapperUnit>>) -> Self {
        DsmsMapper { units }
    }
}

impl Mapper for DsmsMapper {
    fn output_schema(&self, input: usize, schema: &Schema) -> mapreduce::Result<Schema> {
        Ok(match self.units.get(input).and_then(Option::as_ref) {
            Some(unit) => EventEncoding::Interval.dataset_schema(&unit.output_payload),
            None => schema.clone(),
        })
    }

    fn map(&self, ctx: &MapperContext, rows: &[Row]) -> mapreduce::Result<Option<Vec<Row>>> {
        let Some(unit) = self.units.get(ctx.input).and_then(Option::as_ref) else {
            return Ok(None);
        };
        let to_mr = |e: TimrError| MrError::Reducer {
            stage: ctx.stage.clone(),
            partition: ctx.extent,
            message: format!("mapper input {}: {e}", ctx.input),
        };
        let mut sources: DataBindings = FxHashMap::default();
        let binding = &unit.binding;
        let data = if unit.columnar {
            bind_rows(binding, rows)
        } else {
            binding
                .encoding
                .decode_stream(rows, &binding.payload)
                .map(StreamData::Rows)
        }
        .map_err(to_mr)?;
        sources.insert(binding.source_name.clone(), data);
        let (mut roots, _) = temporal::exec::execute_data(&unit.plan, sources, &ctx.dsms_pool)
            .map_err(|e| to_mr(TimrError::Temporal(e)))?;
        let root = roots.pop().expect("mapper plans have exactly one root");
        EventEncoding::Interval
            .encode_extent_order(root)
            .map(Some)
            .map_err(to_mr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relation::schema::{ColumnType, Field};
    use relation::Value;
    use temporal::expr::{col, lit};
    use temporal::plan::{push_down, Query};
    use temporal::Expr;

    fn payload() -> Schema {
        Schema::new(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("UserId", ColumnType::Str),
            Field::new("V", ColumnType::Long),
        ])
    }

    /// Point-framed dataset rows; `kind` flips cells to Null and, rarely,
    /// puts an Int where the schema says Long so the batch decode refuses
    /// and the forced-columnar unit takes its row fallback.
    fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
        let row = (0i64..500, 1i32..4, 0u8..4, -50i64..50, 0u8..40).prop_map(
            |(t, stream, user, v, kind)| {
                let v = match kind {
                    0 => Value::Null,
                    1 => Value::Int(v as i32),
                    _ => Value::Long(v),
                };
                let user = if kind == 2 {
                    Value::Null
                } else {
                    Value::from(format!("u{user}"))
                };
                Row::new(vec![Value::Long(t), Value::Int(stream), user, v])
            },
        );
        prop::collection::vec(row, 0..60)
    }

    fn predicate(idx: usize, thresh: i64) -> Expr {
        match idx % 4 {
            0 => col("StreamId").eq(lit(1)),
            1 => col("V").ge(lit(thresh)),
            2 => col("V")
                .div(col("StreamId"))
                .gt(lit(thresh))
                .or(col("StreamId").eq(lit(2))),
            _ => col("UserId").ne(lit("u0")),
        }
    }

    /// A random pushable prefix — filters, an optional projection, an
    /// optional window — ending either in a keyed hopping count (whose
    /// partial aggregate pushes map-side) or at the exchange.
    fn mapper_unit(shape: (usize, usize, i64, bool, bool, bool)) -> (MapperUnit, &'static str) {
        let (p1, p2, thresh, project, window, partial) = shape;
        let q = Query::new();
        let mut s = q.source("logs", payload()).filter(predicate(p1, thresh));
        if project {
            s = s.project(vec![
                ("UserId".to_string(), col("UserId")),
                ("StreamId".to_string(), col("StreamId")),
                (
                    "V".to_string(),
                    col("V").mul(lit(3i64)).add(col("StreamId")),
                ),
            ]);
        }
        s = s.filter(predicate(p2, thresh - 7));
        if window {
            s = s.window(20);
        }
        let out = if partial {
            s.group_apply(&["UserId"], |g| g.hop_window(10, 40).count("N"))
        } else {
            s.group_apply(&["UserId"], |g| g.window(30).count("N"))
        };
        let plan = q.build(vec![out]).unwrap();
        let pd = push_down(&plan, Some(&["UserId".to_string()])).unwrap();
        let mp = pd
            .mappers
            .first()
            .expect("the stateless prefix always pushes");
        let binding = InputBinding {
            source_name: "logs".into(),
            encoding: EventEncoding::Point,
            payload: payload(),
        };
        let expected = if mp.partial_agg {
            "partial aggregate"
        } else if project {
            "project step"
        } else {
            "filter-only prefix"
        };
        (MapperUnit::new(mp, binding).unwrap(), expected)
    }

    fn run(unit: MapperUnit, rows: &[Row]) -> std::result::Result<Vec<Row>, String> {
        DsmsMapper::new(vec![Some(unit)])
            .map(&MapperContext::standalone("s", 0, 0), rows)
            .map(|out| out.expect("unit 0 maps"))
            .map_err(|e| e.to_string())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The compile-time layout rule can never change bytes: the same
        /// mapper plan forced to rows and forced to batches emits identical
        /// rows (or the identical error), and the rule reports the reason
        /// the plan shape implies.
        #[test]
        fn mapper_output_is_layout_invariant(
            rows in arb_rows(),
            shape in (0usize..4, 0usize..4, -20i64..20, any::<bool>(), any::<bool>(), any::<bool>()),
        ) {
            let (unit, expected_reason) = mapper_unit(shape);
            let (columnar, reason) = unit.layout();
            prop_assert_eq!(reason, expected_reason);
            prop_assert_eq!(columnar, reason != "filter-only prefix");
            let (mut on_rows, mut on_batches) = (unit.clone(), unit);
            on_rows.columnar = false;
            on_batches.columnar = true;
            prop_assert_eq!(run(on_rows, &rows), run(on_batches, &rows));
        }
    }
}
