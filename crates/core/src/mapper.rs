//! Map-side DSMS fragments: the embedded-DSMS idea of paper §III-C applied
//! to the *map* phase.
//!
//! The stage builder ([`crate::compile`], which TiMR fragments and shared
//! multi-query DAGs both go through) splits each stage plan with
//! [`temporal::plan::push_down`]; the exchange-free prefix of every pushed
//! input compiles into one [`DsmsMapper`] unit. The cluster invokes the
//! mapper once per input extent, *before* partitioning, on the extent's
//! decoded batch: the framing columns move out as the lifetime vectors
//! (the one bind mappers and reducers share, [`bind_input`]), the
//! unmodified DSMS runs the mapper plan, and the root is encoded by value,
//! back into a dataset batch, in the order the executor produced it
//! ([`EventEncoding::encode_extent_order`]). Nothing sorts here: canonical
//! order is established once, at the reduce sink, where bytes are published.
//! Executor output order is already a pure function of the extent's rows —
//! fused fragments preserve input order and GroupApply emits its groups
//! in sorted-key order — so mapper output stays a pure
//! byte-deterministic function of its input, which is what lets shuffle
//! rebuilds and task retries re-run it safely.
//!
//! Mapper output is always [`EventEncoding::Interval`]-framed: stateless
//! prefixes can stretch lifetimes (windows) and partial aggregates emit
//! interval cells, so the point encoding of raw logs no longer fits.

use crate::bridge::EventEncoding;
use crate::compile::{bind_input, InputBinding};
use crate::error::TimrError;
use mapreduce::{Mapper, MapperContext, MrError};
use relation::{ColumnBatch, Schema};
use rustc_hash::FxHashMap;
use temporal::exec::BatchBindings;
use temporal::plan::{LogicalPlan, MapperPlan};

/// One pushed input's map-side fragment.
#[derive(Debug, Clone)]
pub(crate) struct MapperUnit {
    /// The mapper plan (source → pushed prefix [→ partial aggregation]).
    plan: LogicalPlan,
    /// How to bind the *raw* input extent (the stage input's encoding).
    binding: InputBinding,
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
        Ok(MapperUnit { plan, binding })
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
            Some(unit) => {
                EventEncoding::Interval.dataset_schema(unit.plan.schema_of(unit.plan.roots()[0]))
            }
            None => schema.clone(),
        })
    }

    fn map(&self, ctx: &MapperContext, batch: ColumnBatch) -> mapreduce::Result<ColumnBatch> {
        let Some(unit) = self.units.get(ctx.input).and_then(Option::as_ref) else {
            return Ok(batch);
        };
        let to_mr = |e: TimrError| MrError::Reducer {
            stage: ctx.stage.clone(),
            partition: ctx.extent,
            message: format!("mapper input {}: {e}", ctx.input),
        };
        let mut sources: BatchBindings = FxHashMap::default();
        let data = bind_input(&unit.binding, batch).map_err(to_mr)?;
        sources.insert(unit.binding.source_name.clone(), data);
        let (mut roots, _) = temporal::exec::execute(&unit.plan, sources)
            .map_err(|e| to_mr(TimrError::Temporal(e)))?;
        let root = roots.pop().expect("mapper plans have exactly one root");
        EventEncoding::Interval
            .encode_extent_order(root)
            .map_err(to_mr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relation::schema::{ColumnType, Field};
    use relation::{Row, Value};
    use temporal::expr::{col, lit};
    use temporal::plan::{push_down, Query};
    use temporal::EventBatch;
    use temporal::Expr;

    fn payload() -> Schema {
        Schema::new(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("UserId", ColumnType::Str),
            Field::new("V", ColumnType::Long),
        ])
    }

    /// Point-framed dataset rows; `kind` flips cells to Null.
    fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
        let row = (0i64..500, 1i32..4, 0u8..4, -50i64..50, 0u8..40).prop_map(
            |(t, stream, user, v, kind)| {
                let v = match kind {
                    0 => Value::Null,
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
    fn mapper_unit(shape: (usize, usize, i64, bool, bool, bool)) -> MapperUnit {
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
        MapperUnit::new(mp, binding).unwrap()
    }

    /// The unit over the extent `rows` seal into: its output's image, or
    /// its error.
    fn on_batch(unit: &MapperUnit, rows: &[Row]) -> std::result::Result<Vec<u8>, String> {
        let schema = EventEncoding::Point.dataset_schema(&payload());
        let extent = ColumnBatch::from_rows(&schema, rows).unwrap();
        DsmsMapper::new(vec![Some(unit.clone())])
            .map(&MapperContext::standalone("s", 0, 0), extent)
            .map(|out| out.to_extent_bytes().unwrap())
            .map_err(|e| e.to_string())
    }

    /// The same plan over the rows themselves, decoded one by one and laid
    /// out as a batch.
    fn on_rows(unit: &MapperUnit, rows: &[Row]) -> std::result::Result<Vec<u8>, String> {
        let stream = EventEncoding::Point
            .decode_stream(rows, &payload())
            .unwrap();
        let mut sources: BatchBindings = FxHashMap::default();
        sources.insert(
            "logs".to_string(),
            EventBatch::from_stream(&stream).unwrap(),
        );
        let (mut roots, _) = temporal::exec::execute(&unit.plan, sources)
            .map_err(|e| format!("reducer failed in `s` partition 0: mapper input 0: {e}"))?;
        let out = EventEncoding::Interval.encode_extent_order(roots.pop().unwrap());
        Ok(out.unwrap().to_extent_bytes().unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A mapper reads its extent as a batch and returns one: the image
        /// it emits is the image the same plan emits over the extent's rows,
        /// decoded one by one (or the same error).
        #[test]
        fn mapper_output_is_the_row_plans_output(
            rows in arb_rows(),
            shape in (0usize..4, 0usize..4, -20i64..20, any::<bool>(), any::<bool>(), any::<bool>()),
        ) {
            let unit = mapper_unit(shape);
            prop_assert_eq!(on_batch(&unit, &rows), on_rows(&unit, &rows));
        }
    }
}
