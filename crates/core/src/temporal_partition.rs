//! Temporal partitioning (paper §III-B).
//!
//! Many CQs — e.g. a global sliding-window count — have no payload column to
//! partition on. If the plan's history horizon is `w`, the time axis can be
//! divided into *spans* of width `s` with overlap `w`: span `i` receives
//! input events with timestamps in `[t0 + s·i − w, t0 + s·(i+1))` and owns
//! output whose LE falls in `[t0 + s·i, t0 + s·(i+1))`. Because every
//! instant a span owns sees the full `w` of history, clipping each span's
//! output to its owned interval and unioning the clips reproduces the
//! unpartitioned output exactly (the property test in `tests/` checks this
//! for random event sets and span widths).
//!
//! Span width trades duplicated work at overlaps (small `s` ⇒ each event is
//! replicated into `⌈w/s⌉+1` spans) against available parallelism (large
//! `s` ⇒ few spans) — the U-shaped curve of paper Fig 16.

use crate::bridge::EventEncoding;
use crate::compile::{bind_input, InputBinding};
use crate::error::{Result, TimrError};
use mapreduce::{
    Cluster, Dataset, Dfs, MrError, Partitioner, Reducer, ReducerContext, Stage, StageStats,
};
use relation::schema::{ColumnType, Field};
use relation::{ColumnBatch, Row, Schema, Value};
use rustc_hash::FxHashMap;
use std::sync::Arc;
use temporal::exec::BatchBindings;
use temporal::plan::LogicalPlan;
use temporal::time::Lifetime;
use temporal::EventBatch;
use temporal::{Duration, Time};

/// Name of the injected span-index column.
pub const SPAN_COLUMN: &str = "__Span";

/// Configuration of a temporally-partitioned run.
#[derive(Debug, Clone)]
pub struct TemporalPartitionJob {
    /// Job name (prefixes dataset names).
    pub name: String,
    /// The temporal query: single output, single source, and *no* payload
    /// partitioning (it will be partitioned purely by time).
    pub plan: LogicalPlan,
    /// Span width `s`. The source dataset is Point-framed: span
    /// replication reads only its `Time` column.
    pub span_width: Duration,
}

/// Outcome of a temporally-partitioned run.
#[derive(Debug)]
pub struct TemporalPartitionOutput {
    /// DFS name of the output dataset (Interval-encoded; decode it with
    /// [`crate::bridge::read_output`]).
    pub dataset: String,
    /// Stage statistics of the span stage (the map/expand phase is local).
    pub stats: StageStats,
    /// Number of spans used.
    pub spans: usize,
    /// Replication factor: expanded rows / input rows.
    pub replication: f64,
}

impl TemporalPartitionJob {
    /// Build a job with defaults.
    pub fn new(name: impl Into<String>, plan: LogicalPlan, span_width: Duration) -> Self {
        TemporalPartitionJob {
            name: name.into(),
            plan,
            span_width,
        }
    }

    /// Run against the single source dataset the plan names.
    pub fn run(&self, dfs: &Dfs, cluster: &Cluster) -> Result<TemporalPartitionOutput> {
        if self.span_width <= 0 {
            return Err(TimrError::Compile("span width must be positive".into()));
        }
        let sources = self.plan.sources();
        if sources.len() != 1 || self.plan.roots().len() != 1 {
            return Err(TimrError::Compile(
                "temporal partitioning requires a single-source, single-output plan".into(),
            ));
        }
        let (source_name, payload_schema) = (sources[0].0.to_string(), sources[0].1.clone());
        let overlap = self.plan.history_horizon();
        let input = dfs.get(&source_name)?;

        // ---- map/expand phase: replicate rows into overlapping spans ----
        // Both passes read the dataset's rows, decoded once (a damaged
        // extent is the DFS's `Corrupt` error).
        let mut rows = Vec::with_capacity(input.len());
        for i in 0..input.partitions.len() {
            rows.extend(input.batch(i)?.to_rows());
        }
        let time_idx = input.schema.index_of(relation::schema::TIME_COLUMN)?;
        let mut min_t = Time::MAX;
        let mut max_t = Time::MIN;
        for r in &rows {
            let t = r
                .get(time_idx)
                .as_long()
                .ok_or_else(|| TimrError::Compile("non-integral Time in source row".into()))?;
            min_t = min_t.min(t);
            max_t = max_t.max(t);
        }
        if input.is_empty() {
            return Err(TimrError::Compile(
                "temporal partitioning of an empty dataset".into(),
            ));
        }
        let t0 = min_t;
        let s = self.span_width;
        let n_spans = (((max_t - t0) / s) + 1) as usize;

        let mut expanded: Vec<Row> = Vec::with_capacity(input.len() * 2);
        for r in &rows {
            let t = r.get(time_idx).as_long().expect("validated above");
            let d = t - t0;
            let lo = d / s; // first span whose input range contains t
            let hi = ((d + overlap) / s).min(n_spans as i64 - 1);
            for span in lo..=hi {
                let mut values = Vec::with_capacity(r.len() + 1);
                values.push(Value::Long(span));
                values.extend_from_slice(r.values());
                expanded.push(Row::new(values));
            }
        }
        let replication = expanded.len() as f64 / input.len() as f64;

        let mut fields = vec![Field::new(SPAN_COLUMN, ColumnType::Long)];
        fields.extend(input.schema.fields().iter().cloned());
        let expanded_schema = Schema::new(fields);
        let expanded_name = format!("{}__spans", self.name);
        dfs.put_overwrite(&expanded_name, Dataset::single(expanded_schema, expanded));

        // ---- reduce phase: one DSMS per span, output clipped to the
        //      span's owned interval ----
        let reducer = SpanReducer {
            // Fused once, so each span's executor entry re-fuses nothing.
            plan: temporal::plan::fuse_plan(&self.plan)?.into_owned(),
            source: InputBinding {
                source_name,
                encoding: EventEncoding::Point,
                payload: payload_schema,
            },
            t0,
            span_width: s,
            n_spans,
        };
        let output = format!("{}__out", self.name);
        let stage = Stage::new(
            format!("{}/spans", self.name),
            vec![expanded_name],
            output.clone(),
            Partitioner::BucketColumn {
                column: SPAN_COLUMN.into(),
            },
            n_spans,
            Arc::new(reducer),
        )?;
        let stats = cluster.run_stage(dfs, &stage)?;

        Ok(TemporalPartitionOutput {
            dataset: output,
            stats,
            spans: n_spans,
            replication,
        })
    }
}

/// Reducer for one span: strip the span column, run the DSMS, clip output
/// to the owned interval.
#[derive(Debug, Clone)]
struct SpanReducer {
    plan: LogicalPlan,
    source: InputBinding,
    t0: Time,
    span_width: Duration,
    n_spans: usize,
}

impl Reducer for SpanReducer {
    fn output_schema(&self, _inputs: &[Schema]) -> mapreduce::Result<Schema> {
        let payload = self.plan.schema_of(self.plan.roots()[0]);
        Ok(EventEncoding::Interval.dataset_schema(payload))
    }

    fn reduce(
        &self,
        ctx: &ReducerContext,
        mut inputs: Vec<ColumnBatch>,
    ) -> mapreduce::Result<Vec<ColumnBatch>> {
        let to_mr = |m: String| MrError::Reducer {
            stage: ctx.stage.clone(),
            partition: ctx.partition,
            message: m,
        };
        // Drop the leading span column: what is left is the source dataset's
        // own layout, which binds like any other shuffled input — columns
        // moved, nothing copied.
        let (schema, mut columns, rows) = inputs
            .pop()
            .expect("the span stage has one input")
            .into_parts();
        columns.remove(0);
        let stripped = ColumnBatch::new(Schema::new(schema.fields()[1..].to_vec()), columns, rows);
        let data = bind_input(&self.source, stripped).map_err(|e| to_mr(e.to_string()))?;
        let mut sources: BatchBindings = FxHashMap::default();
        sources.insert(self.source.source_name.clone(), data);
        let (mut roots, _) =
            temporal::exec::execute(&self.plan, sources).map_err(|e| to_mr(e.to_string()))?;
        let result = roots.pop().expect("span plans have exactly one root");

        // Owned interval: [t0 + s·p, t0 + s·(p+1)), extended to ±∞ at the
        // first and last span so boundary output is never lost.
        let span = ctx.partition as i64;
        let own_start = if span == 0 {
            Time::MIN / 2
        } else {
            self.t0 + self.span_width * span
        };
        let own_end = if span as usize == self.n_spans - 1 {
            Time::MAX / 2
        } else {
            self.t0 + self.span_width * (span + 1)
        };
        let own = Lifetime::new(own_start, own_end);
        Ok(vec![EventEncoding::Interval
            .encode_sink(clip(result, &own))
            .map_err(|e| to_mr(e.to_string()))?])
    }
}

/// Every event's lifetime intersected with `own`; events outside it drop.
fn clip(mut batch: EventBatch, own: &Lifetime) -> EventBatch {
    let (vt, ve) = batch.times_mut();
    let mut kept = Vec::with_capacity(vt.len());
    for (k, (le, re)) in vt.iter_mut().zip(ve.iter_mut()).enumerate() {
        (*le, *re) = ((*le).max(own.start), (*re).min(own.end));
        if le < re {
            kept.push(k as u32);
        }
    }
    batch.compact(&kept);
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::row;
    use temporal::exec::{bindings, execute_single};
    use temporal::plan::Query;

    fn payload() -> Schema {
        Schema::new(vec![Field::new("AdId", ColumnType::Str)])
    }

    /// 30-tick sliding count with no payload key (the Fig 16 query shape).
    fn sliding_count_plan() -> LogicalPlan {
        let q = Query::new();
        let out = q.source("logs", payload()).window(30).count("N");
        q.build(vec![out]).unwrap()
    }

    fn log_rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| row![i * 3 % 997, format!("ad{}", i % 4)])
            .collect()
    }

    fn reference(rows: &[Row]) -> temporal::EventStream {
        let stream = EventEncoding::Point
            .decode_stream(rows, &payload())
            .unwrap();
        execute_single(&sliding_count_plan(), &bindings(vec![("logs", stream)]))
            .unwrap()
            .normalize()
    }

    fn run_with_span(rows: Vec<Row>, span_width: i64) -> (Dfs, TemporalPartitionOutput) {
        let dfs = Dfs::new();
        dfs.put(
            "logs",
            Dataset::single(EventEncoding::Point.dataset_schema(&payload()), rows),
        )
        .unwrap();
        let job = TemporalPartitionJob::new("tp", sliding_count_plan(), span_width);
        let out = job.run(&dfs, &Cluster::new()).unwrap();
        (dfs, out)
    }

    #[test]
    fn spans_reproduce_unpartitioned_output() {
        let rows = log_rows(400);
        let want = reference(&rows);
        for span_width in [40, 100, 250, 5000] {
            let (dfs, out) = run_with_span(rows.clone(), span_width);
            let got = crate::bridge::read_output(&dfs, &out.dataset).unwrap();
            assert!(
                got.same_relation(&want),
                "span width {span_width} changed the result (spans={})",
                out.spans
            );
        }
    }

    #[test]
    fn small_spans_replicate_more() {
        let rows = log_rows(400);
        let (_, small) = run_with_span(rows.clone(), 40);
        let (_, large) = run_with_span(rows, 400);
        assert!(small.spans > large.spans);
        assert!(small.replication > large.replication);
        assert!(large.replication >= 1.0);
    }

    #[test]
    fn empty_dataset_rejected() {
        let dfs = Dfs::new();
        dfs.put(
            "logs",
            Dataset::single(EventEncoding::Point.dataset_schema(&payload()), vec![]),
        )
        .unwrap();
        let job = TemporalPartitionJob::new("tp", sliding_count_plan(), 100);
        assert!(job.run(&dfs, &Cluster::new()).is_err());
    }

    /// Replication reads only `Time`, so an Interval event would reach only
    /// the spans around its LE: an Interval-framed source is refused with
    /// the error that names the source and both schemas.
    #[test]
    fn an_interval_framed_source_is_a_named_error() {
        let dfs = Dfs::new();
        let rows = vec![row![0i64, 1000i64, "a"], row![500i64, 501i64, "b"]];
        let stored = EventEncoding::Interval.dataset_schema(&payload());
        dfs.put("logs", Dataset::single(stored.clone(), rows))
            .unwrap();
        let job = TemporalPartitionJob::new("tp", sliding_count_plan(), 100);
        let err = job.run(&dfs, &Cluster::new()).unwrap_err().to_string();
        let expected = EventEncoding::Point.dataset_schema(&payload());
        let want = format!(
            "input error: source `logs` bound with schema {stored}, plan expects {expected}"
        );
        assert!(err.ends_with(&want), "{err}");
        assert!(!dfs.contains("tp__out"), "nothing is published");
    }

    #[test]
    fn bad_span_width_rejected() {
        let dfs = Dfs::new();
        let job = TemporalPartitionJob::new("tp", sliding_count_plan(), 0);
        assert!(job.run(&dfs, &Cluster::new()).is_err());
    }
}
