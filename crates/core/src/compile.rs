//! Fragment → map-reduce stage conversion (paper §III-A step 4).
//!
//! Each fragment becomes one stage. The map phase partitions every stage
//! input by `hash(fragment key) mod partitions` — the bucketing trick of
//! §III-C.3 that instantiates one embedded DSMS per machine instead of one
//! per key value. The reduce phase is [`DsmsReducer`]: the stand-alone
//! method `P` from the paper, which splits its partition's shuffled
//! batches into lifetimes and payload columns, runs the *unmodified* DSMS on
//! the fragment plan (the generated method `P'`), and encodes each root, by
//! value and in canonical order, as its sink's batch
//! ([`EventEncoding::encode_sink`]).

use crate::annotate::Annotation;
use crate::bridge::EventEncoding;
use crate::error::{Result, TimrError};
use crate::fragment::{fragment, Fragment, FragmentInput, FragmentKey};
use crate::mapper::{DsmsMapper, MapperUnit};
use mapreduce::{MrError, Partitioner, Reducer, ReducerContext, Stage};
use relation::{ColumnBatch, Schema};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;
use temporal::exec::{DataBindings, StreamData};
use temporal::plan::{LogicalPlan, NoPartial, PushDown};

/// A compiled TiMR job: ordered stages plus output metadata.
#[derive(Debug, Clone)]
pub struct CompiledJob {
    /// Stages in execution order.
    pub stages: Vec<Stage>,
    /// DFS name of the final output dataset.
    pub output: String,
    /// Payload schema of the final output.
    pub output_payload: Schema,
    /// Lifetime encoding of the final output dataset.
    pub output_encoding: EventEncoding,
    /// Stateless operators moved map-side by plan push-down, all stages.
    pub pushed_ops: usize,
    /// Partial-aggregation steps moved map-side, all stages.
    pub pushed_partials: usize,
    /// Per stage input that push-down looked at and gave no partial
    /// aggregate: why not (all stages, in stage order).
    pub partial_refusals: Vec<PartialRefusal>,
}

/// Why one stage input's map side carries no partial aggregation — the
/// push-down's own answer ([`temporal::plan::NoPartial`]), so a job that
/// shuffles raw rows says which rule kept them raw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialRefusal {
    /// Stage the input belongs to.
    pub stage: String,
    /// Stage-input dataset name.
    pub input: String,
    /// The rule that declined.
    pub reason: NoPartial,
}

impl fmt::Display for PartialRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} <- {}: no partial aggregate ({})",
            self.stage, self.input, self.reason
        )
    }
}

/// Render the map-side half of a compiled job: the push-down counts and one
/// line per input that got no partial aggregate, with the reason.
pub(crate) fn map_side_report(
    pushed_ops: usize,
    pushed_partials: usize,
    refusals: &[PartialRefusal],
) -> String {
    let mut out = format!("map side: pushed_ops={pushed_ops} pushed_partials={pushed_partials}\n");
    for refusal in refusals {
        let _ = writeln!(out, "  {refusal}");
    }
    out
}

/// The refusal report of one stage: `push_down`'s per-source answers under
/// the stage's dataset names (`dataset_of` maps a source leaf to its input).
pub(crate) fn partial_refusals(
    stage: &str,
    pd: &PushDown,
    dataset_of: impl Fn(&str) -> String,
) -> Vec<PartialRefusal> {
    pd.no_partial
        .iter()
        .map(|(source, reason)| PartialRefusal {
            stage: stage.to_string(),
            input: dataset_of(source),
            reason: reason.clone(),
        })
        .collect()
}

impl fmt::Display for CompiledJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for stage in &self.stages {
            writeln!(
                f,
                "stage {} <- [{}] -> {}",
                stage.name,
                stage.inputs.join(", "),
                stage.output
            )?;
        }
        f.write_str(&map_side_report(
            self.pushed_ops,
            self.pushed_partials,
            &self.partial_refusals,
        ))
    }
}

/// Compile-time switches shared by [`compile_with_options`] and the
/// multi-query driver.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Split each stage plan at its first exchange and run the
    /// exchange-free prefix (plus combinable partial aggregations)
    /// map-side ([`temporal::plan::push_down`]). On by default — the
    /// split is validated and byte-identity-preserving, so turning it
    /// off is only interesting for benchmarking the shuffle savings.
    pub push_down: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { push_down: true }
    }
}

/// Compile `plan` + `annotation` into map-reduce stages.
///
/// * `job_name` prefixes intermediate dataset names.
/// * `machines` is the reduce-partition count for keyed fragments.
/// * `source_encodings` gives the lifetime encoding of each raw source
///   dataset (defaults to [`EventEncoding::Point`], the raw-log encoding).
pub fn compile(
    plan: &LogicalPlan,
    annotation: &Annotation,
    job_name: &str,
    machines: usize,
    source_encodings: &BTreeMap<String, EventEncoding>,
) -> Result<CompiledJob> {
    compile_with_options(
        plan,
        annotation,
        job_name,
        machines,
        source_encodings,
        CompileOptions::default(),
    )
}

/// [`compile`] with explicit [`CompileOptions`].
pub fn compile_with_options(
    plan: &LogicalPlan,
    annotation: &Annotation,
    job_name: &str,
    machines: usize,
    source_encodings: &BTreeMap<String, EventEncoding>,
    options: CompileOptions,
) -> Result<CompiledJob> {
    if machines == 0 {
        return Err(TimrError::Compile("machines must be positive".into()));
    }
    let fragments = fragment(plan, annotation)?;
    let mut stages = Vec::with_capacity(fragments.len());
    let mut output = String::new();
    let mut output_payload = plan.schema_of(plan.roots()[0]).clone();
    let mut pushed_ops = 0usize;
    let mut pushed_partials = 0usize;
    let mut partial_refusals = Vec::new();

    for frag in &fragments {
        let (stage, pd) = compile_fragment(frag, job_name, machines, source_encodings, options)?;
        if let Some(pd) = pd {
            pushed_ops += pd.pushed_ops;
            pushed_partials += pd.partials;
            partial_refusals.extend(self::partial_refusals(&stage.name, &pd, |source| {
                let (_, input) = frag
                    .inputs
                    .iter()
                    .find(|(name, _)| name == source)
                    .expect("every source leaf of a fragment plan is one of its inputs");
                input.dataset_name(job_name)
            }));
        }
        if frag.is_final {
            output = stage.output.clone();
            output_payload = frag.plan.schema_of(frag.plan.roots()[0]).clone();
        }
        stages.push(stage);
    }
    Ok(CompiledJob {
        stages,
        output,
        output_payload,
        output_encoding: EventEncoding::Interval,
        pushed_ops,
        pushed_partials,
        partial_refusals,
    })
}

fn compile_fragment(
    frag: &Fragment,
    job_name: &str,
    machines: usize,
    source_encodings: &BTreeMap<String, EventEncoding>,
    options: CompileOptions,
) -> Result<(Stage, Option<PushDown>)> {
    let (partitioner, partitions) = match &frag.key {
        FragmentKey::Keys(cols) => (
            // Hash over the *dataset* row: framing columns precede payload
            // columns, so we address the key by name, which the reducer's
            // dataset schemas preserve.
            Partitioner::KeyHash {
                columns: cols.clone(),
            },
            machines,
        ),
        FragmentKey::Single => (Partitioner::Single, 1),
        FragmentKey::Spread => (Partitioner::Spread, machines),
    };

    // Split the fragment plan at the exchange. `Spread` routes on the
    // whole row, so rewriting rows map-side would change routing —
    // push-down is only attempted under content-addressed partitioners
    // (KeyHash preserves its key columns; Single has nothing to route).
    let partition_cols = match &frag.key {
        FragmentKey::Keys(cols) => Some(Some(cols.as_slice())),
        FragmentKey::Single => Some(None),
        FragmentKey::Spread => None,
    };
    // `None`: not attempted. A split that moved nothing has no mappers and
    // the plan itself as its residual.
    let pd: Option<PushDown> = match partition_cols {
        Some(cols) if options.push_down => {
            Some(temporal::plan::push_down(&frag.plan, cols).map_err(TimrError::Temporal)?)
        }
        _ => None,
    };
    let reduce_plan = pd.as_ref().map_or(&frag.plan, |p| &p.residual);

    let mut input_names = Vec::with_capacity(frag.inputs.len());
    let mut bindings = Vec::with_capacity(frag.inputs.len());
    let mut units: Vec<Option<MapperUnit>> = Vec::with_capacity(frag.inputs.len());
    for (source_name, input) in &frag.inputs {
        let dataset = input.dataset_name(job_name);
        let raw_encoding = match input {
            FragmentInput::SourceDataset { name } => source_encodings
                .get(name)
                .copied()
                .unwrap_or(EventEncoding::Point),
            FragmentInput::Intermediate { .. } => EventEncoding::Interval,
        };
        let raw_payload = frag
            .plan
            .sources()
            .iter()
            .find(|(n, _)| n == source_name)
            .map(|(_, s)| (*s).clone())
            .expect("fragment input has a source leaf");
        let mapper_plan = pd
            .as_ref()
            .and_then(|p| p.mappers.iter().find(|m| &m.source == source_name));
        input_names.push(dataset);
        match mapper_plan {
            Some(mp) => {
                // The reducer sees this input post-mapper: interval-framed
                // rows carrying the residual source leaf's schema.
                let payload = reduce_plan
                    .sources()
                    .iter()
                    .find(|(n, _)| n == source_name)
                    .map(|(_, s)| (*s).clone())
                    .expect("residual keeps the pushed source leaf");
                units.push(Some(MapperUnit::new(
                    mp,
                    InputBinding {
                        source_name: source_name.clone(),
                        encoding: raw_encoding,
                        payload: raw_payload,
                    },
                )?));
                bindings.push(InputBinding {
                    source_name: source_name.clone(),
                    encoding: EventEncoding::Interval,
                    payload,
                });
            }
            None => {
                units.push(None);
                bindings.push(InputBinding {
                    source_name: source_name.clone(),
                    encoding: raw_encoding,
                    payload: raw_payload,
                });
            }
        }
    }

    let output_dataset = if frag.is_final {
        format!("{job_name}__out")
    } else {
        format!("{job_name}__f{}", frag.root)
    };

    // Fragment annotation: the stateless chains are collapsed at compile
    // time, so the stage plan carries its FusedFragment boundaries (visible
    // in plan displays) and the per-reduce executor's fuse-on-entry returns
    // the plan untouched. Fusion runs *after* the push-down split: the
    // mapper and residual halves fuse independently, so a fused fragment
    // never straddles the exchange.
    let reducer = DsmsReducer {
        plan: temporal::plan::fuse_plan(reduce_plan)
            .map_err(TimrError::Temporal)?
            .into_owned(),
        inputs: bindings,
        output_encoding: EventEncoding::Interval,
    };
    let mut stage = Stage::new(
        format!("{job_name}/f{}", frag.root),
        input_names,
        output_dataset,
        partitioner,
        partitions,
        Arc::new(reducer),
    )
    .map_err(TimrError::from)?;
    if units.iter().any(Option::is_some) {
        stage = stage.with_mapper(Arc::new(DsmsMapper::new(units)));
    }
    Ok((stage, pd))
}

/// Per-input decode instructions for a reducer or a mapper unit. Shared with
/// the multi-query driver ([`crate::multi`]), whose reducer decodes sources
/// the same way but fans results out to one sink per query.
#[derive(Debug, Clone)]
pub(crate) struct InputBinding {
    /// Source name inside the fragment plan.
    pub(crate) source_name: String,
    /// Lifetime encoding of the dataset.
    pub(crate) encoding: EventEncoding,
    /// Payload schema (dataset schema minus framing columns).
    pub(crate) payload: Schema,
}

/// Bind one decoded extent or shuffled input, taken by value — the one bind
/// mappers and reducers share. The framing columns move out of the batch as
/// the lifetime vectors ([`EventEncoding::decode_column_batch`]) — nothing
/// is copied, no dataset rows are materialized and the executor runs on the
/// batch as it arrived. Whatever that path refuses falls back to the row
/// decode, which owns the errors (and tolerates a dataset whose cell types
/// differ from the plan's source schema).
pub(crate) fn bind_input(binding: &InputBinding, batch: ColumnBatch) -> Result<StreamData> {
    match binding
        .encoding
        .decode_column_batch(batch, &binding.payload)
    {
        Ok(events) => Ok(StreamData::Batch(events)),
        Err(batch) => Ok(StreamData::Rows(
            (binding.encoding).decode_stream(batch.to_rows(), &binding.payload)?,
        )),
    }
}

/// The paper's reducer method `P`: shuffled batches → events → embedded
/// DSMS → batches, one sink per plan root. A fragment plan has one root; the
/// shared multi-query DAG ([`crate::multi`]) has one per query, evaluated
/// in a single pass so shared prefixes run once per partition.
#[derive(Debug, Clone)]
pub struct DsmsReducer {
    pub(crate) plan: LogicalPlan,
    pub(crate) inputs: Vec<InputBinding>,
    pub(crate) output_encoding: EventEncoding,
}

impl Reducer for DsmsReducer {
    fn output_schema(&self, _inputs: &[Schema]) -> mapreduce::Result<Schema> {
        let payload = self.plan.schema_of(self.plan.roots()[0]);
        Ok(self.output_encoding.dataset_schema(payload))
    }

    fn sink_schemas(&self, _inputs: &[Schema]) -> mapreduce::Result<Vec<Schema>> {
        Ok(self
            .plan
            .roots()
            .iter()
            .map(|&r| self.output_encoding.dataset_schema(self.plan.schema_of(r)))
            .collect())
    }

    fn reduce(
        &self,
        ctx: &ReducerContext,
        inputs: Vec<ColumnBatch>,
    ) -> mapreduce::Result<Vec<ColumnBatch>> {
        let to_mr = |e: TimrError| MrError::Reducer {
            stage: ctx.stage.clone(),
            partition: ctx.partition,
            message: e.to_string(),
        };
        let mut sources: DataBindings = FxHashMap::default();
        for (binding, input) in self.inputs.iter().zip(inputs) {
            let data = bind_input(binding, input).map_err(to_mr)?;
            sources.insert(binding.source_name.clone(), data);
        }
        // The executor owns the decoded partition: the first in-place
        // operator mutates it with zero survivor clones. The embedded DSMS
        // fans GroupApply groups out on the cluster's per-reducer pool (the
        // `dsms_threads` knob); the merge is sorted-key ordered, so output
        // stays byte-identical at any width.
        let (roots, _) = temporal::exec::execute_data(&self.plan, sources, &ctx.dsms_pool)
            .map_err(|e| to_mr(TimrError::Temporal(e)))?;
        roots
            .into_iter()
            .map(|root| self.output_encoding.encode_sink(root).map_err(to_mr))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::schema::{ColumnType, Field};
    use relation::{row, Row};

    fn binding() -> InputBinding {
        InputBinding {
            source_name: "s".into(),
            encoding: EventEncoding::Interval,
            payload: Schema::new(vec![
                Field::new("UserId", ColumnType::Str),
                Field::new("N", ColumnType::Long),
            ]),
        }
    }

    fn shuffled(rows: &[Row]) -> ColumnBatch {
        let b = binding();
        let schema = b.encoding.dataset_schema(&b.payload);
        ColumnBatch::from_rows(&schema, rows).unwrap()
    }

    /// A shuffled batch binds to the same events as the rows it encodes,
    /// and stays columnar — the layout the data arrived in.
    #[test]
    fn shuffled_batch_binds_like_its_rows() {
        let rows: Vec<Row> = (0..30i64)
            .map(|i| match i % 5 {
                0 => Row::new(vec![
                    relation::Value::Long(i),
                    relation::Value::Long(i + 3),
                    relation::Value::Null,
                    relation::Value::Null,
                ]),
                _ => row![i, i + 3, format!("u{}", i % 4), i * 10],
            })
            .collect();
        let via_batch = bind_input(&binding(), shuffled(&rows)).unwrap();
        assert!(matches!(via_batch, StreamData::Batch(_)));
        let reference = binding()
            .encoding
            .decode_stream(&rows, &binding().payload)
            .unwrap();
        assert_eq!(via_batch.into_stream(), reference);
    }

    /// What the copy-free path refuses fails exactly as the row path does.
    #[test]
    fn bad_framing_keeps_the_row_paths_error() {
        let empty_lifetime = vec![row![1i64, 4i64, "u", 0i64], row![5i64, 5i64, "u", 0i64]];
        let via_batch = bind_input(&binding(), shuffled(&empty_lifetime));
        let row_error = binding()
            .encoding
            .decode_stream(&empty_lifetime, &binding().payload)
            .unwrap_err();
        assert_eq!(via_batch.unwrap_err().to_string(), row_error.to_string());
    }
}
