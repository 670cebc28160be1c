//! Fragment → map-reduce stage conversion (paper §III-A step 4).
//!
//! [`build_stage`] is the one place a fragment becomes a stage, and a shared
//! multi-query DAG ([`crate::multi`]) compiles through it as a fragment with
//! one root per query. The map phase partitions every stage input by
//! `hash(fragment key) mod partitions` — the bucketing trick of §III-C.3
//! that instantiates one embedded DSMS per machine instead of one per key
//! value. The reduce phase is [`DsmsReducer`]: the stand-alone method `P`
//! from the paper, which splits its partition's shuffled batches into
//! lifetimes and payload columns, runs the *unmodified* DSMS on the fragment
//! plan (the generated method `P'`), and encodes each root, by value and in
//! canonical order, as its sink's batch ([`EventEncoding::encode_sink`]).

use crate::annotate::{Annotation, ExchangeKey};
use crate::bridge::EventEncoding;
use crate::error::{Result, TimrError};
use crate::fragment::{fragment, subplan_sources, Fragment, FragmentInput};
use crate::mapper::{DsmsMapper, MapperUnit};
use mapreduce::{MrError, Partitioner, Reducer, ReducerContext, Stage};
use relation::{ColumnBatch, Schema};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;
use temporal::exec::BatchBindings;
use temporal::plan::{LogicalPlan, NoPartial};
use temporal::EventBatch;

/// A compiled TiMR job: ordered stages plus output metadata.
#[derive(Debug, Clone)]
pub struct CompiledJob {
    /// Stages in execution order.
    pub stages: Vec<Stage>,
    /// DFS name of the final output dataset.
    pub output: String,
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

/// Compile `plan` + `annotation` into map-reduce stages.
///
/// * `job_name` prefixes intermediate dataset names.
/// * `machines` is the reduce-partition count for keyed fragments.
/// * `source_encodings` gives the lifetime encoding of each raw source
///   dataset (defaults to [`EventEncoding::Point`], the raw-log encoding).
/// * `push_down` splits each stage plan at its exchange and runs the
///   exchange-free prefix (plus combinable partial aggregations) map-side
///   ([`temporal::plan::push_down`]); off is the reduce-only baseline.
pub fn compile(
    plan: &LogicalPlan,
    annotation: &Annotation,
    job_name: &str,
    machines: usize,
    source_encodings: &BTreeMap<String, EventEncoding>,
    push_down: bool,
) -> Result<CompiledJob> {
    let fragments = fragment(plan, annotation)?;
    let mut job = CompiledJob {
        stages: Vec::with_capacity(fragments.len()),
        output: String::new(),
        pushed_ops: 0,
        pushed_partials: 0,
        partial_refusals: Vec::new(),
    };
    for frag in &fragments {
        let output = if frag.is_final {
            format!("{job_name}__out")
        } else {
            format!("{job_name}__f{}", frag.root)
        };
        let built = build_stage(
            frag,
            format!("{job_name}/f{}", frag.root),
            vec![output],
            job_name,
            machines,
            source_encodings,
            push_down,
        )?;
        if frag.is_final {
            job.output = built.stage.output.clone();
        }
        job.pushed_ops += built.pushed_ops;
        job.pushed_partials += built.pushed_partials;
        job.partial_refusals.extend(built.partial_refusals);
        job.stages.push(built.stage);
    }
    Ok(job)
}

/// One fragment built into a stage by [`build_stage`].
pub(crate) struct BuiltStage {
    pub(crate) stage: Stage,
    /// The plan the reducer runs: the push-down residual, fused.
    pub(crate) plan: LogicalPlan,
    pub(crate) pushed_ops: usize,
    pub(crate) pushed_partials: usize,
    pub(crate) partial_refusals: Vec<PartialRefusal>,
}

/// Build one stage from a fragment whose key has passed the key rule
/// ([`crate::fragment::check_key_compatibility`]): the stage is `name`,
/// root `i` of `frag.plan` publishes `outputs[i]`, and intermediate inputs
/// read `{job}__f{producer}`.
pub(crate) fn build_stage(
    frag: &Fragment,
    name: String,
    outputs: Vec<String>,
    job: &str,
    machines: usize,
    source_encodings: &BTreeMap<String, EventEncoding>,
    push_down: bool,
) -> Result<BuiltStage> {
    if machines == 0 {
        return Err(TimrError::Compile("machines must be positive".into()));
    }
    // The map phase hashes every input on the key columns, and a name binds
    // one input.
    let sources = frag.plan.sources();
    for (i, &(source, schema)) in sources.iter().enumerate() {
        if sources[..i]
            .iter()
            .any(|&(n, s)| n == source && s != schema)
        {
            return Err(TimrError::Compile(format!(
                "source `{source}` bound with two different schemas"
            )));
        }
        if let Some(c) = frag.key.columns().iter().find(|c| !schema.contains(c)) {
            return Err(TimrError::Compile(format!(
                "partition key column `{c}` not in input `{source}` schema {schema}"
            )));
        }
    }
    // A sub-plan `Source` reads the reducer's binding of that name, raw.
    let nested: Vec<&str> = (frag.plan.nodes().iter())
        .flat_map(|n| subplan_sources(&n.op))
        .collect();
    if let Some(s) = nested
        .iter()
        .find(|s| !sources.iter().any(|(n, _)| n == *s))
    {
        return Err(TimrError::Compile(format!(
            "a GroupApply sub-plan reads source `{s}`, which is not an input of stage `{name}`"
        )));
    }

    // Split the plan at the exchange. `Spread` routes on the whole row, so
    // rewriting rows map-side would change routing — push-down is only
    // attempted under content-addressed partitioners (KeyHash preserves its
    // key columns; Single has nothing to route), and never when a sub-plan
    // needs a source's raw binding.
    let (partitioner, partitions, partition_cols) = match &frag.key {
        ExchangeKey::Keys(cols) => (
            // Hash over the *dataset* row: framing columns precede payload
            // columns, so the key is addressed by name, which the reducer's
            // dataset schemas preserve.
            Partitioner::KeyHash {
                columns: cols.clone(),
            },
            machines,
            Some(Some(cols.as_slice())),
        ),
        ExchangeKey::Single => (Partitioner::Single, 1, Some(None)),
        ExchangeKey::Spread => (Partitioner::Spread, machines, None),
    };
    // `None`: not attempted. A split that moved nothing has no mappers and
    // the plan itself as its residual.
    let pd = match partition_cols {
        Some(cols) if push_down && nested.is_empty() => {
            Some(temporal::plan::push_down(&frag.plan, cols).map_err(TimrError::Temporal)?)
        }
        _ => None,
    };
    let reduce_plan = pd.as_ref().map_or(&frag.plan, |p| &p.residual);
    let schema_of = |plan: &LogicalPlan, source: &str| {
        (plan.sources().into_iter())
            .find(|&(n, _)| n == source)
            .map(|(_, s)| s.clone())
            .expect("every fragment input is a source leaf of the plan and of its residual")
    };

    let mut input_names = Vec::with_capacity(frag.inputs.len());
    let mut bindings = Vec::with_capacity(frag.inputs.len());
    let mut units: Vec<Option<MapperUnit>> = Vec::with_capacity(frag.inputs.len());
    for (source, input) in &frag.inputs {
        input_names.push(input.dataset_name(job));
        let raw = InputBinding {
            source_name: source.clone(),
            encoding: match input {
                FragmentInput::SourceDataset { name } => source_encodings
                    .get(name)
                    .copied()
                    .unwrap_or(EventEncoding::Point),
                FragmentInput::Intermediate { .. } => EventEncoding::Interval,
            },
            payload: schema_of(&frag.plan, source),
        };
        let mapper_plan =
            (pd.as_ref()).and_then(|p| p.mappers.iter().find(|m| &m.source == source));
        match mapper_plan {
            // The reducer sees this input post-mapper: interval-framed rows
            // carrying the residual source leaf's schema.
            Some(mp) => {
                bindings.push(InputBinding {
                    source_name: source.clone(),
                    encoding: EventEncoding::Interval,
                    payload: schema_of(reduce_plan, source),
                });
                units.push(Some(MapperUnit::new(mp, raw)?));
            }
            None => {
                bindings.push(raw);
                units.push(None);
            }
        }
    }

    let partial_refusals = pd.as_ref().map_or_else(Vec::new, |pd| {
        (pd.no_partial.iter())
            .map(|(source, reason)| PartialRefusal {
                stage: name.clone(),
                input: (frag.inputs.iter())
                    .find(|(n, _)| n == source)
                    .map(|(_, input)| input.dataset_name(job))
                    .expect("every source leaf of a fragment plan is one of its inputs"),
                reason: reason.clone(),
            })
            .collect()
    });
    // The stateless chains are fused at compile time, so the stage plan
    // carries its FusedFragment boundaries (visible in plan displays) and the
    // per-reduce executor's fuse-on-entry returns it untouched. Fusion runs
    // *after* the push-down split (and, for a shared DAG, after sharing and
    // factoring): the mapper and residual halves fuse independently, so a
    // fused fragment never straddles the exchange or hides a mergeable
    // prefix.
    let plan = temporal::plan::fuse_plan(reduce_plan)
        .map_err(TimrError::Temporal)?
        .into_owned();
    let reducer = DsmsReducer {
        plan: plan.clone(),
        inputs: bindings,
    };
    let mut stage = Stage::new(
        name,
        input_names,
        outputs[0].clone(),
        partitioner,
        partitions,
        Arc::new(reducer),
    )
    .map_err(TimrError::from)?
    .with_aux_outputs(outputs[1..].to_vec());
    if units.iter().any(Option::is_some) {
        stage = stage.with_mapper(Arc::new(DsmsMapper::new(units)));
    }
    Ok(BuiltStage {
        stage,
        plan,
        pushed_ops: pd.as_ref().map_or(0, |p| p.pushed_ops),
        pushed_partials: pd.as_ref().map_or(0, |p| p.partials),
        partial_refusals,
    })
}

/// Per-input decode instructions for a reducer, a mapper unit or the
/// temporal-partitioning span reducer.
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
/// batch as it arrived. A batch whose schema is not the one the plan's
/// source declares is the same named error the single-node DSMS gives.
pub(crate) fn bind_input(binding: &InputBinding, batch: ColumnBatch) -> Result<EventBatch> {
    (binding.encoding).decode_column_batch(batch, &binding.source_name, &binding.payload)
}

/// The paper's reducer method `P`: shuffled batches → events → embedded
/// DSMS → interval-framed batches, one sink per plan root. A TiMR fragment
/// plan has one root; the shared multi-query DAG ([`crate::multi`]) has one
/// per query, evaluated in a single pass so shared prefixes run once per
/// partition.
#[derive(Debug, Clone)]
pub struct DsmsReducer {
    plan: LogicalPlan,
    inputs: Vec<InputBinding>,
}

impl Reducer for DsmsReducer {
    fn output_schema(&self, _inputs: &[Schema]) -> mapreduce::Result<Schema> {
        let payload = self.plan.schema_of(self.plan.roots()[0]);
        Ok(EventEncoding::Interval.dataset_schema(payload))
    }

    fn sink_schemas(&self, _inputs: &[Schema]) -> mapreduce::Result<Vec<Schema>> {
        Ok(self
            .plan
            .roots()
            .iter()
            .map(|&r| EventEncoding::Interval.dataset_schema(self.plan.schema_of(r)))
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
        let mut sources: BatchBindings = FxHashMap::default();
        for (binding, input) in self.inputs.iter().zip(inputs) {
            let data = bind_input(binding, input).map_err(to_mr)?;
            sources.insert(binding.source_name.clone(), data);
        }
        // The executor owns the decoded partition: the first in-place
        // operator mutates it with zero survivor clones.
        let (roots, _) = temporal::exec::execute(&self.plan, sources)
            .map_err(|e| to_mr(TimrError::Temporal(e)))?;
        roots
            .into_iter()
            .map(|root| EventEncoding::Interval.encode_sink(root).map_err(to_mr))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::read_output;
    use crate::multi::MultiTimrJob;
    use crate::runner::TimrJob;
    use mapreduce::{BackendKind, Cluster, ClusterConfig, Dataset, Dfs};
    use relation::schema::{ColumnType, Field};
    use relation::{row, Row};
    use temporal::exec::{bindings, execute_single};
    use temporal::expr::{col, lit};
    use temporal::plan::{LifetimeOp, Operator, PlanNode};

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

    /// A shuffled batch binds to the same events as the rows it encodes.
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

    fn log_payload() -> Schema {
        Schema::new(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("UserId", ColumnType::Str),
            Field::new("KwAdId", ColumnType::Str),
        ])
    }

    /// Each user's clicks, windowed, joined inside the GroupApply sub-plan
    /// against every event of `inner` on the same ad — a sub-plan `Source`,
    /// which the builder cannot spell, so the arena is assembled by hand.
    /// Node 1 is the filter reading the log.
    fn subplan_join(inner: &str) -> LogicalPlan {
        let node = |op, inputs| PlanNode { op, inputs };
        let source = |name: &str| Operator::Source {
            name: name.into(),
            schema: log_payload(),
        };
        let sub = LogicalPlan::from_parts(
            vec![
                node(
                    Operator::GroupInput {
                        schema: log_payload(),
                    },
                    vec![],
                ),
                node(source(inner), vec![]),
                node(
                    Operator::TemporalJoin {
                        keys: vec![("KwAdId".into(), "KwAdId".into())],
                        residual: None,
                    },
                    vec![0, 1],
                ),
                node(
                    Operator::Project {
                        exprs: vec![("Other".into(), col("UserId.r"))],
                    },
                    vec![2],
                ),
            ],
            vec![3],
        )
        .unwrap();
        LogicalPlan::from_parts(
            vec![
                node(source("logs"), vec![]),
                node(
                    Operator::Filter {
                        predicate: col("StreamId").eq(lit(1)),
                    },
                    vec![0],
                ),
                node(
                    Operator::AlterLifetime {
                        op: LifetimeOp::Window(40),
                    },
                    vec![1],
                ),
                node(
                    Operator::GroupApply {
                        keys: vec!["UserId".into()],
                        subplan: Arc::new(sub),
                    },
                    vec![2],
                ),
            ],
            vec![3],
        )
        .unwrap()
    }

    fn log_rows() -> Vec<Row> {
        (0..200i64)
            .map(|i| {
                let (user, ad) = (format!("u{}", i % 7), format!("ad{}", i % 3));
                row![i * 3 % 400, (1 + i % 2) as i32, user, ad]
            })
            .collect()
    }

    /// Run `plan` under `key` as a TiMR job (the exchange on the filter's
    /// input edge) or as a one-query shared job: the published output, or
    /// the error.
    fn run_under(
        plan: &LogicalPlan,
        key: ExchangeKey,
        shared: bool,
    ) -> std::result::Result<temporal::EventStream, String> {
        let dfs = Dfs::new();
        let schema = EventEncoding::Point.dataset_schema(&log_payload());
        let parts = log_rows().chunks(30).map(<[Row]>::to_vec).collect();
        dfs.put("logs", Dataset::partitioned(schema, parts))
            .unwrap();
        let cluster = Cluster::new();
        let dataset = if shared {
            (MultiTimrJob::new("m", vec![plan.clone()]).with_key(key))
                .run(&dfs, &cluster)
                .map(|out| out.datasets[0].clone())
        } else {
            (TimrJob::new("t", plan.clone()))
                .with_annotation(Annotation::none().exchange(1, 0, key))
                .run(&dfs, &cluster)
                .map(|out| out.dataset)
        };
        dataset
            .and_then(|d| read_output(&dfs, &d))
            .map_err(|e| e.to_string())
    }

    /// A sub-plan `Source` is read whole by every group, so a keyed or
    /// spread partitioning would hand each partition's groups only its own
    /// slice of it: a compile error that names the source, on either front
    /// end. Under ⊤ the job runs — with nothing pushed map-side, since the
    /// sub-plan needs the log raw — and equals the single-node DSMS.
    #[test]
    fn a_subplan_source_compiles_only_on_a_single_partition() {
        let plan = subplan_join("logs");
        let log = EventEncoding::Point
            .decode_stream(log_rows(), &log_payload())
            .unwrap();
        let reference = execute_single(&plan, &bindings(vec![("logs", log)]))
            .unwrap()
            .normalize();
        assert!(!reference.is_empty());
        for shared in [false, true] {
            for key in [ExchangeKey::keys(&["UserId"]), ExchangeKey::Spread] {
                let err = run_under(&plan, key.clone(), shared).unwrap_err();
                assert_eq!(
                    err,
                    format!(
                        "annotation error: a GroupApply sub-plan reads source `logs` whole; only \
                         a single-partition (⊤) fragment can run it, not {key}"
                    )
                );
            }
            let got = run_under(&plan, ExchangeKey::Single, shared).unwrap();
            assert!(got.same_relation(&reference), "shared {shared}");
        }
        let compiled = TimrJob::new("t", plan.clone()).compile().unwrap();
        assert_eq!(compiled.pushed_ops, 0);
        assert!(compiled.stages[0].mapper.is_none());
    }

    /// The log stored as `(Time, StreamId, KwAdId, UserId)` under a plan
    /// whose source declares `(StreamId, UserId, KwAdId)`: bound by
    /// position, the ad column would read user ids. On either front end —
    /// push-down on and off, pool threads and two forked workers — the job
    /// fails with the error that names the source and both schemas, as the
    /// single-node DSMS does, and publishes nothing.
    #[test]
    fn a_source_stored_in_another_schema_is_a_named_error() {
        let stored = Schema::new(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("KwAdId", ColumnType::Str),
            Field::new("UserId", ColumnType::Str),
        ]);
        let rows: Vec<Row> = (0..90i64)
            .map(|i| {
                let (ad, user) = (format!("a{}", i % 3), format!("u{}", i % 4));
                row![i, (1 + i % 2) as i32, ad, user]
            })
            .collect();
        let q = temporal::plan::Query::new();
        let out = (q.source("logs", log_payload()))
            .filter(col("StreamId").eq(lit(1)))
            .group_apply(&["KwAdId"], |g| g.window(100).count("N"));
        let plan = q.build(vec![out]).unwrap();
        let log = EventEncoding::Point.decode_stream(&rows, &stored).unwrap();
        let single_node = execute_single(&plan, &bindings(vec![("logs", log)]));
        let single_node = single_node.unwrap_err().to_string();
        assert!(single_node.starts_with("input error: source `logs` bound with"));
        let stored = EventEncoding::Point.dataset_schema(&stored);
        let expected = EventEncoding::Point.dataset_schema(&log_payload());
        let want = format!(
            "input error: source `logs` bound with schema {stored}, plan expects {expected}"
        );
        let cases = [(false, true), (false, false), (true, true), (true, false)];
        for backend in [BackendKind::Threads, BackendKind::Processes { workers: 2 }] {
            let cluster = Cluster::with_config(ClusterConfig {
                backend,
                ..ClusterConfig::default()
            });
            for (shared, push_down) in cases {
                let dfs = Dfs::new();
                let parts = rows.chunks(30).map(<[Row]>::to_vec).collect();
                let dataset = Dataset::partitioned(stored.clone(), parts);
                dfs.put("logs", dataset).unwrap();
                let key = ExchangeKey::keys(&["KwAdId"]);
                let run = match shared {
                    true => (MultiTimrJob::new("m", vec![plan.clone()]).with_key(key))
                        .with_push_down(push_down)
                        .run(&dfs, &cluster)
                        .map(drop),
                    false => (TimrJob::new("t", plan.clone()))
                        .with_annotation(Annotation::none().exchange(1, 0, key))
                        .with_push_down(push_down)
                        .run(&dfs, &cluster)
                        .map(drop),
                };
                let err = run.unwrap_err().to_string();
                let case = format!("{backend:?} shared {shared} push-down {push_down}");
                assert!(err.ends_with(&want), "{case}: {err}");
                assert_eq!(dfs.list(), ["logs"], "{case}: nothing is published");
            }
        }
    }

    /// A sub-plan `Source` that no stage input binds would fail every
    /// reducer at run time; it is a compile error instead, on either front
    /// end and under any key.
    #[test]
    fn a_subplan_source_that_is_no_stage_input_fails_compilation() {
        let plan = subplan_join("ads");
        for shared in [false, true] {
            let err = run_under(&plan, ExchangeKey::Single, shared).unwrap_err();
            let stage = if shared { "m/shared" } else { "t/f3" };
            assert_eq!(
                err,
                format!(
                    "compile error: a GroupApply sub-plan reads source `ads`, which is not an \
                     input of stage `{stage}`"
                )
            );
            let keyed = run_under(&plan, ExchangeKey::keys(&["UserId"]), shared).unwrap_err();
            assert!(keyed.contains("sub-plan reads source `ads`"), "{keyed}");
        }
    }
}
