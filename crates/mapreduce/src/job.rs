//! Stages, partitioners, and reducers (the basic M-R model, paper §II-B).

use crate::error::{MrError, Result};
use relation::hash::bucket_of;
use relation::{ColumnBatch, Schema};
use rustc_hash::FxHasher;
use std::hash::Hasher;
use std::sync::Arc;

/// The map phase: how rows are assigned to reduce partitions.
#[derive(Debug, Clone, PartialEq)]
pub enum Partitioner {
    /// `hash(key columns) mod partitions` — the paper's hash-bucketing trick
    /// (§III-C.3) that keeps one reducer (and one embedded DSMS instance)
    /// per machine rather than per key value.
    KeyHash {
        /// Key column names.
        columns: Vec<String>,
    },
    /// Partition on the value of a computed bucket column (used by TiMR's
    /// temporal partitioning, where the "key" is a span index and rows can
    /// be replicated across spans upstream of the shuffle).
    BucketColumn {
        /// Column holding a non-negative bucket index.
        column: String,
    },
    /// Deterministic spread ignoring content (row-hash based), for
    /// stateless fragments with no key requirement.
    Spread,
    /// Everything to partition 0 (a single-node stage).
    Single,
}

impl Partitioner {
    /// Resolve column names against `schema` once, yielding an assigner
    /// usable in the map hot loop without per-row name lookups.
    pub fn compile(&self, schema: &Schema) -> Result<CompiledPartitioner> {
        Ok(match self {
            Partitioner::KeyHash { columns } => {
                let mut indices = Vec::with_capacity(columns.len());
                for c in columns {
                    indices.push(schema.index_of(c)?);
                }
                CompiledPartitioner::KeyHash { indices }
            }
            Partitioner::BucketColumn { column } => CompiledPartitioner::BucketColumn {
                column: column.clone(),
                index: schema.index_of(column)?,
            },
            Partitioner::Spread => CompiledPartitioner::Spread,
            Partitioner::Single => CompiledPartitioner::Single,
        })
    }
}

/// A [`Partitioner`] with its column references resolved to indices for a
/// specific input schema.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledPartitioner {
    /// Hash of the key cells at `indices`.
    KeyHash { indices: Vec<usize> },
    /// Value of the bucket cell at `index` (name kept for diagnostics).
    BucketColumn { column: String, index: usize },
    /// Whole-row hash.
    Spread,
    /// Everything to partition 0.
    Single,
}

impl CompiledPartitioner {
    /// Assign every row of `batch` to one of `partitions` buckets, off the
    /// columns: the hash a row's cells would give ([`key_hash`] over the
    /// key, [`stable_hash`] over the whole row) or its bucket cell. The
    /// first row that cannot be assigned is the error.
    ///
    /// [`key_hash`]: relation::hash::key_hash
    /// [`stable_hash`]: relation::hash::stable_hash
    pub fn assign_batch(&self, batch: &ColumnBatch, partitions: usize) -> Result<Vec<usize>> {
        let rows = 0..batch.len();
        Ok(match self {
            CompiledPartitioner::KeyHash { indices } => (batch.key_hashes(indices).into_iter())
                .map(|h| bucket_of(h, partitions))
                .collect(),
            CompiledPartitioner::BucketColumn { column, index } => {
                let cells = batch.column(*index);
                let bad =
                    |why: String| MrError::BadStage(format!("bucket column `{column}` {why}"));
                rows.map(|r| match cells.value(r).as_long() {
                    Some(v) if v >= 0 => Ok(v as usize % partitions),
                    Some(v) => Err(bad(format!("holds negative value {v}"))),
                    None => Err(bad("is not integral".to_string())),
                })
                .collect::<Result<_>>()?
            }
            // A row hashes as its value vector: the length, then each cell.
            CompiledPartitioner::Spread => rows
                .map(|r| {
                    let mut h = FxHasher::default();
                    h.write_usize(batch.columns().len());
                    batch.columns().iter().for_each(|c| c.hash_cell(r, &mut h));
                    bucket_of(h.finish(), partitions)
                })
                .collect(),
            CompiledPartitioner::Single => vec![0; batch.len()],
        })
    }
}

/// Context handed to a reducer invocation.
#[derive(Debug, Clone)]
pub struct ReducerContext {
    /// Stage name (for diagnostics).
    pub stage: String,
    /// This invocation's partition index.
    pub partition: usize,
    /// Total partition count of the stage.
    pub partitions: usize,
    /// Execution attempt (0 = first try; >0 after a contained panic,
    /// transient fault, or detected corruption forced a retry).
    pub attempt: usize,
}

impl ReducerContext {
    /// A context for driving a reducer by hand (tests, baselines): named
    /// stage/partition, first attempt.
    pub fn standalone(stage: impl Into<String>, partition: usize, partitions: usize) -> Self {
        ReducerContext {
            stage: stage.into(),
            partition,
            partitions,
            attempt: 0,
        }
    }

    /// Whether this invocation is a restart of a previously failed
    /// attempt. Reducers must not branch on this for anything that
    /// changes their output (purity contract below); it exists for
    /// logging and test assertions.
    pub fn is_retry(&self) -> bool {
        self.attempt > 0
    }
}

/// The reduce phase: user code invoked once per partition.
///
/// A stage boundary is column batches in, column batches out: a reducer
/// receives, for each stage input dataset, its partition as the shuffle
/// holds it — one [`ColumnBatch`] — and returns one batch per sink, which
/// the runtime seals as that sink's extent of the partition. It must be a
/// pure function of `(ctx.partition, inputs)` — the restart determinism
/// tests re-invoke reducers and compare bytes.
///
/// Inputs are handed over **by value**: the embedded DSMS moves the
/// columns into its own storage with no copy, and a hand-written reducer
/// (the Fig 14 baseline, `bt::baselines::custom`) reads typed slices and
/// string codes in place and builds its output columns directly; row
/// conversions ([`ColumnBatch::to_rows`], [`ColumnBatch::from_rows`]) stay
/// available for tests and small tools. The runtime keeps no spare — a retry
/// decodes the partition's sealed chunks again, so only failed attempts pay
/// for a second copy.
///
/// A reducer that panics does not tear down the job: the cluster contains
/// the panic (`catch_unwind`), surfaces it as a retryable task error with
/// the payload preserved, and re-invokes the reducer up to the configured
/// retry budget. A reducer that *always* panics therefore fails the job
/// deterministically with an exhaustion error naming its partition.
pub trait Reducer: Send + Sync {
    /// Schema of the primary sink, given the input schemas (one per stage
    /// input).
    fn output_schema(&self, inputs: &[Schema]) -> Result<Schema>;

    /// Output schema per sink, given the input schemas. Almost all reducers
    /// have one sink and the default wraps [`Reducer::output_schema`]; a
    /// multi-sink reducer (the shared multi-query DSMS) routes each query's
    /// rows to its own sink and must agree with the stage's declared
    /// `1 + aux_outputs.len()`.
    fn sink_schemas(&self, inputs: &[Schema]) -> Result<Vec<Schema>> {
        Ok(vec![self.output_schema(inputs)?])
    }

    /// Process one partition: per stage input, the [`ColumnBatch`] its
    /// extent chunks decode and concatenate into, in deterministic shuffle
    /// order (empty, with the input's mapped schema, when no row reached
    /// this partition). Returns one batch per sink, in
    /// [`Reducer::sink_schemas`] order and of that sink's schema — one that
    /// is not fails the job with `MrError::IllTyped` naming the column; the
    /// purity contract above applies to every sink's bytes.
    fn reduce(&self, ctx: &ReducerContext, inputs: Vec<ColumnBatch>) -> Result<Vec<ColumnBatch>>;
}

/// Shared reducer handle.
pub type ReducerRef = Arc<dyn Reducer>;

/// Context handed to a mapper invocation (one per input extent).
#[derive(Debug, Clone)]
pub struct MapperContext {
    /// Stage name (for diagnostics).
    pub stage: String,
    /// Stage input index the extent belongs to.
    pub input: usize,
    /// Extent index within the input dataset.
    pub extent: usize,
    /// Execution attempt (0 = first try; >0 after a contained fault
    /// forced the map task to re-run). Mappers must not branch on this
    /// for anything that changes their output.
    pub attempt: usize,
}

impl MapperContext {
    /// A context for driving a mapper by hand (tests, benches).
    pub fn standalone(stage: impl Into<String>, input: usize, extent: usize) -> Self {
        MapperContext {
            stage: stage.into(),
            input,
            extent,
            attempt: 0,
        }
    }
}

/// The map phase's compute hook: user code run once per `(input, extent)`
/// pair, *before* partitioning, inside the same chaos-containment/retry/
/// integrity envelope as reducers.
///
/// A mapper receives one input extent, decoded into a [`ColumnBatch`], and
/// returns the batch to shuffle in its place. It must be a pure function
/// of `(ctx.input, batch)` — the same byte-determinism contract as
/// [`Reducer`]: shuffle rebuilds after detected corruption re-invoke the
/// mapper and must reproduce identical bytes, and the restart-determinism
/// tests compare them. In particular output may not depend on
/// `ctx.extent`, `ctx.attempt`, wall time, or thread scheduling.
///
/// The output is partitioned and sealed into framed binary extents by the
/// shuffle exactly like an unmapped extent, so everything downstream
/// (spill, integrity, rebuild) applies unchanged. It must have the schema
/// [`Mapper::output_schema`] gives: one that does not fails the job with
/// `MrError::IllTyped` naming the column.
pub trait Mapper: Send + Sync {
    /// Output schema for stage input `input`, given its dataset schema.
    /// The shuffle seals chunks — and the partitioner resolves key
    /// columns — against this schema.
    fn output_schema(&self, input: usize, schema: &Schema) -> Result<Schema>;

    /// Transform one extent of stage input `ctx.input`. An input this
    /// mapper does not cover is returned as it came.
    fn map(&self, ctx: &MapperContext, batch: ColumnBatch) -> Result<ColumnBatch>;
}

/// Shared mapper handle.
pub type MapperRef = Arc<dyn Mapper>;

/// One map-reduce stage.
#[derive(Clone)]
pub struct Stage {
    /// Stage name (unique within a job).
    pub name: String,
    /// Input dataset names.
    pub inputs: Vec<String>,
    /// Output dataset name.
    pub output: String,
    /// Extra output dataset names for sinks `1..` of a multi-sink reducer
    /// (empty for ordinary single-sink stages). Sink `i` of
    /// [`Reducer::reduce`] publishes to
    /// `[output, aux_outputs...][i]`.
    pub aux_outputs: Vec<String>,
    /// Map-phase partitioner (applied to every input).
    pub partitioner: Partitioner,
    /// Number of reduce partitions.
    pub partitions: usize,
    /// Reduce-phase user code.
    pub reducer: ReducerRef,
    /// Optional map-phase compute (plan push-down): run per input extent
    /// before partitioning. `None` leaves the map phase partition-only.
    pub mapper: Option<MapperRef>,
}

impl std::fmt::Debug for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stage")
            .field("name", &self.name)
            .field("inputs", &self.inputs)
            .field("output", &self.output)
            .field("aux_outputs", &self.aux_outputs)
            .field("partitioner", &self.partitioner)
            .field("partitions", &self.partitions)
            .field("has_mapper", &self.mapper.is_some())
            .finish_non_exhaustive()
    }
}

impl Stage {
    /// Build a stage.
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<String>,
        output: impl Into<String>,
        partitioner: Partitioner,
        partitions: usize,
        reducer: ReducerRef,
    ) -> Result<Self> {
        let name = name.into();
        if inputs.is_empty() {
            return Err(MrError::BadStage(format!("stage `{name}` has no inputs")));
        }
        if partitions == 0 {
            return Err(MrError::BadStage(format!(
                "stage `{name}` has zero partitions"
            )));
        }
        Ok(Stage {
            name,
            inputs,
            output: output.into(),
            aux_outputs: Vec::new(),
            partitioner,
            partitions,
            reducer,
            mapper: None,
        })
    }

    /// Declare extra sinks for a multi-sink reducer (sinks `1..`; the
    /// primary `output` is sink 0).
    pub fn with_aux_outputs(mut self, aux_outputs: Vec<String>) -> Self {
        self.aux_outputs = aux_outputs;
        self
    }

    /// Attach a map-phase compute hook (plan push-down).
    pub fn with_mapper(mut self, mapper: MapperRef) -> Self {
        self.mapper = Some(mapper);
        self
    }

    /// All output dataset names: the primary followed by the aux sinks.
    pub fn sink_names(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.output.as_str()).chain(self.aux_outputs.iter().map(String::as_str))
    }
}

/// A reducer that passes rows through unchanged — the identity stage, useful
/// for repartitioning datasets and in tests. Several inputs (of one schema)
/// are concatenated in input order.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityReducer;

impl Reducer for IdentityReducer {
    fn output_schema(&self, inputs: &[Schema]) -> Result<Schema> {
        inputs
            .first()
            .cloned()
            .ok_or_else(|| MrError::BadStage("identity reducer with no input".into()))
    }

    fn reduce(&self, _ctx: &ReducerContext, inputs: Vec<ColumnBatch>) -> Result<Vec<ColumnBatch>> {
        let mut inputs = inputs.into_iter();
        let mut out = (inputs.next())
            .ok_or_else(|| MrError::BadStage("identity reducer with no input".into()))?;
        for batch in inputs {
            out.append(batch)?;
        }
        Ok(vec![out])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relation::hash::{key_hash, stable_hash};
    use relation::schema::{ColumnType, Field};
    use relation::{row, Row, Value};

    fn schema() -> Schema {
        Schema::timestamped(vec![
            Field::new("UserId", ColumnType::Str),
            Field::new("Bucket", ColumnType::Long),
        ])
    }

    /// The row-at-a-time definition [`CompiledPartitioner::assign_batch`]
    /// reproduces.
    fn assign_row(p: &CompiledPartitioner, row: &Row, partitions: usize) -> Result<usize> {
        Ok(match p {
            CompiledPartitioner::KeyHash { indices } => {
                bucket_of(key_hash(row, indices), partitions)
            }
            CompiledPartitioner::BucketColumn { column, index } => {
                let v = row.get(*index).as_long().ok_or_else(|| {
                    MrError::BadStage(format!("bucket column `{column}` is not integral"))
                })?;
                if v < 0 {
                    return Err(MrError::BadStage(format!(
                        "bucket column `{column}` holds negative value {v}"
                    )));
                }
                (v as usize) % partitions
            }
            CompiledPartitioner::Spread => bucket_of(stable_hash(row), partitions),
            CompiledPartitioner::Single => 0,
        })
    }

    /// `p` over `rows` of `schema`, one bucket per row.
    fn assign(p: &Partitioner, schema: &Schema, rows: &[Row], n: usize) -> Result<Vec<usize>> {
        let batch = ColumnBatch::from_rows(schema, rows).unwrap();
        p.compile(schema)?.assign_batch(&batch, n)
    }

    #[test]
    fn key_hash_groups_same_keys() {
        let p = Partitioner::KeyHash {
            columns: vec!["UserId".into()],
        };
        let rows = [row![1i64, "u1", 0i64], row![99i64, "u1", 5i64]];
        let got = assign(&p, &schema(), &rows, 16).unwrap();
        assert_eq!(got[0], got[1]);
    }

    #[test]
    fn bucket_column_uses_value_mod_partitions() {
        let p = Partitioner::BucketColumn {
            column: "Bucket".into(),
        };
        let s = schema();
        let rows = [row![1i64, "u", 5i64], row![1i64, "u", 3i64]];
        assert_eq!(assign(&p, &s, &rows, 4).unwrap(), [1, 3]);
        assert!(assign(&p, &s, &[row![1i64, "u", -1i64]], 4).is_err());
    }

    #[test]
    fn compile_rejects_unknown_columns() {
        let p = Partitioner::KeyHash {
            columns: vec!["Nope".into()],
        };
        assert!(p.compile(&schema()).is_err());
    }

    #[test]
    fn single_sends_everything_to_zero() {
        let rows = [row![1i64, "u", 0i64], row![2i64, "v", 9i64]];
        assert_eq!(
            assign(&Partitioner::Single, &schema(), &rows, 8).unwrap(),
            [0, 0]
        );
    }

    /// A column of every type, each with nulls.
    fn wide_schema() -> Schema {
        Schema::new(vec![
            Field::new("B", ColumnType::Bool),
            Field::new("I", ColumnType::Int),
            Field::new("L", ColumnType::Long),
            Field::new("D", ColumnType::Double),
            Field::new("S", ColumnType::Str),
        ])
    }

    fn arb_wide_row() -> impl Strategy<Value = Row> {
        (
            (any::<bool>(), -3i32..40, -3i64..40),
            (any::<f64>(), 0u8..12, 0u8..64),
        )
            .prop_map(|((b, i, l), (d, s, nulls))| {
                let mut values = vec![
                    Value::Bool(b),
                    Value::Int(i),
                    Value::Long(l),
                    Value::Double(d),
                    Value::str(format!("s{s}")),
                ];
                for (k, v) in values.iter_mut().enumerate() {
                    if nulls < 32 && nulls & (1 << k) != 0 {
                        *v = Value::Null;
                    }
                }
                Row::new(values)
            })
    }

    /// KeyHash over one to three columns, a bucket column of any type,
    /// Spread or Single.
    fn arb_partitioner() -> impl Strategy<Value = Partitioner> {
        let names = ["B", "I", "L", "D", "S"];
        (0u8..4, 1usize..4, 0usize..5, 0usize..5, 0usize..5).prop_map(move |(kind, k, a, b, c)| {
            match kind {
                0 => Partitioner::KeyHash {
                    columns: [a, b, c][..k]
                        .iter()
                        .map(|&i| names[i].to_string())
                        .collect(),
                },
                1 => Partitioner::BucketColumn {
                    column: names[a].to_string(),
                },
                2 => Partitioner::Spread,
                _ => Partitioner::Single,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The columnar partitioner is the row partitioner: the same bucket
        /// for every row, or the error of the first row that has none.
        #[test]
        fn batch_assignment_is_row_assignment(
            rows in prop::collection::vec(arb_wide_row(), 0..60),
            p in arb_partitioner(),
            n in 1usize..9,
        ) {
            let compiled = p.compile(&wide_schema()).unwrap();
            let by_rows: Result<Vec<usize>> =
                rows.iter().map(|r| assign_row(&compiled, r, n)).collect();
            prop_assert_eq!(assign(&p, &wide_schema(), &rows, n), by_rows, "{:?}", p);
        }
    }

    #[test]
    fn stage_validation() {
        let r: ReducerRef = Arc::new(IdentityReducer);
        assert!(Stage::new("s", vec![], "out", Partitioner::Single, 1, r.clone()).is_err());
        assert!(Stage::new("s", vec!["in".into()], "out", Partitioner::Single, 0, r).is_err());
    }

    #[test]
    fn identity_reducer_concatenates_inputs() {
        let ctx = ReducerContext::standalone("s", 0, 1);
        let schema = Schema::new(vec![Field::new("N", ColumnType::Long)]);
        let batch = |rows: &[Row]| ColumnBatch::from_rows(&schema, rows).unwrap();
        let out = IdentityReducer
            .reduce(&ctx, vec![batch(&[row![1i64]]), batch(&[row![2i64]])])
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to_rows(), vec![row![1i64], row![2i64]]);
    }
}
