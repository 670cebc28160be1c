//! Stages, partitioners, and reducers (the basic M-R model, paper §II-B).

use crate::error::{MrError, Result};
use relation::hash::{bucket_of, key_hash, stable_hash};
use relation::{ColumnBatch, Row, Schema};
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

    /// Assign `row` (with `schema`) to one of `partitions` buckets.
    ///
    /// Convenience for one-off assignments; bulk callers should
    /// [`Partitioner::compile`] once and assign through that.
    pub fn assign(&self, schema: &Schema, row: &Row, partitions: usize) -> Result<usize> {
        self.compile(schema)?.assign(row, partitions)
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
    /// Assign `row` to one of `partitions` buckets.
    pub fn assign(&self, row: &Row, partitions: usize) -> Result<usize> {
        Ok(match self {
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
    /// Worker pool for intra-reducer parallelism (the cluster's
    /// `dsms_threads` knob): the embedded DSMS fans GroupApply groups out
    /// on it. All pool results merge in deterministic task order, so using
    /// it never violates the reducer purity contract below.
    pub dsms_pool: Arc<pool::WorkerPool>,
}

impl ReducerContext {
    /// A context for driving a reducer by hand (tests, baselines): named
    /// stage/partition, first attempt, sequential DSMS pool.
    pub fn standalone(stage: impl Into<String>, partition: usize, partitions: usize) -> Self {
        ReducerContext {
            stage: stage.into(),
            partition,
            partitions,
            attempt: 0,
            dsms_pool: Arc::new(pool::WorkerPool::sequential()),
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
/// A reducer receives, for each stage input dataset, its partition as the
/// shuffle holds it — one [`ColumnBatch`] — and returns, for each sink, rows
/// as the DFS holds them. It must be a pure function of
/// `(ctx.partition, inputs)` — the restart determinism tests re-invoke
/// reducers and compare bytes.
///
/// Inputs are handed over **by value**: a columnar reducer (the embedded
/// DSMS) moves the columns into its own storage with no copy, and a
/// row-oriented one calls [`ColumnBatch::to_rows`] itself. The runtime
/// keeps no spare — a retry decodes the partition's sealed chunks again,
/// so only failed attempts pay for a second copy.
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
    /// this partition). Returns one row vector per sink, in
    /// [`Reducer::sink_schemas`] order; the purity contract above applies to
    /// every sink's bytes.
    fn reduce(&self, ctx: &ReducerContext, inputs: Vec<ColumnBatch>) -> Result<Vec<Vec<Row>>>;
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
    /// Worker pool for intra-mapper parallelism (same deterministic
    /// contract as [`ReducerContext::dsms_pool`]).
    pub dsms_pool: Arc<pool::WorkerPool>,
}

impl MapperContext {
    /// A context for driving a mapper by hand (tests, benches).
    pub fn standalone(stage: impl Into<String>, input: usize, extent: usize) -> Self {
        MapperContext {
            stage: stage.into(),
            input,
            extent,
            attempt: 0,
            dsms_pool: Arc::new(pool::WorkerPool::sequential()),
        }
    }
}

/// The map phase's compute hook: user code run once per `(input, extent)`
/// pair, *before* partitioning, inside the same chaos-containment/retry/
/// integrity envelope as reducers.
///
/// A mapper receives one input extent's rows and returns the rows to
/// shuffle in their place. It must be a pure function of
/// `(ctx.input, rows)` — the same byte-determinism contract as
/// [`Reducer`]: shuffle rebuilds after detected corruption re-invoke the
/// mapper and must reproduce identical bytes, and the restart-determinism
/// tests compare them. In particular output may not depend on
/// `ctx.extent`, `ctx.attempt`, wall time, or thread scheduling.
///
/// Batch-native implementations (the embedded DSMS fragment mapper)
/// transpose the extent into a `ColumnBatch` once and run columnar
/// kernels over it; output rows are sealed into framed binary extents by
/// the shuffle exactly like raw rows, so everything downstream (spill,
/// integrity, rebuild) applies unchanged. Output rows must inhabit
/// [`Mapper::output_schema`]: one that does not fails the job with
/// `MrError::IllTyped`.
pub trait Mapper: Send + Sync {
    /// Output schema for stage input `input`, given its dataset schema.
    /// The shuffle seals chunks — and the partitioner resolves key
    /// columns — against this schema.
    fn output_schema(&self, input: usize, schema: &Schema) -> Result<Schema>;

    /// Transform one extent of stage input `input`. Returning `None`
    /// passes the extent through unchanged (the identity for inputs this
    /// mapper does not cover).
    fn map(&self, ctx: &MapperContext, rows: &[Row]) -> Result<Option<Vec<Row>>>;
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
/// for repartitioning datasets and in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityReducer;

impl Reducer for IdentityReducer {
    fn output_schema(&self, inputs: &[Schema]) -> Result<Schema> {
        inputs
            .first()
            .cloned()
            .ok_or_else(|| MrError::BadStage("identity reducer with no input".into()))
    }

    fn reduce(&self, _ctx: &ReducerContext, inputs: Vec<ColumnBatch>) -> Result<Vec<Vec<Row>>> {
        Ok(vec![inputs.iter().flat_map(ColumnBatch::to_rows).collect()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::row;
    use relation::schema::{ColumnType, Field};

    fn schema() -> Schema {
        Schema::timestamped(vec![
            Field::new("UserId", ColumnType::Str),
            Field::new("Bucket", ColumnType::Long),
        ])
    }

    #[test]
    fn key_hash_groups_same_keys() {
        let p = Partitioner::KeyHash {
            columns: vec!["UserId".into()],
        };
        let s = schema();
        let a = p.assign(&s, &row![1i64, "u1", 0i64], 16).unwrap();
        let b = p.assign(&s, &row![99i64, "u1", 5i64], 16).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bucket_column_uses_value_mod_partitions() {
        let p = Partitioner::BucketColumn {
            column: "Bucket".into(),
        };
        let s = schema();
        assert_eq!(p.assign(&s, &row![1i64, "u", 5i64], 4).unwrap(), 1);
        assert_eq!(p.assign(&s, &row![1i64, "u", 3i64], 4).unwrap(), 3);
        assert!(p.assign(&s, &row![1i64, "u", -1i64], 4).is_err());
    }

    #[test]
    fn compiled_partitioner_matches_uncompiled() {
        let s = schema();
        let rows = [
            row![1i64, "u1", 0i64],
            row![2i64, "u2", 5i64],
            row![3i64, "u3", 7i64],
        ];
        for p in [
            Partitioner::KeyHash {
                columns: vec!["UserId".into()],
            },
            Partitioner::BucketColumn {
                column: "Bucket".into(),
            },
            Partitioner::Spread,
            Partitioner::Single,
        ] {
            let compiled = p.compile(&s).unwrap();
            for r in &rows {
                assert_eq!(
                    compiled.assign(r, 8).unwrap(),
                    p.assign(&s, r, 8).unwrap(),
                    "{p:?} on {r:?}"
                );
            }
        }
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
        let p = Partitioner::Single;
        assert_eq!(p.assign(&schema(), &row![1i64, "u", 0i64], 8).unwrap(), 0);
    }

    #[test]
    fn stage_validation() {
        let r: ReducerRef = Arc::new(IdentityReducer);
        assert!(Stage::new("s", vec![], "out", Partitioner::Single, 1, r.clone()).is_err());
        assert!(Stage::new("s", vec!["in".into()], "out", Partitioner::Single, 0, r).is_err());
    }

    #[test]
    fn identity_reducer_flattens_inputs() {
        let ctx = ReducerContext::standalone("s", 0, 1);
        let schema = Schema::new(vec![Field::new("N", ColumnType::Long)]);
        let batch = |rows: &[Row]| ColumnBatch::from_rows(&schema, rows).unwrap();
        let out = IdentityReducer
            .reduce(&ctx, vec![batch(&[row![1i64]]), batch(&[row![2i64]])])
            .unwrap();
        assert_eq!(out, vec![vec![row![1i64], row![2i64]]]);
    }
}
