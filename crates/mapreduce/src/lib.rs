//! A deterministic map-reduce runtime over an in-memory distributed file
//! system.
//!
//! This crate stands in for the paper's Cosmos + SCOPE/Dryad cluster
//! (paper §II-B): datasets live in a [`dfs::Dfs`] as sealed extents;
//! jobs are DAGs of [`job::Stage`]s, each with a *map* phase (a
//! [`job::Partitioner`] assigning rows to reduce partitions) and a *reduce*
//! phase (a [`job::Reducer`] invoked once per partition). A
//! [`cluster::Cluster`] runs a stage's tasks on local workers — pool
//! threads, or forked worker processes ([`BackendKind`]) — that all pull
//! from one attempt ledger.
//!
//! Faithfulness properties the TiMR layer depends on:
//!
//! - **Determinism.** Partition placement is a pure function of the key
//!   ([`relation::hash`]), shuffle preserves input order, and reducers are
//!   pure functions of their partition — so re-running any task yields
//!   byte-identical output. This is the map-reduce failure-handling model
//!   the paper leans on (§III-C.1), and the seeded [`chaos::ChaosPlan`]
//!   injects panics, transient kills, data corruption, and delays into any
//!   phase to prove it: every attempt runs under `catch_unwind` and is
//!   settled by the one ledger, which retries it per
//!   [`chaos::RetryPolicy`]; every extent image — DFS dataset or shuffle
//!   chunk — carries per-column checksum frames, checked wherever it is
//!   decoded, and detected corruption triggers deterministic re-execution
//!   of the producing work.
//! - **Native binary extents.** A dataset *is* its sealed extents, and a
//!   stage boundary is column batches in, column batches out: mappers and
//!   reducers take and return [`relation::ColumnBatch`]es, and DFS
//!   datasets, shuffle partition chunks and persisted files carry framed
//!   binary columnar extents ([`relation::extent`]) with per-column FxHash
//!   integrity frames, and nothing else. A batch that is not of its
//!   schema fails the job with a named [`MrError::IllTyped`], and a
//!   persisted part file that is not a verified image fails the load
//!   with [`MrError::Corrupt`]. Under `ClusterConfig::memory_budget_bytes`
//!   the shuffle seals bounded chunks and spills them to disk, so jobs
//!   whose shuffle exceeds RAM still complete with byte-identical output.
//! - **Cost visibility.** Every stage reports rows mapped, bytes shuffled,
//!   per-partition reduce times, real wall time, and a *simulated makespan*
//!   for an arbitrary machine count (partitions scheduled greedily onto
//!   `machines` workers plus a per-task overhead). The simulated makespan is
//!   what the span-width experiment (paper Fig 16) sweeps, since a laptop
//!   cannot time-share 150 physical machines.

pub mod backend;
pub mod chaos;
pub mod cluster;
pub mod dfs;
pub mod error;
pub mod job;
pub mod persist;
#[cfg(unix)]
pub(crate) mod process;
pub(crate) mod scheduler;
pub mod stats;
#[cfg(unix)]
pub mod transport;

pub use backend::{BackendKind, SpeculationPolicy};
pub use chaos::{ChaosPlan, FaultKind, RetryPolicy};
pub use cluster::{Cluster, ClusterConfig};
pub use dfs::{Dataset, Dfs, StoredExtent};
pub use error::{MrError, Result, TaskError, TaskPhase};
pub use job::{Mapper, MapperContext, MapperRef, Partitioner, Reducer, ReducerContext, Stage};
pub use stats::{FaultTotals, JobStats, MapTotals, StageStats};
