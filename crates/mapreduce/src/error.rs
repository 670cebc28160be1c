//! Error types for the map-reduce runtime.
//!
//! Two layers: [`MrError`] is the job-level error surfaced to callers of
//! `Cluster::run_stage`/`run_job`, while [`TaskError`] is the *per-attempt*
//! error inside one task's retry loop. A retryable [`TaskError`] (panic,
//! transient fault, detected corruption) triggers re-execution under the
//! configured `RetryPolicy`; only when attempts are exhausted does it
//! escalate to [`MrError::TaskExhausted`], naming the stage, phase,
//! partition, and attempt count so failures are as deterministic and
//! reportable as successes.

use relation::RelationError;
use std::fmt;

/// Which phase of stage execution a task error occurred in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskPhase {
    /// Scanning an input extent and assigning rows to partitions.
    Map,
    /// Fetching/verifying a reduce partition's shuffled inputs.
    Shuffle,
    /// Running the reducer over a partition.
    Reduce,
}

impl fmt::Display for TaskPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TaskPhase::Map => "map",
            TaskPhase::Shuffle => "shuffle",
            TaskPhase::Reduce => "reduce",
        })
    }
}

/// One task attempt's failure. Everything except [`TaskError::Fatal`] is
/// retryable: the attempt is re-run (after backoff) up to
/// `RetryPolicy::max_attempts`.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskError {
    /// The task panicked; contained via `catch_unwind`, payload preserved.
    Panicked {
        /// Stringified panic payload.
        payload: String,
    },
    /// A transient fault (injected kill, simulated I/O hiccup).
    Transient {
        /// Fault description.
        message: String,
    },
    /// An integrity frame did not match the data it covers.
    Corrupt {
        /// What failed verification and how.
        what: String,
    },
    /// The attempt exceeded `RetryPolicy::attempt_timeout`. Retryable:
    /// the re-execution gets a fresh deadline (and, on the multi-process
    /// backend, a fresh worker).
    TimedOut {
        /// How long the attempt ran before the deadline fired.
        elapsed: std::time::Duration,
    },
    /// A deterministic error that retrying cannot fix (bad stage config,
    /// reducer logic error); propagated immediately without retry.
    Fatal(Box<MrError>),
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::Panicked { payload } => write!(f, "task panicked: {payload}"),
            TaskError::Transient { message } => write!(f, "transient fault: {message}"),
            TaskError::Corrupt { what } => write!(f, "corruption detected: {what}"),
            TaskError::TimedOut { elapsed } => {
                write!(f, "attempt timed out after {elapsed:?}")
            }
            TaskError::Fatal(e) => write!(f, "fatal: {e}"),
        }
    }
}

impl From<MrError> for TaskError {
    /// Job-level errors reaching a task body are deterministic — retrying
    /// would fail identically — so they map to [`TaskError::Fatal`].
    fn from(e: MrError) -> Self {
        TaskError::Fatal(Box::new(e))
    }
}

/// Errors raised by the map-reduce runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum MrError {
    /// A named dataset was not found in the DFS.
    NoSuchDataset(String),
    /// A dataset with this name already exists.
    DatasetExists(String),
    /// A stage was misconfigured (bad partitioner columns, arity…).
    BadStage(String),
    /// A reducer failed.
    Reducer {
        /// Stage name.
        stage: String,
        /// Partition index.
        partition: usize,
        /// Failure description.
        message: String,
    },
    /// An operating-system I/O operation failed.
    Io {
        /// What was being done (e.g. "write extent").
        what: String,
        /// The path involved.
        path: String,
        /// The OS error.
        message: String,
    },
    /// Stored data failed integrity verification (length/checksum frame).
    Corrupt {
        /// What failed verification and how.
        what: String,
    },
    /// A row at a stage boundary does not inhabit its schema, so it has no
    /// extent image. Deterministic — the same rows fail the same way on
    /// every attempt and backend — so it is never retried and nothing is
    /// published.
    IllTyped {
        /// Where the row sat: "`stage` map input 0 extent 3" (a source
        /// extent or the mapper's output for it), "`stage` reduce sink 1
        /// partition 2" (a reducer's output), or "extent 1" for a dataset
        /// built outside a stage.
        site: String,
        /// The cell that does not fit: column, expected and actual type
        /// (or the row's arity against the schema's).
        cause: RelationError,
    },
    /// The execution backend itself failed (worker process could not be
    /// spawned, the worker set died beyond the respawn budget, a protocol
    /// violation on the wire) — as opposed to a task failing *on* a
    /// healthy backend.
    Backend {
        /// What went wrong.
        message: String,
    },
    /// A task kept failing retryably until `RetryPolicy::max_attempts`.
    TaskExhausted {
        /// Stage name.
        stage: String,
        /// Phase the task was in when it last failed.
        phase: TaskPhase,
        /// Task index within the phase (extent index for map, partition
        /// index for shuffle/reduce).
        partition: usize,
        /// Number of attempts made.
        attempts: usize,
        /// The final attempt's error.
        last: Box<TaskError>,
    },
    /// Propagated relational-layer error.
    Relation(RelationError),
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::NoSuchDataset(n) => write!(f, "no such dataset `{n}`"),
            MrError::DatasetExists(n) => write!(f, "dataset `{n}` already exists"),
            MrError::BadStage(m) => write!(f, "bad stage: {m}"),
            MrError::Reducer {
                stage,
                partition,
                message,
            } => write!(
                f,
                "reducer failed in `{stage}` partition {partition}: {message}"
            ),
            MrError::Io {
                what,
                path,
                message,
            } => write!(f, "io error ({what}) at `{path}`: {message}"),
            MrError::Corrupt { what } => write!(f, "corruption detected: {what}"),
            MrError::IllTyped { site, cause } => write!(f, "ill-typed row in {site}: {cause}"),
            MrError::Backend { message } => write!(f, "backend failure: {message}"),
            MrError::TaskExhausted {
                stage,
                phase,
                partition,
                attempts,
                last,
            } => write!(
                f,
                "task exhausted retries in `{stage}` {phase} partition {partition} \
                 after {attempts} attempt(s): {last}"
            ),
            MrError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MrError::Relation(e) | MrError::IllTyped { cause: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for MrError {
    fn from(e: RelationError) -> Self {
        MrError::Relation(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, MrError>;
