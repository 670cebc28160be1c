//! What a stage's workers share: which kind they are, when an idle one is
//! handed a speculative duplicate, the stage environment every task body
//! reads, and the fault tallies.
//!
//! [`crate::cluster::Cluster`] owns everything that must be *shared* for
//! byte-identity — input capture, mapped schemas, compiled partitioners,
//! the pure task work (which seals what it produces), the deterministic
//! chunk placement/spill, rebuild-on-corruption, and all-or-nothing
//! publish. `crate::scheduler` owns the attempt ledger and the task bodies.
//! What [`BackendKind`] selects is only *where* a copy of a task runs:
//!
//! - [`BackendKind::Threads`] — on the pool thread that pulled it, in
//!   place.
//! - [`BackendKind::Processes`] (`crate::process`, Unix only) — in a forked
//!   worker OS process, driven over a Unix-domain socket by the pool
//!   thread that pulled it; such a copy can be killed, which is what makes
//!   preemptive attempt timeouts, heartbeat deadlines and speculative
//!   re-execution possible.
//!
//! Both kinds pull from the same ledger, consult the same pure
//! [`crate::chaos::ChaosPlan`] and run the same task bodies, which is the
//! determinism argument: whoever executes a task, the sealed chunks and
//! stored extents it contributes are byte-identical
//! (`tests/prop_cluster_backend.rs` proves it under chaos).

use crate::cluster::ClusterConfig;
use crate::dfs::{Dataset, StoredExtent};
use crate::error::TaskError;
use crate::job::{CompiledPartitioner, Stage};
use relation::Schema;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Which kind of worker a cluster runs its tasks on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Pool threads running tasks in place (the default).
    #[default]
    Threads,
    /// Real worker OS processes over Unix-domain sockets. Falls back to
    /// threads on non-Unix targets (there is no fork to build it on).
    Processes {
        /// Worker processes to spawn per stage.
        workers: usize,
    },
}

/// When the ledger hands an idle worker process a speculative duplicate of
/// a straggling task (paper-era clusters call this backup execution):
/// a task still running past `latency_factor ×` the median completed-task
/// latency (and past `min_lag`, so microsecond noise never triggers it)
/// gets a second copy. A pool thread is never given one — it could not be
/// reclaimed if it lost. First valid result wins; because
/// tasks are pure, both copies produce identical bytes, so the race can
/// never change output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculationPolicy {
    /// Master switch.
    pub enabled: bool,
    /// Straggler threshold as a multiple of the median completed latency.
    pub latency_factor: f64,
    /// Absolute floor on how far behind a task must be before a duplicate
    /// launches.
    pub min_lag: Duration,
    /// Completed tasks needed in this phase before the median is trusted.
    pub min_completed: usize,
}

impl Default for SpeculationPolicy {
    fn default() -> Self {
        SpeculationPolicy {
            enabled: true,
            latency_factor: 4.0,
            min_lag: Duration::from_millis(25),
            min_completed: 2,
        }
    }
}

/// Fault-handling tallies for one stage run, updated lock-free by the
/// ledger and the worker-process drivers and folded into `StageStats` at
/// the end. The chaos-driven counts are deterministic
/// functions of the plan and stage shape; the robustness counts
/// (heartbeats, timeouts, speculation, worker loss) depend on real
/// wall-clock races and are reported, not asserted exactly.
#[derive(Debug, Default)]
pub(crate) struct FaultCounters {
    pub retries: AtomicU64,
    pub panics: AtomicU64,
    pub transients: AtomicU64,
    pub corruptions: AtomicU64,
    pub delays: AtomicU64,
    pub backoff_ns: AtomicU64,
    pub heartbeats_missed: AtomicU64,
    pub timeouts: AtomicU64,
    pub spec_launched: AtomicU64,
    pub spec_wins: AtomicU64,
    pub workers_lost: AtomicU64,
}

impl FaultCounters {
    pub fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Tally one classified task failure.
    pub fn count_error(&self, err: &TaskError) {
        match err {
            TaskError::Panicked { .. } => self.add(&self.panics, 1),
            TaskError::Transient { .. } => self.add(&self.transients, 1),
            TaskError::Corrupt { .. } => self.add(&self.corruptions, 1),
            TaskError::TimedOut { .. } => self.add(&self.timeouts, 1),
            TaskError::Fatal(_) => {}
        }
    }
}

/// Everything one stage's tasks need, captured once by `run_stage` before
/// any task executes. Worker processes are forked *after* this is built,
/// so they inherit the stage, its input datasets, and the compiled
/// partitioners by address-space copy — only task descriptors and result
/// extents cross the socket.
pub(crate) struct StageEnv<'a> {
    pub stage: &'a Stage,
    pub inputs: &'a [Dataset],
    pub mapped_schemas: &'a [Schema],
    pub assigners: &'a [CompiledPartitioner],
    pub sink_schemas: &'a [Schema],
    pub config: &'a ClusterConfig,
    pub counters: &'a FaultCounters,
    pub chunk_target: u64,
    pub expected_sinks: usize,
}

/// One reduce partition's result: per sink, the extent the task sealed,
/// plus measured reduce and seal time.
pub(crate) struct ReduceOut {
    pub sinks: Vec<StoredExtent>,
    pub reduce_time: Duration,
    pub seal_time: Duration,
}
