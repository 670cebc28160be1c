//! Execution backends: how a stage's map and reduce tasks actually run.
//!
//! [`crate::cluster::Cluster`] owns everything that must be *shared* for
//! byte-identity — input capture, mapped schemas, compiled partitioners,
//! the task bodies (which seal what they produce), the deterministic
//! chunk placement/spill, rebuild-on-corruption, and all-or-nothing
//! publish. What it delegates, behind the [`Backend`] / [`StageExec`]
//! trait pair, is the execution of the tasks themselves:
//!
//! - [`ThreadBackend`] — the in-process thread pool the runtime grew up
//!   on, frozen as the baseline. Tasks run in the [`run_attempts`] retry
//!   loop.
//! - `ProcessBackend` (`crate::process`, Unix only) — real worker OS
//!   processes connected over Unix-domain sockets, exchanging binary
//!   extent images, with heartbeats, dead-worker takeover, speculative
//!   re-execution, and preemptive attempt timeouts.
//!
//! Both backends consult the same pure [`crate::chaos::ChaosPlan`] and
//! run the same task bodies inside the same per-attempt fault envelope
//! ([`attempt_once`]), which is the determinism argument:
//! whichever backend executes a task, the sealed chunks and stored
//! extents it contributes are byte-identical
//! (`tests/prop_cluster_backend.rs` proves it under chaos).

use crate::chaos::{self, FaultKind};
use crate::cluster::{ClusterConfig, MapTaskOut, ShuffleSlot};
use crate::dfs::{Dataset, StoredExtent};
use crate::error::{MrError, Result, TaskError, TaskPhase};
use crate::job::{CompiledPartitioner, Stage};
use pool::WorkerPool;
use relation::{Row, Schema};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which execution backend a cluster runs its tasks on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// In-process thread pool (the default, and the frozen baseline).
    #[default]
    Threads,
    /// Real worker OS processes over Unix-domain sockets. Falls back to
    /// threads on non-Unix targets (there is no fork to build it on).
    Processes {
        /// Worker processes to spawn per stage.
        workers: usize,
    },
}

/// When the multi-process scheduler launches a speculative duplicate of a
/// straggling task (paper-era clusters call this backup execution):
/// a task still running past `latency_factor ×` the median completed-task
/// latency (and past `min_lag`, so microsecond noise never triggers it)
/// gets a second copy on an idle worker. First valid result wins; because
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

/// Fault-handling tallies for one stage run, updated lock-free from
/// worker threads (and the process scheduler) and folded into
/// `StageStats` at the end. The chaos-driven counts are deterministic
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
/// any task executes. The multi-process backend forks its workers *after*
/// this is built, so worker processes inherit the stage, its input
/// datasets, and the compiled partitioners by address-space copy — only
/// task descriptors and result extents cross the socket.
pub(crate) struct StageEnv<'a> {
    pub stage: &'a Stage,
    pub inputs: &'a [Dataset],
    pub mapped_schemas: &'a [Schema],
    pub assigners: &'a [CompiledPartitioner],
    pub sink_schemas: &'a [Schema],
    pub config: &'a ClusterConfig,
    pub counters: &'a FaultCounters,
    pub dsms_pool: &'a Arc<WorkerPool>,
    pub chunk_target: u64,
    pub expected_sinks: usize,
}

/// One reduce partition's result: per sink, the rows and the stored form
/// the task sealed them into, plus measured reduce and seal time.
pub(crate) struct ReduceOut {
    pub sinks: Vec<(Vec<Row>, StoredExtent)>,
    pub reduce_time: Duration,
    pub seal_time: Duration,
}

/// An execution backend: hands out a per-stage [`StageExec`].
pub(crate) trait Backend: Send + Sync + std::fmt::Debug {
    /// Start a stage: acquire whatever workers this backend uses. For the
    /// process backend this is the fork point — it must happen after the
    /// env (inputs included) is fully built.
    fn begin<'e>(&'e self, env: &'e StageEnv<'e>) -> Result<Box<dyn StageExec<'e> + 'e>>;
}

/// One stage's task executor. Map tasks may arrive in several waves
/// (budgeted shuffles place chunks between waves); reduce runs once.
pub(crate) trait StageExec<'e> {
    /// Run one wave of map tasks (`tasks[k]` is the `(input, extent)`
    /// pair of global task index `base + k`), returning per-task results
    /// in wave order.
    fn run_map(&mut self, base: usize, tasks: &[(usize, usize)]) -> Vec<Result<MapTaskOut>>;

    /// Fetch/verify and reduce every partition, returning per-partition
    /// results in partition order.
    fn run_reduce(&mut self, shuffle: &[Mutex<ShuffleSlot>]) -> Vec<Result<ReduceOut>>;

    /// Release workers. The process backend shuts down and reaps every
    /// worker process here (and again on drop, so error paths leak no
    /// orphans).
    fn finish(&mut self) -> Result<()>;
}

/// One attempt of one task, on either backend: inject the `fault` the
/// chaos plan scheduled for this coordinate (panic / transient / delay),
/// run `body` under `catch_unwind`, and classify the outcome. `body` is
/// told whether to corrupt the data it reads. `KillProcess` never reaches
/// here: each backend acts on it first, in the only way it can.
pub(crate) fn attempt_once<T>(
    env: &StageEnv<'_>,
    phase: TaskPhase,
    task: usize,
    attempt: usize,
    fault: Option<FaultKind>,
    body: impl FnOnce(bool) -> std::result::Result<T, TaskError>,
) -> std::result::Result<T, TaskError> {
    let stage = env.stage.name.as_str();
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        match fault {
            Some(FaultKind::Panic) => std::panic::panic_any(format!(
                "{}: `{stage}` {phase} task {task} attempt {attempt}",
                chaos::INJECTED_PANIC_MARKER
            )),
            Some(FaultKind::Transient) => {
                return Err(TaskError::Transient {
                    message: format!("injected kill (attempt {attempt})"),
                });
            }
            Some(FaultKind::Delay) => {
                // In a worker process this tallies a forked copy nobody
                // reads; the parent scheduler charges the delay itself.
                env.counters.add(&env.counters.delays, 1);
                std::thread::sleep(env.config.chaos.delay());
            }
            _ => {}
        }
        body(fault == Some(FaultKind::Corrupt))
    }))
    .unwrap_or_else(|payload| {
        Err(TaskError::Panicked {
            payload: pool::payload_str(payload.as_ref()).to_string(),
        })
    })
}

/// Run one task's attempt loop (thread backend).
///
/// Each attempt consults the chaos plan and runs `body` in the
/// [`attempt_once`] envelope. Retryable errors back off per the retry
/// policy and try again; `TaskError::Fatal` and retry exhaustion escalate
/// to job-level errors. A `KillProcess` fault degrades to a transient kill
/// here: threads share the process, so a real SIGKILL would take the
/// whole cluster down rather than one worker.
pub(crate) fn run_attempts<T>(
    env: &StageEnv<'_>,
    phase: TaskPhase,
    task: usize,
    mut body: impl FnMut(usize, bool) -> std::result::Result<T, TaskError>,
) -> Result<T> {
    let config = env.config;
    let counters = env.counters;
    let stage = env.stage.name.as_str();
    let max_attempts = config.retry.max_attempts.max(1);
    let mut attempt = 0usize;
    loop {
        let mut fault = config.chaos.fault_for(stage, phase, task, attempt);
        if fault == Some(FaultKind::KillProcess) {
            fault = Some(FaultKind::Transient);
        }
        let started = Instant::now();
        let mut outcome = attempt_once(env, phase, task, attempt, fault, |corrupt| {
            body(attempt, corrupt)
        });
        // Post-hoc deadline: threads cannot be preempted, so a result that
        // lands after `attempt_timeout` is *discarded* and the attempt
        // charged as timed out — the same deadline discipline the process
        // backend enforces preemptively with SIGKILL.
        if let (Ok(_), Some(limit)) = (&outcome, config.retry.attempt_timeout) {
            let elapsed = started.elapsed();
            if elapsed > limit {
                outcome = Err(TaskError::TimedOut { elapsed });
            }
        }
        let err = match outcome {
            Ok(value) => return Ok(value),
            Err(TaskError::Fatal(e)) => return Err(*e),
            Err(e) => e,
        };
        counters.count_error(&err);
        attempt += 1;
        if attempt >= max_attempts {
            return Err(MrError::TaskExhausted {
                stage: stage.to_string(),
                phase,
                partition: task,
                attempts: attempt,
                last: Box::new(err),
            });
        }
        counters.add(&counters.retries, 1);
        let pause = config.retry.backoff_after(attempt - 1);
        if !pause.is_zero() {
            counters.add(&counters.backoff_ns, pause.as_nanos() as u64);
            std::thread::sleep(pause);
        }
    }
}

/// Fold one pool slot back into a job-level result. A panic that escaped
/// the attempt loop itself (a harness bug, since attempts run under
/// `catch_unwind`) is still contained by the pool and reported as an
/// exhausted task rather than aborting the process.
pub(crate) fn contained<T>(
    max_attempts: usize,
    stage: &str,
    phase: TaskPhase,
    task: usize,
    slot: std::result::Result<Result<T>, pool::Panicked>,
) -> Result<T> {
    match slot {
        Ok(inner) => inner,
        Err(p) => Err(MrError::TaskExhausted {
            stage: stage.to_string(),
            phase,
            partition: task,
            attempts: max_attempts.max(1),
            last: Box::new(TaskError::Panicked { payload: p.payload }),
        }),
    }
}

/// The in-process thread-pool backend (the frozen baseline).
#[derive(Debug)]
pub(crate) struct ThreadBackend {
    pool: WorkerPool,
}

impl ThreadBackend {
    pub fn new(threads: usize) -> ThreadBackend {
        ThreadBackend {
            pool: WorkerPool::new(threads),
        }
    }
}

impl Backend for ThreadBackend {
    fn begin<'e>(&'e self, env: &'e StageEnv<'e>) -> Result<Box<dyn StageExec<'e> + 'e>> {
        Ok(Box::new(ThreadExec {
            pool: &self.pool,
            env,
        }))
    }
}

struct ThreadExec<'e> {
    pool: &'e WorkerPool,
    env: &'e StageEnv<'e>,
}

impl<'e> StageExec<'e> for ThreadExec<'e> {
    fn run_map(&mut self, base: usize, tasks: &[(usize, usize)]) -> Vec<Result<MapTaskOut>> {
        let env = self.env;
        self.pool
            .run_caught(tasks.len(), |k| {
                let t = base + k;
                let (i, e) = tasks[k];
                run_attempts(env, TaskPhase::Map, t, |attempt, corrupt| {
                    crate::cluster::run_map_task(env, i, e, attempt, corrupt)
                })
            })
            .into_iter()
            .enumerate()
            .map(|(k, slot)| {
                contained(
                    env.config.retry.max_attempts,
                    &env.stage.name,
                    TaskPhase::Map,
                    base + k,
                    slot,
                )
            })
            .collect()
    }

    fn run_reduce(&mut self, shuffle: &[Mutex<ShuffleSlot>]) -> Vec<Result<ReduceOut>> {
        let env = self.env;
        self.pool
            .run_caught(env.stage.partitions, |p| {
                let mut slot = crate::cluster::lock_slot(&shuffle[p]);
                // Shuffle fetch: verify this partition's chunks against
                // their per-column frames; on a mismatch, rebuild them
                // from the source extents and retry. On success, decode
                // into the reducer's input batches — one partition's worth
                // of decoded data at a time, which is what keeps budgeted
                // runs out-of-core.
                let mut fetched = Some(run_attempts(env, TaskPhase::Shuffle, p, |_, corrupt| {
                    crate::cluster::run_shuffle_fetch(env, p, corrupt, &mut slot)
                })?);
                // Reduce: the reducer is a pure function of the (now
                // verified) partition, so every retry reproduces the same
                // rows. The first attempt consumes the fetched batches; a
                // retry decodes the slot again, so only a failed attempt
                // pays for a second copy.
                run_attempts(env, TaskPhase::Reduce, p, |attempt, _| {
                    let inputs = match fetched.take() {
                        Some(inputs) => inputs,
                        None => crate::cluster::fetch_inputs(&slot, env.mapped_schemas)?,
                    };
                    crate::cluster::run_reduce_task(env, p, attempt, inputs)
                })
            })
            .into_iter()
            .enumerate()
            .map(|(p, slot)| {
                contained(
                    env.config.retry.max_attempts,
                    &env.stage.name,
                    TaskPhase::Reduce,
                    p,
                    slot,
                )
            })
            .collect()
    }

    fn finish(&mut self) -> Result<()> {
        Ok(())
    }
}
