//! The one scheduler: an attempt ledger, one task body per phase, and the
//! loop every worker runs.
//!
//! TiMR's robustness rule is that tasks are pure, so re-executing a failed
//! task *is* recovery (paper §III-C.1). The rule is written once, here:
//!
//! - [`Ledger`] is passive bookkeeping for one phase's tasks. Workers
//!   **pull**: [`Ledger::next`] blocks until it can hand the caller a ready
//!   task (or, to a caller whose worker can be killed, a speculative
//!   duplicate of a straggler), and [`Ledger::settle`] is the only code that
//!   classifies a failure, tallies it, bumps an attempt, builds
//!   [`MrError::TaskExhausted`], schedules backoff, applies
//!   `RetryPolicy::attempt_timeout` to a late result, repairs a damaged
//!   shuffle slot and picks the winner of a race.
//! - [`execute_map`] and [`execute_reduce`] are the task bodies: straggle →
//!   chaos fault → [`attempt_once`] around the pure work in
//!   `crate::cluster`. Whoever runs a copy — a pool thread in place, or a
//!   forked child that received the coordinates over its socket — calls
//!   these, so the bytes a task contributes cannot depend on who ran it.
//! - A [`Worker`] only runs one copy to an outcome, blocking. [`InPlace`]
//!   runs it on the calling pool thread; `crate::process::Forked` ships it
//!   to a child process. [`run_phase`] is the loop both kinds run:
//!   `while let Some(copy) = ledger.next(..) { ledger.settle(copy, run(copy)) }`.

use crate::backend::{FaultCounters, ReduceOut, StageEnv};
use crate::chaos::{self, FaultKind};
use crate::cluster::{self, lock_slot, MapTaskOut, ShuffleSlot};
use crate::error::{MrError, Result, TaskError, TaskPhase};
use pool::WorkerPool;
use std::panic::AssertUnwindSafe;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One launched execution of a task: the primary, or a speculative
/// duplicate racing it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaskCopy {
    /// Stage-wide task index: the map task number, or the reduce partition.
    pub task: usize,
    /// Map attempt, or reduce attempt for a reduce task.
    pub attempt: usize,
    /// Shuffle sub-phase attempt (reduce tasks only).
    pub shuffle_attempt: usize,
    pub speculative: bool,
    /// Whether the worker running this copy can be killed mid-copy.
    pub preemptible: bool,
    pub started: Instant,
}

/// A copy that did not produce its result, and the phase to charge.
pub(crate) struct Failure {
    pub phase: TaskPhase,
    pub error: TaskError,
}

pub(crate) type Outcome<T> = std::result::Result<T, Failure>;

struct TaskState<T> {
    attempt: usize,
    shuffle_attempt: usize,
    /// Earliest hand-out time (retry backoff, slept by whoever pulls next).
    ready_at: Instant,
    /// Copies handed out and not yet settled.
    live: usize,
    /// When the copy now running alone was handed out.
    running_since: Instant,
    speculated: bool,
    done: Option<Result<T>>,
}

struct State<T> {
    tasks: Vec<TaskState<T>>,
    /// Tasks below this index have been handed out at least once.
    fresh: usize,
    /// Failed tasks waiting for their next attempt.
    retry: Vec<usize>,
    /// Tasks without a result yet.
    open: usize,
    /// Callers blocked in `next`; nobody is notified when nobody waits.
    waiting: usize,
    /// Latencies of the winning copies in ascending order, for the
    /// straggler threshold.
    durations: Vec<Duration>,
}

/// The attempt ledger of one phase: `len` map tasks numbered from `base`,
/// or (with `shuffle`) one reduce task per stored slot.
pub(crate) struct Ledger<'e, T> {
    env: &'e StageEnv<'e>,
    base: usize,
    shuffle: Option<&'e [Mutex<ShuffleSlot>]>,
    state: Mutex<State<T>>,
    wake: Condvar,
}

impl<'e, T> Ledger<'e, T> {
    pub fn new(
        env: &'e StageEnv<'e>,
        base: usize,
        len: usize,
        shuffle: Option<&'e [Mutex<ShuffleSlot>]>,
    ) -> Ledger<'e, T> {
        let now = Instant::now();
        let tasks = (0..len).map(|_| TaskState {
            attempt: 0,
            shuffle_attempt: 0,
            ready_at: now,
            live: 0,
            running_since: now,
            speculated: false,
            done: None,
        });
        let ledger = Ledger {
            env,
            base,
            shuffle,
            state: Mutex::new(State {
                tasks: tasks.collect(),
                fresh: 0,
                retry: Vec::new(),
                open: len,
                waiting: 0,
                durations: Vec::new(),
            }),
            wake: Condvar::new(),
        };
        for task in base..base + len {
            if shuffle.is_some() {
                ledger.begin(TaskPhase::Shuffle, task, 0);
            }
            ledger.begin(ledger.main_phase(), task, 0);
        }
        ledger
    }

    pub fn len(&self) -> usize {
        self.lock().tasks.len()
    }

    /// Poisoning is ignored: every update under this lock leaves the
    /// state valid at each step, and task bodies — the code that panics —
    /// run outside it, under `catch_unwind`.
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        lock_slot(&self.state)
    }

    fn main_phase(&self) -> TaskPhase {
        match self.shuffle {
            Some(_) => TaskPhase::Reduce,
            None => TaskPhase::Map,
        }
    }

    /// An attempt coordinate is about to be handed out for the first time:
    /// apply what the chaos plan schedules for it *outside* the task body.
    /// A `Delay` is tallied here, so the count is the same wherever the
    /// copy sleeps it; a `Corrupt` shuffle fetch damages the **stored**
    /// slot, so what the fetch reads is bad on every worker kind.
    fn begin(&self, phase: TaskPhase, task: usize, attempt: usize) {
        let env = self.env;
        match (env.config.chaos).fault_for(&env.stage.name, phase, task, attempt) {
            Some(FaultKind::Delay) => env.counters.add(&env.counters.delays, 1),
            Some(FaultKind::Corrupt) => {
                if let (TaskPhase::Shuffle, Some(shuffle)) = (phase, self.shuffle) {
                    cluster::corrupt_slot(&mut lock_slot(&shuffle[task]));
                }
            }
            _ => {}
        }
    }

    /// Block until there is a copy for the caller to run; `None` once there
    /// will be none. A failed task is handed out again when its backoff has
    /// passed. Only a caller whose worker can be killed is ever given a
    /// speculative duplicate: a copy that cannot be reclaimed when it loses
    /// the race would be waited out, which is the cost speculation exists
    /// to avoid. Such a caller also stays until every task has its result —
    /// it may be handed a duplicate, or the share of a worker that died —
    /// while one that cannot be killed leaves as soon as nothing is waiting:
    /// whoever fails a copy is itself free to pull the retry.
    pub fn next(&self, preemptible: bool) -> Option<TaskCopy> {
        let policy = &self.env.config.speculation;
        let mut s = self.lock();
        loop {
            let unclaimed = s.fresh < s.tasks.len() || !s.retry.is_empty();
            if s.open == 0 || !(preemptible || unclaimed) {
                return None;
            }
            let now = Instant::now();
            let ready = (s.retry.iter()).position(|&k| s.tasks[k].ready_at <= now);
            let mut straggles_at = None;
            let (pick, speculative) = if let Some(at) = ready {
                (Some(s.retry.swap_remove(at)), false)
            } else if s.fresh < s.tasks.len() {
                s.fresh += 1;
                (Some(s.fresh - 1), false)
            } else if preemptible && policy.enabled {
                let straggler = s.next_straggler(policy);
                straggles_at = straggler.map(|(_, due)| due);
                let due = straggler.filter(|&(_, due)| due <= now);
                (due.map(|(k, _)| k), true)
            } else {
                (None, false)
            };
            if let Some(k) = pick {
                let t = &mut s.tasks[k];
                t.live += 1;
                if speculative {
                    t.speculated = true;
                    self.env.counters.add(&self.env.counters.spec_launched, 1);
                } else {
                    t.running_since = now;
                }
                return Some(TaskCopy {
                    task: self.base + k,
                    attempt: t.attempt,
                    shuffle_attempt: t.shuffle_attempt,
                    speculative,
                    preemptible,
                    started: now,
                });
            }
            // Nothing to run yet: sleep until a backoff ends or a running
            // copy becomes a straggler, or until `settle` changes either.
            let backoff = s.retry.iter().map(|&k| s.tasks[k].ready_at).min();
            s.waiting += 1;
            s = match backoff.into_iter().chain(straggles_at).min() {
                Some(at) => (self.wake)
                    .wait_timeout(s, at.saturating_duration_since(now))
                    .map(|(s, _)| s)
                    .unwrap_or_else(|e| e.into_inner().0),
                None => self.wake.wait(s).unwrap_or_else(PoisonError::into_inner),
            };
            s.waiting -= 1;
        }
    }

    /// Whether `copy`'s task already has its result: the copy lost a race
    /// and whoever is still running it may stop.
    pub fn settled(&self, copy: &TaskCopy) -> bool {
        self.lock().tasks[copy.task - self.base].done.is_some()
    }

    /// Record how `copy` ended. One ledger settles every attempt; a worker
    /// only runs a copy.
    pub fn settle(&self, copy: TaskCopy, outcome: Outcome<T>) {
        let env = self.env;
        let counters: &FaultCounters = env.counters;
        let retry = &env.config.retry;
        let outcome = self.repair(&copy, outcome);
        let elapsed = copy.started.elapsed();
        let mut s = self.lock();
        let k = copy.task - self.base;
        let live = {
            let t = &mut s.tasks[k];
            t.live -= 1;
            if t.done.is_some() {
                return;
            }
            t.live
        };
        // A worker that cannot be preempted hands in its result late; it is
        // discarded, so both kinds time out with the same observable outcome.
        let outcome = match outcome {
            Ok(_) if !copy.preemptible && retry.attempt_timeout.is_some_and(|l| elapsed > l) => {
                Err(Failure {
                    phase: self.main_phase(),
                    error: TaskError::TimedOut { elapsed },
                })
            }
            other => other,
        };
        let verdict = match outcome {
            Ok(value) => {
                // First valid result wins; tasks are pure, so the loser
                // would have produced the same bytes.
                let at = s.durations.partition_point(|&d| d <= elapsed);
                s.durations.insert(at, elapsed);
                if copy.speculative {
                    counters.add(&counters.spec_wins, 1);
                }
                Ok(value)
            }
            // The sibling copy of the same attempt decides: it fails the
            // same way, and charges the attempt exactly once.
            Err(_) if live > 0 => return,
            Err(Failure {
                error: TaskError::Fatal(e),
                ..
            }) => Err(*e),
            Err(Failure { phase, error }) => {
                counters.count_error(&error);
                let t = &mut s.tasks[k];
                let attempts = if phase == TaskPhase::Shuffle {
                    t.shuffle_attempt += 1;
                    t.shuffle_attempt
                } else {
                    t.attempt += 1;
                    t.attempt
                };
                if attempts < retry.max_attempts.max(1) {
                    counters.add(&counters.retries, 1);
                    let pause = retry.backoff_after(attempts - 1);
                    counters.add(&counters.backoff_ns, pause.as_nanos() as u64);
                    t.ready_at = Instant::now() + pause;
                    t.speculated = false;
                    s.retry.push(k);
                    self.begin(phase, copy.task, attempts);
                    self.notify(&s);
                    return;
                }
                Err(MrError::TaskExhausted {
                    stage: env.stage.name.clone(),
                    phase,
                    partition: copy.task,
                    attempts,
                    last: Box::new(error),
                })
            }
        };
        s.tasks[k].done = Some(verdict);
        s.open -= 1;
        self.notify(&s);
    }

    /// Wake every caller blocked in `next`: a retry is waiting, the
    /// straggler threshold moved, or the phase is over.
    fn notify(&self, s: &State<T>) {
        if s.waiting > 0 {
            self.wake.notify_all();
        }
    }

    /// The one corruption-recovery rule: a shuffle fetch that reported
    /// corruption makes the coordinator check the *stored* slot and, when
    /// the damage is really there, rebuild it from the source extents
    /// before the retry is handed out — whoever ran the fetch.
    fn repair(&self, copy: &TaskCopy, outcome: Outcome<T>) -> Outcome<T> {
        let (Some(shuffle), Err(failure)) = (self.shuffle, &outcome) else {
            return outcome;
        };
        if failure.phase != TaskPhase::Shuffle
            || !matches!(failure.error, TaskError::Corrupt { .. })
        {
            return outcome;
        }
        let mut slot = lock_slot(&shuffle[copy.task]);
        if cluster::verify_slot(&slot).is_none() {
            return outcome;
        }
        match cluster::rebuild_slot(self.env, copy.task, &mut slot) {
            // A source extent that cannot be re-read cannot be retried
            // into existence either.
            Err(error @ TaskError::Fatal(_)) => Err(Failure {
                phase: TaskPhase::Shuffle,
                error,
            }),
            _ => outcome,
        }
    }

    /// Per-task results in task order. A task every worker left without a
    /// result is a backend error; why they left (for forked workers: every
    /// child died and the respawn budget is spent) is theirs to know.
    pub fn into_results(self) -> Vec<Result<T>> {
        let state = self.state.into_inner();
        let tasks = state.unwrap_or_else(PoisonError::into_inner).tasks;
        let abandoned = |task: usize| MrError::Backend {
            message: format!("task {task} was abandoned: no worker was left to run it"),
        };
        (tasks.into_iter().zip(self.base..))
            .map(|(t, task)| t.done.unwrap_or_else(|| Err(abandoned(task))))
            .collect()
    }
}

impl<T> State<T> {
    /// The task that becomes a straggler first, and when: its only copy
    /// runs past `latency_factor ×` the median completed latency (and past
    /// `min_lag`) with no duplicate launched yet.
    fn next_straggler(&self, policy: &crate::SpeculationPolicy) -> Option<(usize, Instant)> {
        if self.durations.len() < policy.min_completed.max(1) {
            return None;
        }
        let median = self.durations[self.durations.len() / 2];
        let threshold = median.mul_f64(policy.latency_factor).max(policy.min_lag);
        (self.tasks.iter().enumerate())
            .filter(|(_, t)| t.done.is_none() && t.live == 1 && !t.speculated)
            .map(|(k, t)| (k, t.running_since + threshold))
            .min_by_key(|&(_, due)| due)
    }
}

/// `SIGKILL` the process running the task body. A forked child passes its
/// own; a pool thread has no process of its own to lose and passes `None`.
pub(crate) type KillSelf = Option<fn() -> !>;

/// The fault the chaos plan schedules for this attempt, with
/// `KillProcess` acted on in the only way the host can: a forked child
/// dies on the spot — a real, uncatchable death, yet scheduled purely by
/// the plan's coordinates — and a pool thread degrades it to a transient
/// kill, since a real SIGKILL would take the whole cluster down.
fn scheduled_fault(
    env: &StageEnv<'_>,
    kill: KillSelf,
    phase: TaskPhase,
    task: usize,
    attempt: usize,
) -> Option<FaultKind> {
    let chaos = &env.config.chaos;
    match chaos.fault_for(&env.stage.name, phase, task, attempt) {
        Some(FaultKind::KillProcess) => match kill {
            Some(kill) => kill(),
            None => Some(FaultKind::Transient),
        },
        fault => fault,
    }
}

/// Sleep the straggle the plan schedules for the primary execution of this
/// attempt; a speculative duplicate skips it (that is what lets it win).
fn straggle(env: &StageEnv<'_>, phase: TaskPhase, copy: &TaskCopy) {
    let chaos = &env.config.chaos;
    let stage = env.stage.name.as_str();
    if let Some(d) = chaos.straggle_for(stage, phase, copy.task, copy.attempt, copy.speculative) {
        std::thread::sleep(d);
    }
}

/// One attempt of one task: inject the `fault` the chaos plan scheduled
/// for this coordinate (panic / transient / delay), run `body` under
/// `catch_unwind`, and classify the outcome. `body` is told whether the
/// data it reads is scheduled to be bad.
fn attempt_once<T>(
    env: &StageEnv<'_>,
    phase: TaskPhase,
    task: usize,
    attempt: usize,
    fault: Option<FaultKind>,
    body: impl FnOnce(bool) -> std::result::Result<T, TaskError>,
) -> Outcome<T> {
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
            Some(FaultKind::Delay) => std::thread::sleep(env.config.chaos.delay()),
            _ => {}
        }
        body(fault == Some(FaultKind::Corrupt))
    }))
    .unwrap_or_else(|payload| {
        Err(TaskError::Panicked {
            payload: pool::payload_str(payload.as_ref()).to_string(),
        })
    })
    .map_err(|error| Failure { phase, error })
}

/// The map task body: decode `input`'s `extent`, apply the stage mapper,
/// partition and seal.
pub(crate) fn execute_map(
    env: &StageEnv<'_>,
    kill: KillSelf,
    copy: &TaskCopy,
    input: usize,
    extent: usize,
) -> Outcome<MapTaskOut> {
    let (task, attempt) = (copy.task, copy.attempt);
    straggle(env, TaskPhase::Map, copy);
    let fault = scheduled_fault(env, kill, TaskPhase::Map, task, attempt);
    attempt_once(env, TaskPhase::Map, task, attempt, fault, |corrupt| {
        cluster::run_map_task(env, input, extent, attempt, corrupt)
    })
}

/// The reduce task body over the partition's shuffled `slot`: verify every
/// chunk against its integrity frames and decode them — one partition's
/// worth of decoded data at a time, which is what keeps budgeted runs
/// out-of-core — then run the reducer, which takes the batches by value (a
/// retry decodes the slot again, so only a failed attempt pays for a
/// second copy). `verified` is called between the two, so a host that may
/// die without a word can say which attempt its death is charged to. The
/// shuffle sub-phase is evaluated at the recorded shuffle attempt: a
/// reduce retry replays the same (clean) fetch rather than drawing fresh
/// faults.
pub(crate) fn execute_reduce(
    env: &StageEnv<'_>,
    kill: KillSelf,
    copy: &TaskCopy,
    slot: &ShuffleSlot,
    verified: &dyn Fn(),
) -> Outcome<ReduceOut> {
    let (p, attempt, shuffle_attempt) = (copy.task, copy.attempt, copy.shuffle_attempt);
    let fault = scheduled_fault(env, kill, TaskPhase::Shuffle, p, shuffle_attempt);
    let fetched = attempt_once(env, TaskPhase::Shuffle, p, shuffle_attempt, fault, |_| {
        match cluster::verify_slot(slot) {
            Some(what) => Err(TaskError::Corrupt { what }),
            None => cluster::fetch_inputs(slot, env.mapped_schemas),
        }
    })?;
    verified();
    straggle(env, TaskPhase::Reduce, copy);
    let fault = scheduled_fault(env, kill, TaskPhase::Reduce, p, attempt);
    attempt_once(env, TaskPhase::Reduce, p, attempt, fault, |_| {
        cluster::run_reduce_task(env, p, attempt, fetched)
    })
}

/// Something that runs one copy to an outcome, blocking. `lost` says the
/// copy's task has meanwhile been settled by another copy, for a worker
/// that can stop early.
pub(crate) trait Worker: Send {
    /// Whether a copy this worker runs can be reclaimed by killing it.
    fn preemptible(&self) -> bool;
    /// Whether this worker can take another copy.
    fn alive(&mut self) -> bool;
    fn run_map(
        &mut self,
        copy: &TaskCopy,
        input: usize,
        extent: usize,
        lost: &dyn Fn() -> bool,
    ) -> Outcome<MapTaskOut>;
    fn run_reduce(
        &mut self,
        copy: &TaskCopy,
        slot: &Mutex<ShuffleSlot>,
        lost: &dyn Fn() -> bool,
    ) -> Outcome<ReduceOut>;
}

/// A pool thread running task bodies in place, against the coordinator's
/// own inputs and shuffle slots. It cannot be killed, so "kill" is a
/// transient fault and a timeout is applied to its result after the fact.
pub(crate) struct InPlace<'e>(pub &'e StageEnv<'e>);

impl Worker for InPlace<'_> {
    fn preemptible(&self) -> bool {
        false
    }

    fn alive(&mut self) -> bool {
        true
    }

    fn run_map(
        &mut self,
        copy: &TaskCopy,
        input: usize,
        extent: usize,
        _: &dyn Fn() -> bool,
    ) -> Outcome<MapTaskOut> {
        execute_map(self.0, None, copy, input, extent)
    }

    fn run_reduce(
        &mut self,
        copy: &TaskCopy,
        slot: &Mutex<ShuffleSlot>,
        _: &dyn Fn() -> bool,
    ) -> Outcome<ReduceOut> {
        execute_reduce(self.0, None, copy, &lock_slot(slot), &|| {})
    }
}

/// Drive one phase to completion: every worker, of either kind, pulls
/// copies from the ledger on a pool thread of its own until none is left.
pub(crate) fn run_phase<T: Send, W: Worker>(
    pool: &WorkerPool,
    ledger: &Ledger<'_, T>,
    workers: &[Mutex<W>],
    run: impl Fn(&mut W, &TaskCopy, &dyn Fn() -> bool) -> Outcome<T> + Sync,
) {
    // A worker that can be killed may lose its process mid-phase, and the
    // others absorb its share — so all of them pull, however few tasks
    // there are. One that cannot die needs no more drivers than tasks.
    let killable = workers.first().is_some_and(|w| lock_slot(w).preemptible());
    let drivers = if killable {
        workers.len()
    } else {
        workers.len().min(ledger.len())
    };
    pool.run(drivers, |w| {
        let mut worker = lock_slot(&workers[w]);
        while worker.alive() {
            let Some(copy) = ledger.next(worker.preemptible()) else {
                break;
            };
            let outcome = run(&mut worker, &copy, &|| ledger.settled(&copy));
            ledger.settle(copy, outcome);
        }
    });
}
