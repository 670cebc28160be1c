//! Seeded, deterministic chaos engine and fault-tolerance policy types.
//!
//! The paper's robustness claim (§III-C.1) is that TiMR is *repeatable*:
//! restarting any failed task reproduces byte-identical output, so the
//! M-R platform's restart-on-failure strategy is sound. This module
//! supplies the machinery to *prove* that claim under adversarial
//! schedules rather than a single scripted kill:
//!
//! - [`ChaosPlan`] decides, as a **pure function** of
//!   `(seed, stage, phase, task, attempt)`, whether a task attempt is hit
//!   by a panic, a transient error, data corruption, or an artificial
//!   delay. Because the decision is derived by hashing those coordinates
//!   into a seeded PRNG — never by sampling shared mutable RNG state —
//!   the same plan injects the same faults regardless of thread count or
//!   scheduling order, which is what makes chaos runs comparable to clean
//!   runs byte-for-byte.
//! - [`RetryPolicy`] is the cluster's answer: bounded attempts with
//!   deterministic, jitter-free exponential backoff.
//!
//! The integrity layer is the extent image itself: every image carries
//! per-column FxHash frames and a framed footer ([`relation::extent`]), so
//! corruption a plan injects surfaces as a typed error on decode instead of
//! silently wrong output.

use crate::error::TaskPhase;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use relation::hash::stable_hash;
use std::time::Duration;

/// Prefix of every panic payload the chaos engine injects. Used by the
/// quiet panic hook to suppress backtrace spam for *injected* panics only.
pub const INJECTED_PANIC_MARKER: &str = "chaos-injected panic";

/// The kinds of fault a [`ChaosPlan`] can inject into one task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Panic inside the task body (exercises `catch_unwind` containment).
    Panic,
    /// Fail the attempt with a transient task error (a simulated killed
    /// worker / flaky I/O); this is also how explicit kills surface.
    Transient,
    /// Corrupt the data the attempt reads, so the integrity frame must
    /// detect it and force recovery.
    Corrupt,
    /// Sleep before doing the work (a straggler); not a failure.
    Delay,
    /// SIGKILL the worker *process* executing the task. On the
    /// multi-process backend this is a real, uncatchable process death
    /// (the worker consults the plan for its own coordinate and kills
    /// itself, so the schedule stays a pure function of the coordinates);
    /// the in-process thread backend has no process to kill and degrades
    /// it to [`FaultKind::Transient`].
    KillProcess,
}

/// A seeded, deterministic fault-injection schedule.
///
/// Two ingredient lists compose:
/// - **explicit faults** ([`ChaosPlan::kill`], [`ChaosPlan::corrupt`])
///   target one `(stage, phase, task)` coordinate on its first attempt —
///   the scripted-failure style the old `FailurePlan` offered for reduce
///   tasks only, now phase-general;
/// - **seeded faults** (the `*_prob` knobs) hit every task attempt
///   independently with the configured probabilities, decided by hashing
///   the attempt's coordinates into the seed.
///
/// [`ChaosPlan::with_fault_cap`] stops seeded injection from attempt
/// `cap` onward, guaranteeing that a run with `cap < max_attempts` always
/// succeeds — the repeatability property tests rely on this.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    seed: u64,
    panic_prob: f64,
    transient_prob: f64,
    corrupt_prob: f64,
    delay_prob: f64,
    process_kill_prob: f64,
    delay: Duration,
    fault_cap: Option<usize>,
    kills: Vec<(String, TaskPhase, usize)>,
    corrupts: Vec<(String, TaskPhase, usize)>,
    process_kills: Vec<(String, TaskPhase, usize)>,
    wire_corrupts: Vec<(String, TaskPhase, usize)>,
    wire_delays: Vec<(String, TaskPhase, usize, Duration)>,
    stragglers: Vec<(String, TaskPhase, usize, Duration)>,
}

impl ChaosPlan {
    /// No faults at all (the default).
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// An empty plan carrying `seed` for the probabilistic knobs.
    pub fn seeded(seed: u64) -> Self {
        ChaosPlan {
            seed,
            ..ChaosPlan::default()
        }
    }

    /// Inject a panic into each task attempt with probability `p`.
    pub fn with_panics(mut self, p: f64) -> Self {
        self.panic_prob = p;
        self
    }

    /// Fail each task attempt with a transient error with probability `p`.
    pub fn with_transients(mut self, p: f64) -> Self {
        self.transient_prob = p;
        self
    }

    /// Corrupt the data read by each task attempt with probability `p`.
    /// (Reduce attempts downgrade this to a transient fault — a reducer
    /// has no input read of its own to corrupt; shuffle fetch covers it.)
    pub fn with_corruption(mut self, p: f64) -> Self {
        self.corrupt_prob = p;
        self
    }

    /// Delay each task attempt by `delay` with probability `p`.
    pub fn with_delays(mut self, p: f64, delay: Duration) -> Self {
        self.delay_prob = p;
        self.delay = delay;
        self
    }

    /// Stop seeded injection from attempt `cap` onward, so a task can
    /// always succeed within `cap + 1` attempts. Explicit kills/corrupts
    /// are unaffected (they only ever fire on attempt 0).
    pub fn with_fault_cap(mut self, cap: usize) -> Self {
        self.fault_cap = Some(cap);
        self
    }

    /// Kill the first attempt of one specific task with a transient
    /// error. Unlike the old `FailurePlan`, any phase can be targeted.
    pub fn kill(mut self, stage: impl Into<String>, phase: TaskPhase, task: usize) -> Self {
        self.kills.push((stage.into(), phase, task));
        self
    }

    /// Corrupt the data read by the first attempt of one specific task.
    pub fn corrupt(mut self, stage: impl Into<String>, phase: TaskPhase, task: usize) -> Self {
        self.corrupts.push((stage.into(), phase, task));
        self
    }

    /// SIGKILL the worker process running the first attempt of one
    /// specific task ([`FaultKind::KillProcess`]).
    pub fn kill_process(mut self, stage: impl Into<String>, phase: TaskPhase, task: usize) -> Self {
        self.process_kills.push((stage.into(), phase, task));
        self
    }

    /// SIGKILL the worker process of each task attempt with probability
    /// `p` (multi-process backend; degrades to a transient kill on the
    /// thread backend).
    pub fn with_process_kills(mut self, p: f64) -> Self {
        self.process_kill_prob = p;
        self
    }

    /// Flip one byte in the result frame a worker sends for the first
    /// attempt of one specific task, *after* the frame checksum is
    /// computed — the receiver's FxHash frame verification must catch it
    /// and re-execute the task. Only meaningful on the multi-process
    /// backend (the thread backend has no wire); ignored elsewhere.
    pub fn corrupt_wire(mut self, stage: impl Into<String>, phase: TaskPhase, task: usize) -> Self {
        self.wire_corrupts.push((stage.into(), phase, task));
        self
    }

    /// Delay the result frame a worker sends for one specific task by
    /// `delay` (socket-level latency injection; never a failure).
    pub fn delay_wire(
        mut self,
        stage: impl Into<String>,
        phase: TaskPhase,
        task: usize,
        delay: Duration,
    ) -> Self {
        self.wire_delays.push((stage.into(), phase, task, delay));
        self
    }

    /// Make the *primary* execution of one specific task a straggler: its
    /// first non-speculative attempt sleeps `delay` before computing, so
    /// the speculation machinery has a deterministic straggler to race. A
    /// speculative duplicate of the same task skips the sleep (that is
    /// what lets it win). Delays never change output bytes, so this knob
    /// preserves byte-determinism by construction.
    pub fn straggle(
        mut self,
        stage: impl Into<String>,
        phase: TaskPhase,
        task: usize,
        delay: Duration,
    ) -> Self {
        self.stragglers.push((stage.into(), phase, task, delay));
        self
    }

    /// Whether this plan can inject nothing at all.
    pub fn is_clean(&self) -> bool {
        self.kills.is_empty()
            && self.corrupts.is_empty()
            && self.process_kills.is_empty()
            && self.wire_corrupts.is_empty()
            && self.wire_delays.is_empty()
            && self.stragglers.is_empty()
            && self.panic_prob <= 0.0
            && self.transient_prob <= 0.0
            && self.corrupt_prob <= 0.0
            && self.delay_prob <= 0.0
            && self.process_kill_prob <= 0.0
    }

    /// Whether this plan can inject panics (decides whether the quiet
    /// panic hook is worth installing).
    pub fn injects_panics(&self) -> bool {
        self.panic_prob > 0.0
    }

    /// The artificial delay used by [`FaultKind::Delay`] faults.
    pub fn delay(&self) -> Duration {
        self.delay
    }

    /// The fault (if any) scheduled for this task attempt.
    ///
    /// Pure in `(self, stage, phase, task, attempt)`: the PRNG is seeded
    /// from a stable hash of those coordinates, so concurrent tasks never
    /// perturb each other's draws.
    pub fn fault_for(
        &self,
        stage: &str,
        phase: TaskPhase,
        task: usize,
        attempt: usize,
    ) -> Option<FaultKind> {
        let hits = |list: &[(String, TaskPhase, usize)]| {
            attempt == 0
                && list
                    .iter()
                    .any(|(s, ph, t)| s == stage && *ph == phase && *t == task)
        };
        if hits(&self.kills) {
            return Some(FaultKind::Transient);
        }
        if hits(&self.corrupts) {
            return Some(self.corrupt_kind(phase));
        }
        if hits(&self.process_kills) {
            return Some(FaultKind::KillProcess);
        }
        let total = self.panic_prob
            + self.transient_prob
            + self.corrupt_prob
            + self.delay_prob
            + self.process_kill_prob;
        if total <= 0.0 {
            return None;
        }
        if self.fault_cap.is_some_and(|cap| attempt >= cap) {
            return None;
        }
        let coords = stable_hash(&(stage, phase, task as u64, attempt as u64));
        let mut rng = SmallRng::seed_from_u64(self.seed ^ coords);
        let roll: f64 = rng.gen();
        let mut edge = self.panic_prob;
        if roll < edge {
            return Some(FaultKind::Panic);
        }
        edge += self.transient_prob;
        if roll < edge {
            return Some(FaultKind::Transient);
        }
        edge += self.corrupt_prob;
        if roll < edge {
            return Some(self.corrupt_kind(phase));
        }
        edge += self.delay_prob;
        if roll < edge {
            return Some(FaultKind::Delay);
        }
        edge += self.process_kill_prob;
        if roll < edge {
            return Some(FaultKind::KillProcess);
        }
        None
    }

    /// Whether the result frame of this task attempt should be corrupted
    /// in flight (first attempt only, like the other explicit faults).
    pub fn wire_corrupt_for(
        &self,
        stage: &str,
        phase: TaskPhase,
        task: usize,
        attempt: usize,
    ) -> bool {
        attempt == 0
            && self
                .wire_corrupts
                .iter()
                .any(|(s, ph, t)| s == stage && *ph == phase && *t == task)
    }

    /// The socket-level delay (if any) scheduled before this task
    /// attempt's result frame is sent (first attempt only).
    pub fn wire_delay_for(
        &self,
        stage: &str,
        phase: TaskPhase,
        task: usize,
        attempt: usize,
    ) -> Option<Duration> {
        if attempt != 0 {
            return None;
        }
        self.wire_delays
            .iter()
            .find(|(s, ph, t, _)| s == stage && *ph == phase && *t == task)
            .map(|(_, _, _, d)| *d)
    }

    /// The straggler sleep (if any) scheduled for the primary execution
    /// of this task. Applies to the first non-speculative attempt only;
    /// the caller passes `speculative` so duplicates skip it.
    pub fn straggle_for(
        &self,
        stage: &str,
        phase: TaskPhase,
        task: usize,
        attempt: usize,
        speculative: bool,
    ) -> Option<Duration> {
        if attempt != 0 || speculative {
            return None;
        }
        self.stragglers
            .iter()
            .find(|(s, ph, t, _)| s == stage && *ph == phase && *t == task)
            .map(|(_, _, _, d)| *d)
    }

    /// Reduce attempts have no data read of their own to corrupt (shuffle
    /// fetch owns the partition read), so corruption degrades to a
    /// transient kill there.
    fn corrupt_kind(&self, phase: TaskPhase) -> FaultKind {
        if phase == TaskPhase::Reduce {
            FaultKind::Transient
        } else {
            FaultKind::Corrupt
        }
    }
}

/// Bounded retries with deterministic, jitter-free exponential backoff:
/// the pause after failed attempt `k` (0-based) is
/// `min(backoff_base << k, backoff_cap)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per task (including the first); clamped to ≥ 1.
    pub max_attempts: usize,
    /// Pause after the first failed attempt; zero disables backoff.
    pub backoff_base: Duration,
    /// Upper bound on any single pause.
    pub backoff_cap: Duration,
    /// Per-attempt wall-clock deadline. An attempt that exceeds it fails
    /// with the retryable `TaskError::TimedOut` and is re-executed like
    /// any other fault, escalating to `TaskExhausted` when attempts run
    /// out. The thread backend enforces it post-hoc (a late result is
    /// discarded — attempts cannot be preempted in-process); the
    /// multi-process backend enforces it preemptively by SIGKILLing the
    /// over-deadline worker. `None` (the default) disables the deadline.
    pub attempt_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(250),
            attempt_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` and no backoff (tests, benchmarks).
    pub fn no_backoff(max_attempts: usize) -> Self {
        RetryPolicy {
            max_attempts,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            attempt_timeout: None,
        }
    }

    /// This policy with a per-attempt deadline.
    pub fn with_attempt_timeout(mut self, timeout: Duration) -> Self {
        self.attempt_timeout = Some(timeout);
        self
    }

    /// The pause after 0-based failed attempt `k`.
    pub fn backoff_after(&self, failed_attempt: usize) -> Duration {
        if self.backoff_base.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32 << failed_attempt.min(16) as u32;
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

/// Install (once per process) a chained panic hook that swallows panics
/// whose payload starts with [`INJECTED_PANIC_MARKER`], delegating every
/// other panic to the previously installed hook. Injected panics are
/// *expected* — they are caught and retried — so printing a message and
/// backtrace for each would bury real diagnostics in noise.
pub fn install_quiet_injected_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with(INJECTED_PANIC_MARKER));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_never_faults() {
        let plan = ChaosPlan::none();
        assert!(plan.is_clean());
        for phase in [TaskPhase::Map, TaskPhase::Shuffle, TaskPhase::Reduce] {
            for task in 0..16 {
                for attempt in 0..4 {
                    assert_eq!(plan.fault_for("s", phase, task, attempt), None);
                }
            }
        }
    }

    #[test]
    fn fault_decisions_are_pure_functions_of_coordinates() {
        let plan = ChaosPlan::seeded(42)
            .with_panics(0.2)
            .with_transients(0.2)
            .with_corruption(0.2)
            .with_delays(0.1, Duration::from_millis(1));
        for phase in [TaskPhase::Map, TaskPhase::Shuffle, TaskPhase::Reduce] {
            for task in 0..32 {
                for attempt in 0..3 {
                    let a = plan.fault_for("stage", phase, task, attempt);
                    let b = plan.fault_for("stage", phase, task, attempt);
                    assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn seed_and_coordinates_change_the_schedule() {
        let plan = |seed| ChaosPlan::seeded(seed).with_panics(0.5);
        let schedule = |seed| -> Vec<Option<FaultKind>> {
            (0..64)
                .map(|t| plan(seed).fault_for("s", TaskPhase::Map, t, 0))
                .collect()
        };
        assert_ne!(schedule(1), schedule(2), "different seeds should differ");
        let faults = schedule(1).iter().filter(|f| f.is_some()).count();
        assert!(
            (16..=48).contains(&faults),
            "p=0.5 over 64 draws should land near half, got {faults}"
        );
    }

    #[test]
    fn explicit_kills_hit_any_phase_on_first_attempt_only() {
        let plan = ChaosPlan::none()
            .kill("s", TaskPhase::Map, 3)
            .kill("s", TaskPhase::Shuffle, 1);
        assert_eq!(
            plan.fault_for("s", TaskPhase::Map, 3, 0),
            Some(FaultKind::Transient)
        );
        assert_eq!(plan.fault_for("s", TaskPhase::Map, 3, 1), None);
        assert_eq!(
            plan.fault_for("s", TaskPhase::Shuffle, 1, 0),
            Some(FaultKind::Transient)
        );
        assert_eq!(plan.fault_for("s", TaskPhase::Reduce, 1, 0), None);
        assert_eq!(plan.fault_for("other", TaskPhase::Map, 3, 0), None);
    }

    #[test]
    fn explicit_corruption_downgrades_to_transient_in_reduce() {
        let plan = ChaosPlan::none()
            .corrupt("s", TaskPhase::Shuffle, 0)
            .corrupt("s", TaskPhase::Reduce, 1);
        assert_eq!(
            plan.fault_for("s", TaskPhase::Shuffle, 0, 0),
            Some(FaultKind::Corrupt)
        );
        assert_eq!(
            plan.fault_for("s", TaskPhase::Reduce, 1, 0),
            Some(FaultKind::Transient)
        );
    }

    #[test]
    fn fault_cap_silences_seeded_faults_but_not_kills() {
        let plan = ChaosPlan::seeded(7)
            .with_transients(1.0)
            .with_fault_cap(2)
            .kill("s", TaskPhase::Reduce, 0);
        assert!(plan.fault_for("s", TaskPhase::Map, 0, 0).is_some());
        assert!(plan.fault_for("s", TaskPhase::Map, 0, 1).is_some());
        assert_eq!(plan.fault_for("s", TaskPhase::Map, 0, 2), None);
        assert_eq!(plan.fault_for("s", TaskPhase::Map, 0, 3), None);
        assert_eq!(
            plan.fault_for("s", TaskPhase::Reduce, 0, 0),
            Some(FaultKind::Transient)
        );
    }

    #[test]
    fn process_kills_hit_first_attempt_and_any_phase() {
        let plan = ChaosPlan::none().kill_process("s", TaskPhase::Map, 2);
        assert!(!plan.is_clean());
        assert_eq!(
            plan.fault_for("s", TaskPhase::Map, 2, 0),
            Some(FaultKind::KillProcess)
        );
        assert_eq!(plan.fault_for("s", TaskPhase::Map, 2, 1), None);
        assert_eq!(plan.fault_for("s", TaskPhase::Reduce, 2, 0), None);
    }

    #[test]
    fn wire_and_straggler_knobs_target_primary_first_attempts() {
        let d = Duration::from_millis(5);
        let plan = ChaosPlan::none()
            .corrupt_wire("s", TaskPhase::Reduce, 1)
            .delay_wire("s", TaskPhase::Map, 0, d)
            .straggle("s", TaskPhase::Reduce, 3, d);
        assert!(!plan.is_clean());
        assert!(plan.wire_corrupt_for("s", TaskPhase::Reduce, 1, 0));
        assert!(!plan.wire_corrupt_for("s", TaskPhase::Reduce, 1, 1));
        assert!(!plan.wire_corrupt_for("s", TaskPhase::Map, 1, 0));
        assert_eq!(plan.wire_delay_for("s", TaskPhase::Map, 0, 0), Some(d));
        assert_eq!(plan.wire_delay_for("s", TaskPhase::Map, 0, 1), None);
        assert_eq!(
            plan.straggle_for("s", TaskPhase::Reduce, 3, 0, false),
            Some(d)
        );
        assert_eq!(plan.straggle_for("s", TaskPhase::Reduce, 3, 0, true), None);
        assert_eq!(plan.straggle_for("s", TaskPhase::Reduce, 3, 1, false), None);
        // The wire/straggler knobs stay out of the fault cascade — they
        // shape the transport, not the task outcome.
        assert_eq!(plan.fault_for("s", TaskPhase::Reduce, 1, 0), None);
    }

    #[test]
    fn attempt_timeout_rides_along_on_retry_policy() {
        let policy = RetryPolicy::no_backoff(3).with_attempt_timeout(Duration::from_millis(40));
        assert_eq!(policy.attempt_timeout, Some(Duration::from_millis(40)));
        assert_eq!(RetryPolicy::default().attempt_timeout, None);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 8,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(55),
            attempt_timeout: None,
        };
        assert_eq!(policy.backoff_after(0), Duration::from_millis(10));
        assert_eq!(policy.backoff_after(1), Duration::from_millis(20));
        assert_eq!(policy.backoff_after(2), Duration::from_millis(40));
        assert_eq!(policy.backoff_after(3), Duration::from_millis(55));
        assert_eq!(policy.backoff_after(60), Duration::from_millis(55));
        assert_eq!(RetryPolicy::no_backoff(3).backoff_after(0), Duration::ZERO);
    }
}
