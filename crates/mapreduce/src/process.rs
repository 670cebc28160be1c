//! The multi-process execution backend: real worker OS processes over
//! Unix-domain sockets.
//!
//! `ProcessBackend::begin` forks one child per worker *after* the stage
//! environment is fully built, so workers inherit the stage, its input
//! datasets, and the compiled partitioners by address-space copy — only
//! task descriptors and sealed extent images cross the socket (framed and
//! checksummed by `crate::transport`), verbatim: what a worker seals is
//! what the parent places or publishes. The parent runs an event-driven
//! scheduler with:
//!
//! - **heartbeats** — each worker beats from a dedicated thread; a worker
//!   silent past `ClusterConfig::heartbeat_deadline` is declared dead,
//!   SIGKILLed, reaped, and its in-flight task re-queued;
//! - **attempt timeouts** — with `RetryPolicy::attempt_timeout` set, a
//!   copy running past the deadline is killed *preemptively* (the thread
//!   backend can only discard the late result post hoc);
//! - **speculative re-execution** — a task straggling past the
//!   `SpeculationPolicy` threshold gets a duplicate on an idle worker;
//!   first valid result wins, and because tasks are pure both copies
//!   would produce identical bytes, so the race cannot change output;
//! - **graceful degradation** — when a worker dies its partitions are
//!   absorbed by the survivors; only when *no* worker remains does the
//!   scheduler spend its respawn budget on a replacement.
//!
//! Chaos parity: workers consult the same pure `ChaosPlan` at the same
//! `(stage, phase, task, attempt)` coordinates as thread workers, so a
//! chaos run's fault schedule — and therefore its retry/corruption
//! tallies and its output bytes — match the thread backend. A
//! `FaultKind::KillProcess` here is a *real* SIGKILL: the worker looks up
//! its own fault and kills itself, the parent sees the socket close, and
//! recovery is genuine dead-worker takeover. Workers report a `Progress`
//! frame after the shuffle sub-phase verifies so a death during reduce is
//! charged to the reduce attempt, not the shuffle attempt.

#![cfg(unix)]

use crate::backend::{attempt_once, Backend, FaultCounters, ReduceOut, StageEnv, StageExec};
use crate::chaos::{self, ExtentFrame, FaultKind};
use crate::cluster::{
    corrupt_slot, fetch_inputs, lock_slot, run_map_task, run_reduce_task, verify_slot, MapTaskOut,
    ShuffleChunk, ShuffleSlot,
};
use crate::dfs::StoredExtent;
use crate::error::{MrError, Result, TaskError, TaskPhase};
use crate::transport::{
    encode_frame, payload_offset, Frame, FrameKind, PayloadReader, PayloadWriter, Received,
    Transport, UdsTransport,
};
use relation::{ColumnBatch, RelationError, Row};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Minimal libc surface for process control; declared here rather than
/// pulling in a binding crate (the workspace vendors no libc).
mod sys {
    pub const SIGKILL: i32 = 9;
    pub const WNOHANG: i32 = 1;
    extern "C" {
        pub fn fork() -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
        pub fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
        pub fn _exit(code: i32) -> !;
        pub fn getpid() -> i32;
    }
}

fn proto_err(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

// ---------------------------------------------------------------------------
// Shared payload codecs (both sides of the socket).
// ---------------------------------------------------------------------------

/// Serialize one sink of a reduce result: the stored form the worker
/// sealed, which the parent publishes as is.
fn write_sink(w: &mut PayloadWriter, stored: &StoredExtent) {
    w.u64(stored.frame.rows)
        .u64(stored.frame.checksum)
        .bytes(&stored.bytes);
}

/// Decode one sink: the image is decoded once, for the dataset's working
/// copy of the rows, and kept verbatim as its stored form.
fn read_sink(r: &mut PayloadReader<'_>) -> io::Result<(Vec<Row>, StoredExtent)> {
    let frame = ExtentFrame {
        rows: r.u64()?,
        checksum: r.u64()?,
    };
    let bytes = r.bytes()?;
    let batch = ColumnBatch::from_extent_bytes(bytes).map_err(proto_err)?;
    let (rows, width) = (batch.to_rows(), batch.width());
    if rows.len() as u64 != frame.rows {
        return Err(proto_err(format!(
            "sink decodes to {} row(s), its frame says {}",
            rows.len(),
            frame.rows
        )));
    }
    let bytes = Arc::new(bytes.to_vec());
    let stored = StoredExtent {
        bytes,
        frame,
        width,
    };
    Ok((rows, stored))
}

fn write_task_error(w: &mut PayloadWriter, e: &TaskError) {
    match e {
        TaskError::Panicked { payload } => {
            w.u8(0).str(payload);
        }
        TaskError::Transient { message } => {
            w.u8(1).str(message);
        }
        TaskError::Corrupt { what } => {
            w.u8(2).str(what);
        }
        TaskError::TimedOut { elapsed } => {
            w.u8(3).u64(elapsed.as_nanos() as u64);
        }
        TaskError::Fatal(inner) => {
            w.u8(4);
            // Preserve the fatal variants stage execution can actually
            // produce; anything else degrades to a backend error string.
            match inner.as_ref() {
                MrError::BadStage(m) => {
                    w.u8(0).str(m);
                }
                MrError::Reducer {
                    stage,
                    partition,
                    message,
                } => {
                    w.u8(1).str(stage).u64(*partition as u64).str(message);
                }
                MrError::Corrupt { what } => {
                    w.u8(2).str(what);
                }
                MrError::IllTyped {
                    site,
                    cause:
                        RelationError::TypeMismatch {
                            column,
                            expected,
                            actual,
                        },
                } => {
                    w.u8(4).str(site).str(column).str(expected).str(actual);
                }
                MrError::IllTyped {
                    site,
                    cause: RelationError::ArityMismatch { expected, actual },
                } => {
                    w.u8(5).str(site).u64(*expected as u64).u64(*actual as u64);
                }
                other => {
                    w.u8(3).str(&other.to_string());
                }
            }
        }
    }
}

fn read_task_error(r: &mut PayloadReader<'_>) -> io::Result<TaskError> {
    Ok(match r.u8()? {
        0 => TaskError::Panicked {
            payload: r.str()?.to_string(),
        },
        1 => TaskError::Transient {
            message: r.str()?.to_string(),
        },
        2 => TaskError::Corrupt {
            what: r.str()?.to_string(),
        },
        3 => TaskError::TimedOut {
            elapsed: Duration::from_nanos(r.u64()?),
        },
        4 => {
            let inner = match r.u8()? {
                0 => MrError::BadStage(r.str()?.to_string()),
                1 => MrError::Reducer {
                    stage: r.str()?.to_string(),
                    partition: r.u64()? as usize,
                    message: r.str()?.to_string(),
                },
                2 => MrError::Corrupt {
                    what: r.str()?.to_string(),
                },
                3 => MrError::Backend {
                    message: r.str()?.to_string(),
                },
                4 => MrError::IllTyped {
                    site: r.str()?.to_string(),
                    cause: RelationError::TypeMismatch {
                        column: r.str()?.to_string(),
                        expected: r.str()?.to_string(),
                        actual: r.str()?.to_string(),
                    },
                },
                5 => MrError::IllTyped {
                    site: r.str()?.to_string(),
                    cause: RelationError::ArityMismatch {
                        expected: r.u64()? as usize,
                        actual: r.u64()? as usize,
                    },
                },
                other => return Err(proto_err(format!("unknown fatal error tag {other}"))),
            };
            TaskError::Fatal(Box::new(inner))
        }
        other => return Err(proto_err(format!("unknown task error kind {other}"))),
    })
}

/// Serialize one shuffle slot for the worker: every chunk ships as its
/// image, verbatim (spilled chunks are read back from disk), so the worker
/// never touches the parent's spill files.
fn write_slot(w: &mut PayloadWriter, slot: &ShuffleSlot) -> std::result::Result<(), TaskError> {
    w.u64(slot.inputs.len() as u64);
    for chunks in &slot.inputs {
        w.u64(chunks.len() as u64);
        for chunk in chunks {
            match chunk {
                ShuffleChunk::Mem(bytes) => {
                    w.bytes(bytes);
                }
                ShuffleChunk::Spilled { path, .. } => {
                    let data = std::fs::read(path).map_err(|e| TaskError::Transient {
                        message: format!("spill file unreadable at dispatch: {e}"),
                    })?;
                    w.bytes(&data);
                }
            }
        }
    }
    Ok(())
}

/// Counts come off the wire: grow as chunks actually arrive rather than
/// allocating for a claimed length.
fn read_slot(r: &mut PayloadReader<'_>) -> io::Result<ShuffleSlot> {
    let mut inputs = Vec::new();
    for _ in 0..r.u64()? {
        let mut chunks = Vec::new();
        for _ in 0..r.u64()? {
            chunks.push(ShuffleChunk::Mem(r.bytes()?.to_vec()));
        }
        inputs.push(chunks);
    }
    Ok(ShuffleSlot { inputs })
}

// ---------------------------------------------------------------------------
// Worker (child process) side.
// ---------------------------------------------------------------------------

/// Consult the chaos plan for this attempt. `KillProcess` is executed on
/// the spot — the worker SIGKILLs itself, so the death is real and
/// uncatchable, yet scheduled purely by the plan's coordinates.
fn eval_fault(
    env: &StageEnv<'_>,
    phase: TaskPhase,
    task: usize,
    attempt: usize,
) -> Option<FaultKind> {
    let fault = env
        .config
        .chaos
        .fault_for(&env.stage.name, phase, task, attempt);
    if fault == Some(FaultKind::KillProcess) {
        unsafe {
            sys::kill(sys::getpid(), sys::SIGKILL);
        }
        // SIGKILL cannot be handled; this backstop never actually runs.
        loop {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    fault
}

/// Send one task result, applying any scheduled socket-level chaos: a
/// wire delay sleeps before sending; wire corruption flips one payload
/// byte *after* the frame checksum was computed, so the parent's frame
/// verification must catch it.
fn send_result(
    env: &StageEnv<'_>,
    transport: &UdsTransport,
    phase: TaskPhase,
    task: usize,
    attempt: usize,
    payload: Vec<u8>,
) -> io::Result<()> {
    let chaos = &env.config.chaos;
    let stage = env.stage.name.as_str();
    if let Some(d) = chaos.wire_delay_for(stage, phase, task, attempt) {
        std::thread::sleep(d);
    }
    let frame = Frame {
        kind: FrameKind::TaskResult,
        payload,
    };
    if chaos.wire_corrupt_for(stage, phase, task, attempt) {
        let mut bytes = encode_frame(&frame);
        let mid = payload_offset() + frame.payload.len() / 2;
        if mid < bytes.len() {
            bytes[mid] ^= 0xFF;
        }
        transport.send_raw(&bytes)
    } else {
        transport.send(&frame)
    }
}

/// Execute one task descriptor. `Err` means the socket is dead (the
/// parent is gone or killed us logically); the caller exits.
fn handle_task(env: &StageEnv<'_>, transport: &UdsTransport, payload: &[u8]) -> io::Result<()> {
    let stage = env.stage.name.as_str();
    let mut r = PayloadReader::new(payload);
    let seq = r.u64()?;
    match r.u8()? {
        0 => {
            let t = r.u64()? as usize;
            let i = r.u64()? as usize;
            let e = r.u64()? as usize;
            let attempt = r.u64()? as usize;
            let speculative = r.u8()? != 0;
            if let Some(d) =
                env.config
                    .chaos
                    .straggle_for(stage, TaskPhase::Map, t, attempt, speculative)
            {
                std::thread::sleep(d);
            }
            let fault = eval_fault(env, TaskPhase::Map, t, attempt);
            let outcome = attempt_once(env, TaskPhase::Map, t, attempt, fault, |corrupt| {
                run_map_task(env, i, e, attempt, corrupt)
            });
            let mut w = PayloadWriter::new();
            w.u64(seq).u8(0);
            match outcome {
                Ok(out) => {
                    w.u8(0)
                        .u64(out.rows_in)
                        .u64(out.rows_out)
                        .u64(out.bytes)
                        .u64(out.bytes_saved)
                        .u64(out.seal_time.as_nanos() as u64);
                    for sealed in &out.chunks {
                        w.u64(sealed.len() as u64);
                        for image in sealed {
                            w.bytes(image);
                        }
                    }
                }
                Err(e) => {
                    w.u8(1);
                    write_task_error(&mut w, &e);
                }
            }
            send_result(env, transport, TaskPhase::Map, t, attempt, w.finish())
        }
        1 => {
            let p = r.u64()? as usize;
            let shuffle_attempt = r.u64()? as usize;
            let reduce_attempt = r.u64()? as usize;
            let speculative = r.u8()? != 0;
            let mut slot = read_slot(&mut r)?;
            // Shuffle sub-phase: re-evaluated at the recorded attempt, so a
            // reduce retry deterministically replays the same (clean)
            // shuffle rather than drawing fresh faults.
            let fault = eval_fault(env, TaskPhase::Shuffle, p, shuffle_attempt);
            let fetch = |corrupt| {
                if corrupt {
                    corrupt_slot(&mut slot);
                }
                if let Some(why) = verify_slot(&slot) {
                    // No rebuild here: the parent's stored slot is the
                    // durable copy, and re-sending it *is* recovery.
                    return Err(TaskError::Corrupt { what: why });
                }
                fetch_inputs(&slot, env.mapped_schemas)
            };
            let fetched = attempt_once(env, TaskPhase::Shuffle, p, shuffle_attempt, fault, fetch);
            let fetched = match fetched {
                Ok(f) => f,
                Err(e) => {
                    let mut w = PayloadWriter::new();
                    w.u64(seq).u8(1).u8(1);
                    write_task_error(&mut w, &e);
                    return send_result(
                        env,
                        transport,
                        TaskPhase::Shuffle,
                        p,
                        shuffle_attempt,
                        w.finish(),
                    );
                }
            };
            // Shuffle verified: tell the parent before reduce chaos runs,
            // so a death from here on is charged to the reduce attempt.
            let mut pw = PayloadWriter::new();
            pw.u64(seq).u8(0);
            transport.send(&Frame {
                kind: FrameKind::Progress,
                payload: pw.finish(),
            })?;
            if let Some(d) = env.config.chaos.straggle_for(
                stage,
                TaskPhase::Reduce,
                p,
                reduce_attempt,
                speculative,
            ) {
                std::thread::sleep(d);
            }
            let fault = eval_fault(env, TaskPhase::Reduce, p, reduce_attempt);
            let outcome = attempt_once(env, TaskPhase::Reduce, p, reduce_attempt, fault, |_| {
                run_reduce_task(env, p, reduce_attempt, fetched)
            });
            let mut w = PayloadWriter::new();
            w.u64(seq).u8(2);
            match outcome {
                Ok(out) => {
                    w.u8(0)
                        .u64(out.reduce_time.as_nanos() as u64)
                        .u64(out.seal_time.as_nanos() as u64);
                    for (_, stored) in &out.sinks {
                        write_sink(&mut w, stored);
                    }
                }
                Err(e) => {
                    w.u8(1);
                    write_task_error(&mut w, &e);
                }
            }
            send_result(
                env,
                transport,
                TaskPhase::Reduce,
                p,
                reduce_attempt,
                w.finish(),
            )
        }
        other => Err(proto_err(format!("unknown task kind {other}"))),
    }
}

/// Child process main loop. Never returns: all exits go through `_exit`
/// so the forked copy of the parent's state is never unwound or flushed.
fn worker_run(env: &StageEnv<'_>, stream: UnixStream) -> ! {
    let transport = match UdsTransport::new(stream) {
        Ok(t) => Arc::new(t),
        Err(_) => unsafe { sys::_exit(1) },
    };
    if env.config.chaos.injects_panics() {
        chaos::install_quiet_injected_panic_hook();
    }
    let _ = transport.send(&Frame::control(FrameKind::Hello));
    // Liveness beacon from a dedicated thread, so the beat keeps flowing
    // while the main thread computes (that is what makes a missed beat
    // mean "dead", not "busy"). Stops itself once the socket dies.
    {
        let hb = Arc::clone(&transport);
        let interval = env.config.heartbeat_interval;
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if hb.send(&Frame::control(FrameKind::Heartbeat)).is_err() {
                return;
            }
        });
    }
    loop {
        match transport.recv() {
            Ok(Received::Frame(f)) => match f.kind {
                FrameKind::Task if handle_task(env, &transport, &f.payload).is_err() => unsafe {
                    sys::_exit(1)
                },
                FrameKind::Shutdown => unsafe { sys::_exit(0) },
                _ => {}
            },
            // Chaos only damages worker->parent frames, so a corrupt task
            // descriptor is a protocol violation: die and let the parent's
            // dead-worker path recover.
            Ok(Received::Corrupt) => unsafe { sys::_exit(1) },
            Err(_) => unsafe { sys::_exit(0) },
        }
    }
}

// ---------------------------------------------------------------------------
// Parent (scheduler) side.
// ---------------------------------------------------------------------------

/// Fork one worker connected by a fresh socket pair. In the child this
/// call never returns (it becomes `worker_run`).
fn fork_worker(env: &StageEnv<'_>) -> Result<(i32, UnixStream)> {
    let (parent_end, child_end) = UnixStream::pair().map_err(|e| MrError::Backend {
        message: format!("socketpair failed: {e}"),
    })?;
    let pid = unsafe { sys::fork() };
    if pid < 0 {
        return Err(MrError::Backend {
            message: "fork failed".to_string(),
        });
    }
    if pid == 0 {
        drop(parent_end);
        worker_run(env, child_end);
    }
    drop(child_end);
    Ok((pid, parent_end))
}

fn kill_and_reap(pid: i32) {
    unsafe {
        sys::kill(pid, sys::SIGKILL);
        sys::waitpid(pid, std::ptr::null_mut(), 0);
    }
}

/// What a reader thread saw on one worker's socket. `gen` stamps which
/// incarnation of the slot produced the event, so events from a worker
/// that has since been replaced are discarded instead of mis-charged.
enum Event {
    Frame(usize, u64, Frame),
    Corrupt(usize, u64),
    Closed(usize, u64),
}

#[derive(Default)]
struct EventQueue {
    q: Mutex<VecDeque<Event>>,
    ready: Condvar,
}

impl EventQueue {
    fn push(&self, ev: Event) {
        lock_slot(&self.q).push_back(ev);
        self.ready.notify_one();
    }

    fn drain(&self) -> Vec<Event> {
        lock_slot(&self.q).drain(..).collect()
    }

    fn wait(&self, timeout: Duration) {
        let q = lock_slot(&self.q);
        if q.is_empty() {
            let _ = self.ready.wait_timeout(q, timeout);
        }
    }
}

fn spawn_reader(
    slot: usize,
    gen: u64,
    transport: Arc<UdsTransport>,
    events: Arc<EventQueue>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || loop {
        match transport.recv() {
            Ok(Received::Frame(f)) => events.push(Event::Frame(slot, gen, f)),
            Ok(Received::Corrupt) => events.push(Event::Corrupt(slot, gen)),
            Err(_) => {
                events.push(Event::Closed(slot, gen));
                return;
            }
        }
    })
}

struct WorkerHandle {
    pid: i32,
    gen: u64,
    transport: Arc<UdsTransport>,
    alive: bool,
    reaped: bool,
    last_beat: Instant,
    /// Sequence number of the copy this worker is executing, if any.
    /// Workers run one task at a time, so this is the whole story.
    busy: Option<u64>,
    reader: Option<std::thread::JoinHandle<()>>,
}

#[derive(Clone, Copy)]
enum Desc {
    Map {
        task: usize,
        input: usize,
        extent: usize,
    },
    Reduce {
        partition: usize,
    },
}

impl Desc {
    fn index(&self) -> usize {
        match self {
            Desc::Map { task, .. } => *task,
            Desc::Reduce { partition } => *partition,
        }
    }
}

/// One launched execution of a task (primary or speculative duplicate).
struct CopyState {
    seq: u64,
    slot: usize,
    started: Instant,
    speculative: bool,
    /// Set when the worker's `Progress` frame reported the shuffle
    /// sub-phase verified — a later death charges the reduce attempt.
    in_reduce: bool,
}

enum TaskOutput {
    Map(MapTaskOut),
    Reduce(ReduceOut),
}

struct TState {
    desc: Desc,
    /// Map attempt, or reduce attempt for reduce tasks.
    attempt: usize,
    /// Shuffle sub-phase attempt (reduce tasks only).
    shuffle_attempt: usize,
    /// Earliest re-dispatch time (retry backoff without blocking the
    /// scheduler).
    ready_at: Instant,
    copies: Vec<CopyState>,
    speculated: bool,
    /// Attempt values whose scheduled `Delay` fault has been tallied, so
    /// re-dispatches of the same attempt never double-count.
    charged_main_delay: Option<usize>,
    charged_shuffle_delay: Option<usize>,
    done: Option<Result<TaskOutput>>,
}

impl TState {
    fn new(desc: Desc) -> TState {
        TState {
            desc,
            attempt: 0,
            shuffle_attempt: 0,
            ready_at: Instant::now(),
            copies: Vec::new(),
            speculated: false,
            charged_main_delay: None,
            charged_shuffle_delay: None,
            done: None,
        }
    }
}

/// Tally a scheduled `Delay` fault for one (phase, task, attempt), once.
/// Workers sleep the delay in their own address space, so the parent
/// mirrors the counter the thread backend would have bumped in-process.
fn charge_delay(
    env: &StageEnv<'_>,
    phase: TaskPhase,
    task: usize,
    attempt: usize,
    charged: &mut Option<usize>,
) {
    if *charged == Some(attempt) {
        return;
    }
    *charged = Some(attempt);
    if env
        .config
        .chaos
        .fault_for(&env.stage.name, phase, task, attempt)
        == Some(FaultKind::Delay)
    {
        env.counters.add(&env.counters.delays, 1);
    }
}

/// One copy failed. Removes it; if a sibling copy of the same attempt is
/// still running, that copy decides (pure tasks mean both copies fail
/// identically, so the surviving copy charges the attempt exactly once).
/// Otherwise classify, tally, and either bump the right attempt counter
/// for a retry (with non-blocking backoff) or resolve the task.
fn fail_copy(
    env: &StageEnv<'_>,
    seq: u64,
    err: TaskError,
    phase_override: Option<TaskPhase>,
    states: &mut [TState],
    seq_index: &mut HashMap<u64, usize>,
) {
    let Some(ti) = seq_index.remove(&seq) else {
        return;
    };
    let t = &mut states[ti];
    let Some(pos) = t.copies.iter().position(|c| c.seq == seq) else {
        return;
    };
    let copy = t.copies.remove(pos);
    if t.done.is_some() || !t.copies.is_empty() {
        return;
    }
    let phase = phase_override.unwrap_or(match t.desc {
        Desc::Map { .. } => TaskPhase::Map,
        Desc::Reduce { .. } => {
            if copy.in_reduce {
                TaskPhase::Reduce
            } else {
                TaskPhase::Shuffle
            }
        }
    });
    if let TaskError::Fatal(e) = err {
        t.done = Some(Err(*e));
        return;
    }
    let counters: &FaultCounters = env.counters;
    counters.count_error(&err);
    let att = if matches!(t.desc, Desc::Reduce { .. }) && phase == TaskPhase::Shuffle {
        t.shuffle_attempt += 1;
        t.shuffle_attempt
    } else {
        t.attempt += 1;
        t.attempt
    };
    let max_attempts = env.config.retry.max_attempts.max(1);
    if att >= max_attempts {
        t.done = Some(Err(MrError::TaskExhausted {
            stage: env.stage.name.clone(),
            phase,
            partition: t.desc.index(),
            attempts: att,
            last: Box::new(err),
        }));
        return;
    }
    counters.add(&counters.retries, 1);
    let pause = env.config.retry.backoff_after(att - 1);
    if !pause.is_zero() {
        counters.add(&counters.backoff_ns, pause.as_nanos() as u64);
    }
    t.ready_at = Instant::now() + pause;
    t.speculated = false;
}

/// The multi-process backend: spawns `workers` child processes per stage.
#[derive(Debug)]
pub(crate) struct ProcessBackend {
    workers: usize,
}

impl ProcessBackend {
    pub fn new(workers: usize) -> ProcessBackend {
        ProcessBackend {
            workers: workers.max(1),
        }
    }
}

impl Backend for ProcessBackend {
    fn begin<'e>(&'e self, env: &'e StageEnv<'e>) -> Result<Box<dyn StageExec<'e> + 'e>> {
        Ok(Box::new(ProcessExec::start(self.workers, env)?))
    }
}

pub(crate) struct ProcessExec<'e> {
    env: &'e StageEnv<'e>,
    workers: Vec<WorkerHandle>,
    events: Arc<EventQueue>,
    next_gen: u64,
    next_seq: u64,
    /// Replacement budget when the whole worker set has died — bounds the
    /// pathological chaos schedule that kills every incarnation.
    respawns_left: usize,
    shut_down: bool,
}

impl<'e> ProcessExec<'e> {
    fn start(n: usize, env: &'e StageEnv<'e>) -> Result<ProcessExec<'e>> {
        // Fork every worker before any reader thread exists: each child is
        // then created from a parent image with no scheduler threads (and
        // no scheduler locks) mid-flight.
        let mut spawned: Vec<(i32, UnixStream)> = Vec::with_capacity(n);
        for _ in 0..n {
            match fork_worker(env) {
                Ok(w) => spawned.push(w),
                Err(e) => {
                    for (pid, _) in &spawned {
                        kill_and_reap(*pid);
                    }
                    return Err(e);
                }
            }
        }
        let mut exec = ProcessExec {
            env,
            workers: Vec::with_capacity(n),
            events: Arc::new(EventQueue::default()),
            next_gen: 0,
            next_seq: 0,
            respawns_left: 2 * n + 8,
            shut_down: false,
        };
        for (pid, stream) in spawned {
            let transport = match UdsTransport::new(stream) {
                Ok(t) => Arc::new(t),
                Err(e) => {
                    kill_and_reap(pid);
                    exec.teardown();
                    return Err(MrError::Backend {
                        message: format!("worker transport setup failed: {e}"),
                    });
                }
            };
            let slot = exec.workers.len();
            let gen = exec.next_gen;
            exec.next_gen += 1;
            let reader = spawn_reader(slot, gen, Arc::clone(&transport), Arc::clone(&exec.events));
            exec.workers.push(WorkerHandle {
                pid,
                gen,
                transport,
                alive: true,
                reaped: false,
                last_beat: Instant::now(),
                busy: None,
                reader: Some(reader),
            });
        }
        Ok(exec)
    }

    fn reap(&mut self, slot: usize) {
        let w = &mut self.workers[slot];
        if !w.reaped {
            unsafe {
                sys::waitpid(w.pid, std::ptr::null_mut(), 0);
            }
            w.reaped = true;
        }
    }

    /// Declare one worker dead: SIGKILL (idempotent), reap, and hand back
    /// the seq of whatever it was running so the caller can re-queue it.
    fn kill_worker(&mut self, slot: usize) -> Option<u64> {
        if self.workers[slot].alive {
            self.workers[slot].alive = false;
            unsafe {
                sys::kill(self.workers[slot].pid, sys::SIGKILL);
            }
            self.env.counters.add(&self.env.counters.workers_lost, 1);
        }
        self.reap(slot);
        self.workers[slot].busy.take()
    }

    /// Replace the worker in `slot` with a fresh fork (new generation).
    fn respawn(&mut self, slot: usize) -> Result<()> {
        let (pid, stream) = fork_worker(self.env)?;
        let transport = match UdsTransport::new(stream) {
            Ok(t) => Arc::new(t),
            Err(e) => {
                kill_and_reap(pid);
                return Err(MrError::Backend {
                    message: format!("worker transport setup failed: {e}"),
                });
            }
        };
        // The old incarnation is dead and reaped, so its reader has hit
        // EOF; join it before installing the replacement.
        if let Some(h) = self.workers[slot].reader.take() {
            let _ = h.join();
        }
        let gen = self.next_gen;
        self.next_gen += 1;
        let reader = spawn_reader(slot, gen, Arc::clone(&transport), Arc::clone(&self.events));
        self.workers[slot] = WorkerHandle {
            pid,
            gen,
            transport,
            alive: true,
            reaped: false,
            last_beat: Instant::now(),
            busy: None,
            reader: Some(reader),
        };
        Ok(())
    }

    fn idle_worker(&self, exclude: Option<usize>) -> Option<usize> {
        (0..self.workers.len()).find(|&s| {
            Some(s) != exclude && self.workers[s].alive && self.workers[s].busy.is_none()
        })
    }

    /// Survivors absorb a dead worker's partitions; only when nobody is
    /// left does the respawn budget buy a replacement. A dead set with an
    /// empty budget fails the remaining tasks as a backend error.
    fn ensure_workers(&mut self, states: &mut [TState]) {
        if self.workers.iter().any(|w| w.alive) {
            return;
        }
        if !states.iter().any(|t| t.done.is_none()) {
            return;
        }
        if self.respawns_left == 0 {
            for t in states.iter_mut() {
                if t.done.is_none() {
                    t.copies.clear();
                    t.done = Some(Err(MrError::Backend {
                        message: "all worker processes died and the respawn budget is exhausted"
                            .to_string(),
                    }));
                }
            }
            return;
        }
        self.respawns_left -= 1;
        // A failed fork burns budget and is retried next tick; persistent
        // failure drains the budget into the error above.
        let _ = self.respawn(0);
    }

    /// Launch one copy of task `ti` on `slot`.
    fn launch(
        &mut self,
        slot: usize,
        ti: usize,
        speculative: bool,
        states: &mut [TState],
        seq_index: &mut HashMap<u64, usize>,
        shuffle: Option<&[Mutex<ShuffleSlot>]>,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let env = self.env;
        let (payload, fail_phase) = {
            let t = &mut states[ti];
            match t.desc {
                Desc::Map {
                    task,
                    input,
                    extent,
                } => {
                    if !speculative {
                        charge_delay(
                            env,
                            TaskPhase::Map,
                            task,
                            t.attempt,
                            &mut t.charged_main_delay,
                        );
                    }
                    let mut w = PayloadWriter::new();
                    w.u64(seq)
                        .u8(0)
                        .u64(task as u64)
                        .u64(input as u64)
                        .u64(extent as u64)
                        .u64(t.attempt as u64)
                        .u8(u8::from(speculative));
                    (Ok(w.finish()), TaskPhase::Map)
                }
                Desc::Reduce { partition } => {
                    if !speculative {
                        charge_delay(
                            env,
                            TaskPhase::Shuffle,
                            partition,
                            t.shuffle_attempt,
                            &mut t.charged_shuffle_delay,
                        );
                    }
                    let mut w = PayloadWriter::new();
                    w.u64(seq)
                        .u8(1)
                        .u64(partition as u64)
                        .u64(t.shuffle_attempt as u64)
                        .u64(t.attempt as u64)
                        .u8(u8::from(speculative));
                    let built = match shuffle {
                        Some(shuffle) => {
                            let guard = lock_slot(&shuffle[partition]);
                            write_slot(&mut w, &guard).map(|()| w.finish())
                        }
                        None => Err(TaskError::Fatal(Box::new(MrError::Backend {
                            message: "reduce task dispatched with no shuffle".to_string(),
                        }))),
                    };
                    (built, TaskPhase::Shuffle)
                }
            }
        };
        states[ti].copies.push(CopyState {
            seq,
            slot,
            started: Instant::now(),
            speculative,
            in_reduce: false,
        });
        seq_index.insert(seq, ti);
        let payload = match payload {
            Ok(p) => p,
            Err(e) => {
                fail_copy(env, seq, e, Some(fail_phase), states, seq_index);
                return;
            }
        };
        self.workers[slot].busy = Some(seq);
        let frame = Frame {
            kind: FrameKind::Task,
            payload,
        };
        if self.workers[slot].transport.send(&frame).is_err() {
            if let Some(seq) = self.kill_worker(slot) {
                fail_copy(
                    env,
                    seq,
                    TaskError::Transient {
                        message: "worker unreachable at dispatch".to_string(),
                    },
                    Some(fail_phase),
                    states,
                    seq_index,
                );
            }
        }
    }

    fn dispatch_pending(
        &mut self,
        states: &mut [TState],
        seq_index: &mut HashMap<u64, usize>,
        shuffle: Option<&[Mutex<ShuffleSlot>]>,
    ) {
        let now = Instant::now();
        for ti in 0..states.len() {
            if states[ti].done.is_some()
                || !states[ti].copies.is_empty()
                || states[ti].ready_at > now
            {
                continue;
            }
            let Some(slot) = self.idle_worker(None) else {
                return;
            };
            self.launch(slot, ti, false, states, seq_index, shuffle);
        }
    }

    /// Launch speculative duplicates of stragglers: a single-copy task
    /// running past `latency_factor ×` the median completed latency (and
    /// past `min_lag`) gets a second copy on a different idle worker.
    fn maybe_speculate(
        &mut self,
        states: &mut [TState],
        seq_index: &mut HashMap<u64, usize>,
        durations: &[Duration],
        shuffle: Option<&[Mutex<ShuffleSlot>]>,
    ) {
        let policy = self.env.config.speculation;
        if !policy.enabled || durations.len() < policy.min_completed.max(1) {
            return;
        }
        let mut sorted = durations.to_vec();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        let threshold = median.mul_f64(policy.latency_factor).max(policy.min_lag);
        let now = Instant::now();
        for ti in 0..states.len() {
            let t = &states[ti];
            if t.done.is_some() || t.speculated || t.copies.len() != 1 || t.copies[0].speculative {
                continue;
            }
            let primary_slot = t.copies[0].slot;
            if now.duration_since(t.copies[0].started) <= threshold {
                continue;
            }
            let Some(slot) = self.idle_worker(Some(primary_slot)) else {
                return;
            };
            states[ti].speculated = true;
            self.env.counters.add(&self.env.counters.spec_launched, 1);
            self.launch(slot, ti, true, states, seq_index, shuffle);
        }
    }

    /// Enforce the heartbeat deadline and (when configured) the attempt
    /// timeout — the latter preemptively, with a real SIGKILL.
    fn check_deadlines(&mut self, states: &mut [TState], seq_index: &mut HashMap<u64, usize>) {
        let now = Instant::now();
        let deadline = self.env.config.heartbeat_deadline;
        let timeout = self.env.config.retry.attempt_timeout;
        for slot in 0..self.workers.len() {
            if !self.workers[slot].alive {
                continue;
            }
            if now.duration_since(self.workers[slot].last_beat) > deadline {
                self.env
                    .counters
                    .add(&self.env.counters.heartbeats_missed, 1);
                if let Some(seq) = self.kill_worker(slot) {
                    fail_copy(
                        self.env,
                        seq,
                        TaskError::Transient {
                            message: "worker heartbeat deadline missed".to_string(),
                        },
                        None,
                        states,
                        seq_index,
                    );
                }
                continue;
            }
            if let (Some(limit), Some(seq)) = (timeout, self.workers[slot].busy) {
                let started = seq_index
                    .get(&seq)
                    .and_then(|&ti| states[ti].copies.iter().find(|c| c.seq == seq))
                    .map(|c| c.started);
                if let Some(started) = started {
                    let elapsed = now.duration_since(started);
                    if elapsed > limit {
                        self.kill_worker(slot);
                        fail_copy(
                            self.env,
                            seq,
                            TaskError::TimedOut { elapsed },
                            None,
                            states,
                            seq_index,
                        );
                    }
                }
            }
        }
    }

    fn on_progress(&self, payload: &[u8], states: &mut [TState], seq_index: &HashMap<u64, usize>) {
        let mut r = PayloadReader::new(payload);
        let Ok(seq) = r.u64() else { return };
        let Some(&ti) = seq_index.get(&seq) else {
            return;
        };
        let t = &mut states[ti];
        let Desc::Reduce { partition } = t.desc else {
            return;
        };
        let Some(copy) = t.copies.iter_mut().find(|c| c.seq == seq) else {
            return;
        };
        copy.in_reduce = true;
        let speculative = copy.speculative;
        if !speculative {
            charge_delay(
                self.env,
                TaskPhase::Reduce,
                partition,
                t.attempt,
                &mut t.charged_main_delay,
            );
        }
    }

    fn on_result(
        &self,
        payload: &[u8],
        states: &mut [TState],
        seq_index: &mut HashMap<u64, usize>,
        durations: &mut Vec<Duration>,
    ) {
        let env = self.env;
        let mut r = PayloadReader::new(payload);
        let Ok(seq) = r.u64() else { return };
        let Ok(phase_byte) = r.u8() else { return };
        let Ok(status) = r.u8() else { return };
        // A seq we no longer track is a stale result (a loser copy of an
        // already-resolved task, possibly from a previous phase): the
        // worker is idle again and there is nothing to charge.
        let Some(&ti) = seq_index.get(&seq) else {
            return;
        };
        if status != 0 {
            let err = read_task_error(&mut r).unwrap_or_else(|_| TaskError::Corrupt {
                what: "undecodable error report from worker".to_string(),
            });
            let phase = match phase_byte {
                0 => Some(TaskPhase::Map),
                1 => Some(TaskPhase::Shuffle),
                2 => Some(TaskPhase::Reduce),
                _ => None,
            };
            fail_copy(env, seq, err, phase, states, seq_index);
            return;
        }
        let decoded = match states[ti].desc {
            Desc::Map { .. } => decode_map_ok(&mut r, env),
            Desc::Reduce { .. } => decode_reduce_ok(&mut r, env),
        };
        let out = match decoded {
            Ok(out) => out,
            Err(e) => {
                fail_copy(
                    env,
                    seq,
                    TaskError::Corrupt {
                        what: format!("result payload undecodable: {e}"),
                    },
                    None,
                    states,
                    seq_index,
                );
                return;
            }
        };
        seq_index.remove(&seq);
        let t = &mut states[ti];
        let Some(pos) = t.copies.iter().position(|c| c.seq == seq) else {
            return;
        };
        let copy = t.copies.remove(pos);
        if t.done.is_some() {
            return;
        }
        durations.push(copy.started.elapsed());
        if copy.speculative {
            env.counters.add(&env.counters.spec_wins, 1);
        }
        t.done = Some(Ok(out));
    }

    fn handle_event(
        &mut self,
        ev: Event,
        states: &mut [TState],
        seq_index: &mut HashMap<u64, usize>,
        durations: &mut Vec<Duration>,
    ) {
        match ev {
            Event::Frame(slot, gen, frame) => {
                if self.workers.get(slot).is_none_or(|w| w.gen != gen) {
                    return;
                }
                self.workers[slot].last_beat = Instant::now();
                match frame.kind {
                    FrameKind::Progress => self.on_progress(&frame.payload, states, seq_index),
                    FrameKind::TaskResult => {
                        self.workers[slot].busy = None;
                        self.on_result(&frame.payload, states, seq_index, durations);
                    }
                    _ => {}
                }
            }
            Event::Corrupt(slot, gen) => {
                if self.workers.get(slot).is_none_or(|w| w.gen != gen) {
                    return;
                }
                // The frame was damaged in flight; the checksum caught it
                // and the stream is still in sync. Charge the in-flight
                // copy and keep the worker.
                self.workers[slot].last_beat = Instant::now();
                if let Some(seq) = self.workers[slot].busy.take() {
                    fail_copy(
                        self.env,
                        seq,
                        TaskError::Corrupt {
                            what: "result frame damaged in flight".to_string(),
                        },
                        None,
                        states,
                        seq_index,
                    );
                }
            }
            Event::Closed(slot, gen) => {
                if self.workers.get(slot).is_none_or(|w| w.gen != gen) {
                    return;
                }
                if !self.workers[slot].alive {
                    self.reap(slot);
                    return;
                }
                if let Some(seq) = self.kill_worker(slot) {
                    fail_copy(
                        self.env,
                        seq,
                        TaskError::Transient {
                            message: "worker process died mid-task".to_string(),
                        },
                        None,
                        states,
                        seq_index,
                    );
                }
            }
        }
    }

    /// The scheduler: drive one phase's tasks to completion across the
    /// worker set, through deaths, timeouts, corruption, and speculation.
    fn run_phase(
        &mut self,
        mut states: Vec<TState>,
        shuffle: Option<&[Mutex<ShuffleSlot>]>,
    ) -> Vec<Result<TaskOutput>> {
        let mut seq_index: HashMap<u64, usize> = HashMap::new();
        let mut durations: Vec<Duration> = Vec::new();
        loop {
            for ev in self.events.drain() {
                self.handle_event(ev, &mut states, &mut seq_index, &mut durations);
            }
            self.check_deadlines(&mut states, &mut seq_index);
            self.ensure_workers(&mut states);
            self.dispatch_pending(&mut states, &mut seq_index, shuffle);
            self.maybe_speculate(&mut states, &mut seq_index, &durations, shuffle);
            if states.iter().all(|t| t.done.is_some()) {
                break;
            }
            self.events.wait(Duration::from_millis(5));
        }
        states
            .into_iter()
            .map(|t| t.done.expect("all tasks resolved"))
            .collect()
    }

    /// Shut every worker down and reap it: polite `Shutdown` frame first,
    /// then a grace period, then SIGKILL. Idempotent, and also run on
    /// drop, so no run — clean, chaotic, or failed — leaks a process.
    fn teardown(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        for w in &mut self.workers {
            if !w.alive {
                continue;
            }
            if w.busy.is_some() {
                // Still chewing on a copy nobody is waiting for (a lost
                // speculation race, or an abandoned phase). Waiting out its
                // straggle sleep would hand the saved wall time right back,
                // so reclaim the process instead of asking politely.
                kill_and_reap(w.pid);
                w.alive = false;
                w.reaped = true;
            } else {
                let _ = w.transport.send(&Frame::control(FrameKind::Shutdown));
            }
        }
        let grace = Instant::now() + Duration::from_secs(2);
        for slot in 0..self.workers.len() {
            loop {
                if self.workers[slot].reaped {
                    break;
                }
                let pid = self.workers[slot].pid;
                let done = unsafe { sys::waitpid(pid, std::ptr::null_mut(), sys::WNOHANG) };
                if done == pid || done < 0 {
                    self.workers[slot].reaped = true;
                    break;
                }
                if Instant::now() >= grace {
                    kill_and_reap(pid);
                    self.workers[slot].reaped = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            self.workers[slot].alive = false;
        }
        for w in &mut self.workers {
            if let Some(h) = w.reader.take() {
                let _ = h.join();
            }
        }
    }
}

fn decode_map_ok(r: &mut PayloadReader<'_>, env: &StageEnv<'_>) -> io::Result<TaskOutput> {
    let rows_in = r.u64()?;
    let rows_out = r.u64()?;
    let bytes = r.u64()?;
    let bytes_saved = r.u64()?;
    let seal_time = Duration::from_nanos(r.u64()?);
    let mut chunks = Vec::with_capacity(env.stage.partitions);
    for _ in 0..env.stage.partitions {
        let mut sealed = Vec::new();
        for _ in 0..r.u64()? {
            sealed.push(r.bytes()?.to_vec());
        }
        chunks.push(sealed);
    }
    Ok(TaskOutput::Map(MapTaskOut {
        chunks,
        rows_in,
        rows_out,
        bytes,
        bytes_saved,
        seal_time,
    }))
}

fn decode_reduce_ok(r: &mut PayloadReader<'_>, env: &StageEnv<'_>) -> io::Result<TaskOutput> {
    let reduce_time = Duration::from_nanos(r.u64()?);
    let seal_time = Duration::from_nanos(r.u64()?);
    let mut sinks = Vec::with_capacity(env.expected_sinks);
    for _ in 0..env.expected_sinks {
        sinks.push(read_sink(r)?);
    }
    Ok(TaskOutput::Reduce(ReduceOut {
        sinks,
        reduce_time,
        seal_time,
    }))
}

impl<'e> StageExec<'e> for ProcessExec<'e> {
    fn run_map(&mut self, base: usize, tasks: &[(usize, usize)]) -> Vec<Result<MapTaskOut>> {
        let states = tasks
            .iter()
            .enumerate()
            .map(|(k, &(input, extent))| {
                TState::new(Desc::Map {
                    task: base + k,
                    input,
                    extent,
                })
            })
            .collect();
        self.run_phase(states, None)
            .into_iter()
            .map(|r| {
                r.map(|o| match o {
                    TaskOutput::Map(m) => m,
                    TaskOutput::Reduce(_) => unreachable!("map task resolved with a reduce result"),
                })
            })
            .collect()
    }

    fn run_reduce(&mut self, shuffle: &[Mutex<ShuffleSlot>]) -> Vec<Result<ReduceOut>> {
        let states = (0..self.env.stage.partitions)
            .map(|p| TState::new(Desc::Reduce { partition: p }))
            .collect();
        self.run_phase(states, Some(shuffle))
            .into_iter()
            .map(|r| {
                r.map(|o| match o {
                    TaskOutput::Reduce(out) => out,
                    TaskOutput::Map(_) => unreachable!("reduce task resolved with a map result"),
                })
            })
            .collect()
    }

    fn finish(&mut self) -> Result<()> {
        self.teardown();
        Ok(())
    }
}

impl Drop for ProcessExec<'_> {
    fn drop(&mut self) {
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slot whose counts promise more than the payload holds is an
    /// error, not an allocation: nothing is sized from a count.
    #[test]
    fn read_slot_does_not_believe_its_counts() {
        for claimed in [u64::MAX, 1 << 40] {
            // The input count lies.
            let mut w = PayloadWriter::new();
            w.u64(claimed).u64(1).bytes(b"chunk");
            let payload = w.finish();
            assert!(read_slot(&mut PayloadReader::new(&payload)).is_err());
            // The chunk count lies.
            let mut w = PayloadWriter::new();
            w.u64(1).u64(claimed).bytes(b"chunk");
            let payload = w.finish();
            assert!(read_slot(&mut PayloadReader::new(&payload)).is_err());
        }
        // A chunk cut short mid-image.
        let mut w = PayloadWriter::new();
        w.u64(1).u64(1).bytes(&[7u8; 64]);
        let payload = w.finish();
        assert!(read_slot(&mut PayloadReader::new(&payload[..payload.len() - 1])).is_err());
        let whole = read_slot(&mut PayloadReader::new(&payload)).unwrap();
        assert_eq!(whole.inputs, vec![vec![ShuffleChunk::Mem(vec![7u8; 64])]]);
    }

    /// `MrError::IllTyped` crosses the socket whole, so both backends
    /// report the same error.
    #[test]
    fn ill_typed_survives_the_wire() {
        let causes = [
            RelationError::TypeMismatch {
                column: "N".into(),
                expected: "long".into(),
                actual: "str".into(),
            },
            RelationError::ArityMismatch {
                expected: 3,
                actual: 2,
            },
        ];
        for cause in causes {
            let sent = TaskError::Fatal(Box::new(MrError::IllTyped {
                site: "`s` reduce sink 1 partition 2".into(),
                cause,
            }));
            let mut w = PayloadWriter::new();
            write_task_error(&mut w, &sent);
            let payload = w.finish();
            let got = read_task_error(&mut PayloadReader::new(&payload)).unwrap();
            assert_eq!(got, sent);
        }
    }
}
