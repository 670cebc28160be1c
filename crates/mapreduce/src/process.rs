//! Worker OS processes: fork, the socket conversation, and reaping.
//!
//! [`Fleet::fork`] forks one child per worker *after* the stage
//! environment is fully built, so workers inherit the stage, its input
//! datasets, and the compiled partitioners by address-space copy — only
//! task coordinates and sealed extent images cross the socket (framed and
//! checksummed by `crate::transport`), verbatim: what a worker seals is
//! what the parent places or publishes. The parent checks a sink image
//! against the sink's schema before publishing it, and never decodes it.
//!
//! Scheduling is not here. Each child has a *driver* — a pool thread
//! running the same pull loop as every in-place worker
//! (`crate::scheduler::run_phase`) — and [`Forked`] is the `Worker` that
//! loop calls: ship one copy's coordinates to the child, which runs the
//! same task body (`execute_map` / `execute_reduce`), and block until the
//! copy has an outcome. What this file adds is what only a process has:
//!
//! - **a real kill** — a child acts on `FaultKind::KillProcess` by
//!   SIGKILLing itself, so the driver sees the socket close and reports a
//!   lost copy; the ledger's ordinary retry is the dead-worker takeover;
//! - **deadlines as the driver's `recv` deadline** — each child beats from
//!   a dedicated thread, and a child silent past [`HEARTBEAT_DEADLINE`], or
//!   a copy running past `RetryPolicy::attempt_timeout`, is SIGKILLed and
//!   reaped *preemptively* (a pool thread can only have its late result
//!   discarded);
//! - **reclaiming a lost race** — a driver wakes on every heartbeat, so it
//!   notices that its copy's task has been settled by the other copy and
//!   kills the child instead of waiting out its straggle;
//! - **graceful degradation** — when a child dies its driver retires and
//!   the survivors absorb its share (every forked worker drives every
//!   phase, so a survivor is always pulling); only when *no* child remains
//!   does a driver spend the fleet's respawn budget on a replacement;
//! - **wire chaos** — result frames delayed or damaged after their
//!   checksum was computed.
//!
//! A child reports a `Progress` frame after the shuffle sub-phase verifies,
//! so a death during reduce is charged to the reduce attempt, not the
//! shuffle attempt.

#![cfg(unix)]

use crate::backend::{ReduceOut, StageEnv};
use crate::chaos;
use crate::cluster::{lock_slot, MapTaskOut, ShuffleChunk, ShuffleSlot};
use crate::dfs::StoredExtent;
use crate::error::{MrError, Result, TaskError, TaskPhase};
use crate::scheduler::{execute_map, execute_reduce, Failure, Outcome, TaskCopy, Worker};
use crate::transport::{
    encode_frame, payload_offset, Frame, FrameKind, PayloadReader, PayloadWriter, Received,
    UdsTransport,
};
use relation::{RelationError, Schema};
use std::io;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often a child sends a heartbeat frame.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(20);

/// How long a child may go silent mid-copy before its driver declares it
/// dead, reaps it, and reports the copy lost. Comfortably above
/// [`HEARTBEAT_INTERVAL`]; heartbeats come from a dedicated thread, so even
/// a busy child keeps beating.
const HEARTBEAT_DEADLINE: Duration = Duration::from_secs(2);

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

/// Serialize one sink of a reduce result: the extent the worker sealed,
/// which the parent publishes as is.
fn write_sink(w: &mut PayloadWriter, stored: &StoredExtent) {
    w.u64(stored.rows).u64(stored.width).bytes(&stored.bytes);
}

/// Read one sink of `schema`: its image is checked — every frame, and the
/// footer against the schema and the row count — but not decoded.
fn read_sink(r: &mut PayloadReader<'_>, schema: &Schema) -> io::Result<StoredExtent> {
    let (rows, width) = (r.u64()?, r.u64()?);
    let bytes = Arc::new(r.bytes()?.to_vec());
    let stored = StoredExtent { bytes, rows, width };
    stored.verify(schema).map_err(proto_err)?;
    Ok(stored)
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

fn write_map_out(w: &mut PayloadWriter, out: &MapTaskOut) {
    w.u64(out.rows_in)
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

fn read_map_out(r: &mut PayloadReader<'_>, env: &StageEnv<'_>) -> io::Result<MapTaskOut> {
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
    Ok(MapTaskOut {
        chunks,
        rows_in,
        rows_out,
        bytes,
        bytes_saved,
        seal_time,
    })
}

fn write_reduce_out(w: &mut PayloadWriter, out: &ReduceOut) {
    w.u64(out.reduce_time.as_nanos() as u64)
        .u64(out.seal_time.as_nanos() as u64);
    for stored in &out.sinks {
        write_sink(w, stored);
    }
}

fn read_reduce_out(r: &mut PayloadReader<'_>, sink_schemas: &[Schema]) -> io::Result<ReduceOut> {
    let reduce_time = Duration::from_nanos(r.u64()?);
    let seal_time = Duration::from_nanos(r.u64()?);
    let mut sinks = Vec::with_capacity(sink_schemas.len());
    for schema in sink_schemas {
        sinks.push(read_sink(r, schema)?);
    }
    Ok(ReduceOut {
        sinks,
        reduce_time,
        seal_time,
    })
}

const PHASES: [TaskPhase; 3] = [TaskPhase::Map, TaskPhase::Shuffle, TaskPhase::Reduce];

/// Serialize how a copy ended: its result, or the failure and the phase it
/// is charged to. Returns the `(phase, attempt)` the frame belongs to, for
/// wire chaos.
fn write_outcome<T>(
    w: &mut PayloadWriter,
    copy: &TaskCopy,
    main: TaskPhase,
    outcome: &Outcome<T>,
    write_ok: impl FnOnce(&mut PayloadWriter, &T),
) -> (TaskPhase, usize) {
    match outcome {
        Ok(out) => {
            w.u8(0);
            write_ok(w, out);
            (main, copy.attempt)
        }
        Err(Failure { phase, error }) => {
            w.u8(1)
                .u8(PHASES.iter().position(|p| p == phase).unwrap_or(0) as u8);
            write_task_error(w, error);
            match phase {
                TaskPhase::Shuffle => (*phase, copy.shuffle_attempt),
                _ => (*phase, copy.attempt),
            }
        }
    }
}

/// Decode a result frame. `phase` is the one the driver last heard the
/// copy was in: what an undecodable report is charged to.
fn read_outcome<T>(
    payload: &[u8],
    phase: TaskPhase,
    read_ok: impl FnOnce(&mut PayloadReader<'_>) -> io::Result<T>,
) -> Outcome<T> {
    let corrupt = |what: String| Failure {
        phase,
        error: TaskError::Corrupt { what },
    };
    let mut r = PayloadReader::new(payload);
    match r.u8() {
        Ok(0) => read_ok(&mut r).map_err(|e| corrupt(format!("result payload undecodable: {e}"))),
        Ok(1) => Err(match (r.u8(), read_task_error(&mut r)) {
            (Ok(p), Ok(error)) if (p as usize) < PHASES.len() => Failure {
                phase: PHASES[p as usize],
                error,
            },
            _ => corrupt("undecodable error report from worker".to_string()),
        }),
        _ => Err(corrupt("result frame has no status".to_string())),
    }
}

// ---------------------------------------------------------------------------
// Child process side.
// ---------------------------------------------------------------------------

/// What `FaultKind::KillProcess` means in a child: SIGKILL itself, so the
/// death is real and uncatchable.
fn kill_self() -> ! {
    // SAFETY: plain libc calls on this process's own pid; no memory is
    // passed.
    unsafe {
        sys::kill(sys::getpid(), sys::SIGKILL);
    }
    // SIGKILL cannot be handled; this backstop never actually runs.
    loop {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Send one task result, applying any scheduled socket-level chaos: a
/// wire delay sleeps before sending; wire corruption flips one payload
/// byte *after* the frame checksum was computed, so the parent's frame
/// verification must catch it.
fn send_result(
    env: &StageEnv<'_>,
    transport: &UdsTransport,
    (phase, attempt): (TaskPhase, usize),
    task: usize,
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

/// Run the copy one task frame describes and answer with its outcome.
/// `Err` means the socket is dead (the parent is gone or killed us
/// logically); the caller exits.
fn serve(env: &StageEnv<'_>, transport: &UdsTransport, payload: &[u8]) -> io::Result<()> {
    let mut r = PayloadReader::new(payload);
    let kind = r.u8()?;
    let copy = TaskCopy {
        task: r.u64()? as usize,
        attempt: r.u64()? as usize,
        shuffle_attempt: r.u64()? as usize,
        speculative: r.u8()? != 0,
        preemptible: true,
        started: Instant::now(),
    };
    let mut w = PayloadWriter::new();
    let coordinate = match kind {
        0 => {
            let (input, extent) = (r.u64()? as usize, r.u64()? as usize);
            let outcome = execute_map(env, Some(kill_self), &copy, input, extent);
            write_outcome(&mut w, &copy, TaskPhase::Map, &outcome, write_map_out)
        }
        1 => {
            let slot = read_slot(&mut r)?;
            // Shuffle verified: tell the parent before reduce chaos runs,
            // so a death from here on is charged to the reduce attempt.
            let verified = || {
                let _ = transport.send(&Frame::control(FrameKind::Progress));
            };
            let outcome = execute_reduce(env, Some(kill_self), &copy, &slot, &verified);
            write_outcome(&mut w, &copy, TaskPhase::Reduce, &outcome, write_reduce_out)
        }
        other => return Err(proto_err(format!("unknown task kind {other}"))),
    };
    send_result(env, transport, coordinate, copy.task, w.finish())
}

/// Child process main loop. Never returns: all exits go through `_exit`
/// (always sound to call: it takes no pointer and does not return), so the
/// forked copy of the parent's state is never unwound or flushed.
fn child_main(env: &StageEnv<'_>, stream: UnixStream) -> ! {
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
        std::thread::spawn(move || loop {
            std::thread::sleep(HEARTBEAT_INTERVAL);
            if hb.send(&Frame::control(FrameKind::Heartbeat)).is_err() {
                return;
            }
        });
    }
    loop {
        match transport.recv(None) {
            Ok(Received::Frame(f)) => match f.kind {
                FrameKind::Task if serve(env, &transport, &f.payload).is_err() => unsafe {
                    sys::_exit(1)
                },
                FrameKind::Shutdown => unsafe { sys::_exit(0) },
                _ => {}
            },
            // Chaos only damages child->parent frames, so a corrupt task
            // descriptor is a protocol violation: die and let the driver
            // report the copy lost.
            Ok(Received::Corrupt) => unsafe { sys::_exit(1) },
            Err(_) => unsafe { sys::_exit(0) },
        }
    }
}

// ---------------------------------------------------------------------------
// Parent side: one driver per child.
// ---------------------------------------------------------------------------

fn kill_and_reap(pid: i32) {
    // SAFETY: `pid` is a child this fleet forked and has not yet reaped, so
    // the signal cannot reach a recycled pid; a null status pointer is
    // allowed.
    unsafe {
        sys::kill(pid, sys::SIGKILL);
        sys::waitpid(pid, std::ptr::null_mut(), 0);
    }
}

/// One forked worker process and the parent's end of its socket.
struct Child {
    pid: i32,
    transport: UdsTransport,
}

impl Child {
    /// Fork one worker connected by a fresh socket pair. In the child this
    /// call never returns (it becomes `child_main`).
    fn fork(env: &StageEnv<'_>) -> Result<Child> {
        let backend = |message: String| MrError::Backend { message };
        let (parent_end, child_end) =
            UnixStream::pair().map_err(|e| backend(format!("socketpair failed: {e}")))?;
        // SAFETY: the child never returns into the caller's frames — it
        // runs `child_main` on the inherited copy of `env` and leaves
        // through `_exit` — and touches no lock another parent thread may
        // have held at the fork (ledger, shuffle slots, worker mutexes).
        let pid = unsafe { sys::fork() };
        if pid < 0 {
            return Err(backend("fork failed".to_string()));
        }
        if pid == 0 {
            drop(parent_end);
            child_main(env, child_end);
        }
        drop(child_end);
        match UdsTransport::new(parent_end) {
            Ok(transport) => Ok(Child { pid, transport }),
            Err(e) => {
                kill_and_reap(pid);
                Err(backend(format!("worker transport setup failed: {e}")))
            }
        }
    }
}

/// What the drivers of one stage's children share.
struct FleetState {
    /// Children believed alive.
    alive: AtomicUsize,
    /// Replacement budget when the whole fleet has died — bounds the
    /// pathological chaos schedule that kills every incarnation.
    respawns_left: AtomicUsize,
}

/// What became of the child over one copy.
enum Fate {
    Kept,
    /// Died, or was killed at a deadline.
    Lost,
    /// Killed because its copy lost a race: nothing was lost.
    Reclaimed,
}

/// The [`Worker`] whose copies run in a forked child process.
pub(crate) struct Forked<'e> {
    env: &'e StageEnv<'e>,
    fleet: Arc<FleetState>,
    child: Option<Child>,
}

impl Forked<'_> {
    /// Ship one copy to the child and block until it has an outcome.
    fn call<T>(
        &mut self,
        copy: &TaskCopy,
        main: TaskPhase,
        payload: Vec<u8>,
        lost: &dyn Fn() -> bool,
        read_ok: impl FnOnce(&mut PayloadReader<'_>) -> io::Result<T>,
    ) -> Outcome<T> {
        let Some(child) = self.child.take() else {
            return Err(Failure {
                phase: first_phase(main),
                error: transient("worker unreachable at dispatch"),
            });
        };
        let (outcome, fate) = converse(self.env, &child, copy, main, payload, lost, read_ok);
        match fate {
            Fate::Kept => self.child = Some(child),
            gone => {
                kill_and_reap(child.pid);
                self.fleet.alive.fetch_sub(1, Ordering::SeqCst);
                if matches!(gone, Fate::Lost) {
                    self.env.counters.add(&self.env.counters.workers_lost, 1);
                }
            }
        }
        outcome
    }
}

fn transient(message: &str) -> TaskError {
    TaskError::Transient {
        message: message.to_string(),
    }
}

/// The phase a copy starts in: a reduce copy fetches its shuffle first.
fn first_phase(main: TaskPhase) -> TaskPhase {
    match main {
        TaskPhase::Reduce => TaskPhase::Shuffle,
        other => other,
    }
}

/// One copy's conversation with a child: send the task frame, then read
/// until the result, a deadline, or the socket's end. The heartbeat
/// deadline and the attempt timeout are the `recv` deadline.
fn converse<T>(
    env: &StageEnv<'_>,
    child: &Child,
    copy: &TaskCopy,
    main: TaskPhase,
    payload: Vec<u8>,
    lost: &dyn Fn() -> bool,
    read_ok: impl FnOnce(&mut PayloadReader<'_>) -> io::Result<T>,
) -> (Outcome<T>, Fate) {
    let mut phase = first_phase(main);
    let fail = |phase, error, fate| (Err(Failure { phase, error }), fate);
    let frame = Frame {
        kind: FrameKind::Task,
        payload,
    };
    if child.transport.send(&frame).is_err() {
        let error = transient("worker unreachable at dispatch");
        return fail(phase, error, Fate::Lost);
    }
    let timeout = env.config.retry.attempt_timeout;
    let mut last_beat = Instant::now();
    loop {
        let beat_by = last_beat + HEARTBEAT_DEADLINE;
        let wake = timeout.map_or(beat_by, |limit| beat_by.min(copy.started + limit));
        let wait = wake.saturating_duration_since(Instant::now());
        match child
            .transport
            .recv(Some(wait.max(Duration::from_millis(1))))
        {
            Ok(Received::Frame(f)) => {
                last_beat = Instant::now();
                match f.kind {
                    FrameKind::Progress => phase = main,
                    FrameKind::TaskResult => {
                        return (read_outcome(&f.payload, phase, read_ok), Fate::Kept)
                    }
                    // A beat. If the other copy of this task has won
                    // meanwhile, waiting out this one's straggle would hand
                    // the saved wall time right back: reclaim the process.
                    _ if lost() => {
                        return fail(phase, transient("copy lost its race"), Fate::Reclaimed)
                    }
                    _ => {}
                }
            }
            // The frame was damaged in flight; the checksum caught it and
            // the stream is still in sync. Charge the copy, keep the child.
            Ok(Received::Corrupt) => {
                let what = "result frame damaged in flight".to_string();
                return fail(phase, TaskError::Corrupt { what }, Fate::Kept);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                let elapsed = copy.started.elapsed();
                if timeout.is_some_and(|limit| elapsed > limit) {
                    return fail(phase, TaskError::TimedOut { elapsed }, Fate::Lost);
                }
                if last_beat.elapsed() > HEARTBEAT_DEADLINE {
                    env.counters.add(&env.counters.heartbeats_missed, 1);
                    let error = transient("worker heartbeat deadline missed");
                    return fail(phase, error, Fate::Lost);
                }
            }
            Err(_) => return fail(phase, transient("worker process died mid-task"), Fate::Lost),
        }
    }
}

impl Worker for Forked<'_> {
    fn preemptible(&self) -> bool {
        true
    }

    /// Survivors absorb a dead child's share: its driver retires, and
    /// since `run_phase` starts a driver for every forked worker, whoever
    /// holds a live child is pulling (or has yet to start). Only when
    /// nobody is left does the respawn budget buy a replacement; a failed
    /// fork burns budget too, so persistent failure drains it and the
    /// tasks nobody ran fail as a backend error.
    fn alive(&mut self) -> bool {
        while self.child.is_none() {
            let spend = |n: usize| n.checked_sub(1);
            if self.fleet.alive.load(Ordering::SeqCst) > 0
                || (self.fleet.respawns_left)
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, spend)
                    .is_err()
            {
                return false;
            }
            if let Ok(child) = Child::fork(self.env) {
                self.fleet.alive.fetch_add(1, Ordering::SeqCst);
                self.child = Some(child);
            }
        }
        true
    }

    fn run_map(
        &mut self,
        copy: &TaskCopy,
        input: usize,
        extent: usize,
        lost: &dyn Fn() -> bool,
    ) -> Outcome<MapTaskOut> {
        let env = self.env;
        let mut w = task_header(0, copy);
        w.u64(input as u64).u64(extent as u64);
        self.call(copy, TaskPhase::Map, w.finish(), lost, |r| {
            read_map_out(r, env)
        })
    }

    fn run_reduce(
        &mut self,
        copy: &TaskCopy,
        slot: &Mutex<ShuffleSlot>,
        lost: &dyn Fn() -> bool,
    ) -> Outcome<ReduceOut> {
        let env = self.env;
        let mut w = task_header(1, copy);
        if let Err(error) = write_slot(&mut w, &lock_slot(slot)) {
            let phase = TaskPhase::Shuffle;
            return Err(Failure { phase, error });
        }
        self.call(copy, TaskPhase::Reduce, w.finish(), lost, |r| {
            read_reduce_out(r, env.sink_schemas)
        })
    }
}

/// The start of a task frame: its kind and the copy's coordinates.
fn task_header(kind: u8, copy: &TaskCopy) -> PayloadWriter {
    let mut w = PayloadWriter::new();
    w.u8(kind)
        .u64(copy.task as u64)
        .u64(copy.attempt as u64)
        .u64(copy.shuffle_attempt as u64)
        .u8(u8::from(copy.speculative));
    w
}

/// One stage's worker processes. Dropping it shuts every child down and
/// reaps it, so no run — clean, chaotic, or failed — leaks a process.
pub(crate) struct Fleet<'e> {
    workers: Vec<Mutex<Forked<'e>>>,
}

impl<'e> Fleet<'e> {
    /// Fork `n` children of the calling thread, before any pool thread of
    /// this stage exists.
    pub fn fork(n: usize, env: &'e StageEnv<'e>) -> Result<Fleet<'e>> {
        let state = Arc::new(FleetState {
            alive: AtomicUsize::new(n),
            respawns_left: AtomicUsize::new(2 * n + 8),
        });
        let mut fleet = Fleet {
            workers: Vec::with_capacity(n),
        };
        for _ in 0..n {
            // An error drops the fleet, which reaps the children so far.
            let child = Some(Child::fork(env)?);
            fleet.workers.push(Mutex::new(Forked {
                env,
                fleet: Arc::clone(&state),
                child,
            }));
        }
        Ok(fleet)
    }

    pub fn workers(&self) -> &[Mutex<Forked<'e>>] {
        &self.workers
    }
}

impl Drop for Fleet<'_> {
    /// Polite `Shutdown` frame to every child first, then a grace period,
    /// then SIGKILL.
    fn drop(&mut self) {
        let children: Vec<Child> = (self.workers.iter())
            .filter_map(|w| lock_slot(w).child.take())
            .collect();
        for child in &children {
            let _ = child.transport.send(&Frame::control(FrameKind::Shutdown));
        }
        let grace = Instant::now() + Duration::from_secs(2);
        for child in &children {
            loop {
                // SAFETY: `child.pid` is an unreaped child of this process;
                // a null status pointer is allowed.
                let done = unsafe { sys::waitpid(child.pid, std::ptr::null_mut(), sys::WNOHANG) };
                if done == child.pid || done < 0 {
                    break;
                }
                if Instant::now() >= grace {
                    kill_and_reap(child.pid);
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::schema::{ColumnType, Field};
    use relation::{row, ColumnBatch, Row};

    fn sink_schema() -> Schema {
        Schema::timestamped(vec![
            Field::new("UserId", ColumnType::Str),
            Field::new("N", ColumnType::Long),
        ])
    }

    fn sealed_sink() -> StoredExtent {
        let rows: Vec<Row> = (0..40i64)
            .map(|i| row![i, format!("u{}", i % 3), i * 2])
            .collect();
        let batch = ColumnBatch::from_rows(&sink_schema(), &rows).unwrap();
        StoredExtent::seal(&sink_schema(), &batch).unwrap()
    }

    /// A worker's successful reduce result frame carrying `sink`.
    fn result_payload(sink: &StoredExtent) -> Vec<u8> {
        let out = ReduceOut {
            sinks: vec![sink.clone()],
            reduce_time: Duration::from_millis(3),
            seal_time: Duration::from_millis(1),
        };
        let mut w = PayloadWriter::new();
        w.u8(0);
        write_reduce_out(&mut w, &out);
        w.finish()
    }

    /// What the driver makes of `payload` for a sink of `schema`.
    fn decode(payload: &[u8], schema: &Schema) -> Outcome<ReduceOut> {
        read_outcome(payload, TaskPhase::Reduce, |r| {
            read_reduce_out(r, std::slice::from_ref(schema))
        })
    }

    /// The named error `payload` decodes to.
    fn refusal(payload: &[u8], schema: &Schema) -> String {
        match decode(payload, schema) {
            Ok(_) => panic!("a hostile payload was accepted"),
            Err(Failure {
                phase: TaskPhase::Reduce,
                error: TaskError::Corrupt { what },
            }) => what,
            Err(Failure { phase, error }) => panic!("charged to {phase}: {error:?}"),
        }
    }

    /// A sink image crosses the socket verbatim and is published as it came.
    #[test]
    fn a_sound_sink_image_is_accepted_as_is() {
        let sink = sealed_sink();
        let Ok(out) = decode(&result_payload(&sink), &sink_schema()) else {
            panic!("a sound payload was refused");
        };
        assert_eq!(out.sinks, vec![sink.clone()]);
        assert_eq!(
            (out.sinks[0].rows, out.sinks[0].width),
            (sink.rows, sink.width)
        );
    }

    /// A sink image with any byte flipped, cut short, of another schema or
    /// of another row count is a named error from the payload decoder —
    /// never a panic, never a sink to publish.
    #[test]
    fn hostile_sink_images_are_named_errors() {
        let sink = sealed_sink();
        let with_image = |image: Vec<u8>| StoredExtent {
            bytes: Arc::new(image),
            ..sink.clone()
        };
        for at in 0..sink.bytes.len() {
            let mut image = sink.bytes.as_ref().clone();
            image[at] ^= 0x5A;
            let what = refusal(&result_payload(&with_image(image)), &sink_schema());
            assert!(what.starts_with("result payload undecodable: "), "{what}");
        }
        let mut cut = sink.bytes.as_ref().clone();
        cut.truncate(cut.len() - 5);
        let miscounted = StoredExtent {
            rows: sink.rows + 1,
            ..sink.clone()
        };
        let narrower = Schema::timestamped(vec![
            Field::new("UserId", ColumnType::Str),
            Field::new("N", ColumnType::Int),
        ]);
        let whole = result_payload(&sink);
        for (payload, schema, want) in [
            (result_payload(&with_image(cut)), sink_schema(), "extent"),
            (
                result_payload(&miscounted),
                sink_schema(),
                "image holds 40 row(s), its extent says 41",
            ),
            (
                whole.clone(),
                narrower,
                "type mismatch in `N`: expected int, got long",
            ),
            (
                whole[..whole.len() - 1].to_vec(),
                sink_schema(),
                "undecodable",
            ),
        ] {
            let what = refusal(&payload, &schema);
            assert!(what.contains(want), "{what}");
        }
    }

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
