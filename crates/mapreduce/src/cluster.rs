//! Stage execution with deterministic fault injection, panic
//! containment, integrity verification, and retry.
//!
//! The [`Cluster`] owns everything a stage shares whoever runs its tasks —
//! input capture, the pure task work (each task seals what it produces: map
//! tasks their shuffle chunks, reduce tasks their sinks' stored extents),
//! the deterministic placement and spill of sealed chunks, corruption
//! rebuild, and all-or-nothing publish. It hands each phase's tasks to the
//! one scheduler (`crate::scheduler`): an attempt ledger that workers pull
//! copies from — pool threads running them in place by default, forked
//! worker processes via [`BackendKind::Processes`].
//!
//! Every attempt of every task (map decode, shuffle fetch, reduce):
//!
//! 1. asks the configured [`ChaosPlan`] whether this
//!    `(stage, phase, task, attempt)` coordinate is scheduled for a fault
//!    (panic / transient error / corruption / delay);
//! 2. runs under `catch_unwind`, so a panic — injected or genuine —
//!    surfaces as a retryable [`TaskError::Panicked`] with its payload
//!    preserved, never a torn-down process;
//! 3. verifies integrity frames on the data it reads, surfacing corruption
//!    as [`TaskError::Corrupt`]; the ledger re-runs the producing work
//!    before the retry;
//! 4. is settled by the ledger, which backs off deterministically
//!    (jitter-free exponential, per [`RetryPolicy`]) between attempts, and
//!    escalates to [`MrError::TaskExhausted`] — naming stage, phase,
//!    partition, and attempt count — when attempts run out.
//!
//! Because tasks are pure and their chunks are placed in `(input, extent)`
//! order, any schedule of contained faults that doesn't exhaust retries
//! yields output byte-identical to a clean run (paper §III-C.1); the property
//! tests in `tests/prop_chaos.rs` enforce exactly that. Stage outputs are
//! only published to the DFS after every partition has succeeded, so
//! partial results of failed attempts are never visible.

use crate::backend::{BackendKind, FaultCounters, ReduceOut, SpeculationPolicy, StageEnv};
use crate::chaos::{self, ChaosPlan, RetryPolicy};
use crate::dfs::{conform, Dataset, Dfs, StoredExtent};
use crate::error::{MrError, Result, TaskError};
use crate::job::{MapperContext, ReducerContext, Stage};
use crate::scheduler::{run_phase, InPlace, Ledger, Worker};
use crate::stats::{JobStats, StageStats};
use pool::WorkerPool;
use relation::{ColumnBatch, Schema};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Local worker threads executing map and reduce tasks.
    pub threads: usize,
    /// Fault-injection schedule (explicit kills and/or seeded faults).
    pub chaos: ChaosPlan,
    /// Per-task retry budget and backoff schedule.
    pub retry: RetryPolicy,
    /// Shuffle memory budget. When set, map tasks run in bounded waves
    /// and seal bounded binary chunks, and sealed chunks beyond the budget
    /// spill to disk files — so a job whose shuffle exceeds RAM still runs
    /// to completion, with byte-identical output (spilling moves bytes,
    /// never changes them). `None` (the default) keeps everything in
    /// memory, one chunk per input extent and slot.
    pub memory_budget_bytes: Option<u64>,
    /// Directory for spill files. `None` uses `$TMPDIR/timr-spill`.
    /// Files are removed when their shuffle slot is dropped.
    pub spill_dir: Option<PathBuf>,
    /// Which kind of worker runs the tasks: pool threads in place
    /// (default) or forked worker OS processes over Unix-domain sockets.
    pub backend: BackendKind,
    /// When an idle worker process is handed a speculative duplicate of a
    /// straggling task.
    pub speculation: SpeculationPolicy,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            chaos: ChaosPlan::none(),
            retry: RetryPolicy::default(),
            memory_budget_bytes: None,
            spill_dir: None,
            backend: BackendKind::Threads,
            speculation: SpeculationPolicy::default(),
        }
    }
}

/// Lock a shuffle-slot mutex, ignoring poisoning: slot mutations happen
/// inside `catch_unwind`, so a poisoned lock cannot actually occur — but
/// an `unwrap()` here would turn a contained fault into a process abort.
pub(crate) fn lock_slot<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Map a dataset-read error to a task error: detected corruption is
/// retryable (the retry re-reads and, for shuffle, rebuilds), anything
/// else is deterministic and fatal.
pub(crate) fn read_error(e: MrError) -> TaskError {
    match e {
        MrError::Corrupt { what } => TaskError::Corrupt { what },
        other => TaskError::Fatal(Box::new(other)),
    }
}

/// The execution engine: runs stages against a [`Dfs`].
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    /// One pool thread per worker: it runs task copies in place, or drives
    /// the worker process they are shipped to.
    pool: WorkerPool,
}

impl Default for Cluster {
    fn default() -> Self {
        Cluster::with_config(ClusterConfig::default())
    }
}

/// Output of one map task: the sealed chunks of a single input extent,
/// per reduce partition, plus accounting.
pub(crate) struct MapTaskOut {
    /// `chunks[p]`: partition `p`'s sealed extent images, in row order.
    pub(crate) chunks: Vec<Vec<Vec<u8>>>,
    pub(crate) rows_in: u64,
    pub(crate) rows_out: u64,
    pub(crate) bytes: u64,
    pub(crate) bytes_saved: u64,
    pub(crate) seal_time: Duration,
}

/// Map-phase accounting carried alongside the shuffle chunks.
#[derive(Default)]
struct MapPhase {
    map_rows: u64,
    map_rows_out: u64,
    shuffle_bytes: u64,
    shuffle_bytes_saved: u64,
    placed: Placement,
    map_tasks: usize,
    map_time: Duration,
    shuffle_time: Duration,
    seal_time: Duration,
}

/// Where the sealed chunks of one stage went: running totals of
/// [`Cluster::place_chunk`].
#[derive(Default)]
struct Placement {
    /// Binary chunk bytes held in memory (what the budget bounds).
    mem_held: u64,
    /// Binary chunk bytes placed, in memory or spilled.
    binary_bytes: u64,
    spill_extents: u64,
    spill_bytes: u64,
}

/// Monotonic suffix keeping concurrent clusters' spill files distinct.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// One sealed chunk of a shuffle partition — a framed binary columnar
/// extent image, the native transfer unit — wherever it was placed.
#[derive(Debug, PartialEq)]
pub(crate) enum ShuffleChunk {
    /// Held in memory.
    Mem(Vec<u8>),
    /// Spilled to a disk file under the memory budget. `bytes` is its
    /// expected length.
    Spilled { path: PathBuf, bytes: u64 },
}

impl Drop for ShuffleChunk {
    fn drop(&mut self) {
        if let ShuffleChunk::Spilled { path, .. } = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Partition the mapped extent `e` of stage input `i` and seal each
/// partition's rows, gathered in row order, into chunks — cut where the
/// rows' widths reach the stage's `chunk_target`, and where the extent ends.
/// Chunk boundaries are therefore a pure function of `(input, extent,
/// partition, target)`, and, the extent encoding being canonical, so are
/// the bytes: a retry, a rebuild after corruption and a worker process all
/// produce the same chunks. With `only`, rows of every other partition are
/// dropped: a partition's chunks depend on its own rows alone, so the one
/// kept comes out exactly as the full scan sealed it.
fn seal_extent(
    env: &StageEnv<'_>,
    i: usize,
    e: usize,
    mapped: &ColumnBatch,
    only: Option<usize>,
) -> std::result::Result<Vec<Vec<Vec<u8>>>, TaskError> {
    let partitions = env.stage.partitions;
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); partitions];
    for (r, p) in env.assigners[i]
        .assign_batch(mapped, partitions)?
        .into_iter()
        .enumerate()
    {
        if only.is_none_or(|keep| keep == p) {
            rows[p].push(r as u32);
        }
    }
    let seal = |idx: &[u32]| {
        let image = match idx.len() == mapped.len() {
            true => mapped.to_extent_bytes(),
            false => mapped.gather(idx).to_extent_bytes(),
        };
        image.map_err(|cause| MrError::IllTyped {
            site: format!("`{}` map input {i} extent {e}", env.stage.name),
            cause,
        })
    };
    let widths = (env.chunk_target < u64::MAX).then(|| mapped.row_widths());
    let mut chunks = Vec::with_capacity(partitions);
    for idx in &rows {
        let (mut sealed, mut from) = (Vec::new(), 0);
        if let Some(widths) = &widths {
            let mut open = 0;
            for (k, &r) in idx.iter().enumerate() {
                open += widths[r as usize];
                if open >= env.chunk_target {
                    sealed.push(seal(&idx[from..=k])?);
                    (from, open) = (k + 1, 0);
                }
            }
        }
        if from < idx.len() {
            sealed.push(seal(&idx[from..])?);
        }
        chunks.push(sealed);
    }
    Ok(chunks)
}

/// One reduce partition's shuffled inputs: per stage input, the chunks
/// its map tasks sealed, in `(extent, chunk)` order — framed before any
/// injected corruption, so every fetch can verify them.
pub(crate) struct ShuffleSlot {
    pub(crate) inputs: Vec<Vec<ShuffleChunk>>,
}

/// Deterministically damage a stored shuffle partition *without* updating
/// its integrity frames — verification must catch the damage: the first
/// chunk (in memory or spilled) gets a single byte flipped mid-buffer.
pub(crate) fn corrupt_slot(slot: &mut ShuffleSlot) {
    for chunks in slot.inputs.iter_mut() {
        for chunk in chunks.iter_mut() {
            match chunk {
                ShuffleChunk::Mem(bytes) => {
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0xFF;
                    return;
                }
                ShuffleChunk::Spilled { path, .. } => {
                    if let Ok(mut bytes) = std::fs::read(&*path) {
                        if !bytes.is_empty() {
                            let mid = bytes.len() / 2;
                            bytes[mid] ^= 0xFF;
                            if std::fs::write(&*path, &bytes).is_ok() {
                                return;
                            }
                        }
                    }
                }
            }
        }
    }
    // An empty partition has no bytes to flip: plant a garbage chunk so
    // verification still has damage to detect (and rebuild removes it).
    if let Some(first) = slot.inputs.first_mut() {
        first.push(ShuffleChunk::Mem(vec![0xAB; 16]));
    }
}

/// Check every chunk of a shuffle slot against the per-column integrity
/// frames inside its image. `Some(description)` on the first mismatch.
pub(crate) fn verify_slot(slot: &ShuffleSlot) -> Option<String> {
    for (i, chunks) in slot.inputs.iter().enumerate() {
        for (c, chunk) in chunks.iter().enumerate() {
            let why = match chunk {
                ShuffleChunk::Mem(bytes) => relation::extent::verify_extent(bytes)
                    .err()
                    .map(|e| e.to_string()),
                ShuffleChunk::Spilled { path, bytes } => match std::fs::read(path) {
                    Ok(data) if data.len() as u64 != *bytes => Some(format!(
                        "length mismatch: {} byte(s), spill manifest says {bytes}",
                        data.len()
                    )),
                    Ok(data) => relation::extent::verify_extent(&data)
                        .err()
                        .map(|e| e.to_string()),
                    Err(e) => Some(format!("spill file unreadable: {e}")),
                },
            };
            if let Some(why) = why {
                return Some(format!("shuffle input {i} chunk {c}: {why}"));
            }
        }
    }
    None
}

/// Re-run the producing side of one reduce partition: decode every input
/// extent in the deterministic `(input, extent)` merge order, re-apply the
/// stage mapper, and seal the rows assigned to `p` with the very functions
/// the map tasks used ([`map_extent`], [`seal_extent`]). Because
/// the mapper and partitioner are pure and sealing is deterministic, the
/// rebuilt chunks are byte-identical to the ones the map tasks produced —
/// spilled chunks are rewritten in place — so re-execution *is* recovery
/// (paper §III-C.1).
pub(crate) fn rebuild_slot(
    env: &StageEnv<'_>,
    p: usize,
    slot: &mut ShuffleSlot,
) -> std::result::Result<(), TaskError> {
    for (i, dataset) in env.inputs.iter().enumerate() {
        let mut rebuilt: Vec<Vec<u8>> = Vec::new();
        for e in 0..dataset.partitions.len() {
            let mapped = map_extent(env, i, e, 0)?;
            rebuilt.append(&mut seal_extent(env, i, e, &mapped, Some(p))?[p]);
        }
        // Put the rebuilt contents back where the originals lived:
        // spilled chunks are rewritten in place, everything else lands in
        // memory; surplus (planted) chunks are dropped.
        let n = rebuilt.len();
        let old = &mut slot.inputs[i];
        for (c, image) in rebuilt.into_iter().enumerate() {
            match old.get_mut(c) {
                Some(ShuffleChunk::Spilled { path, bytes }) => {
                    std::fs::write(&*path, &image).map_err(|e| TaskError::Transient {
                        message: format!("spill rewrite failed at `{}`: {e}", path.display()),
                    })?;
                    *bytes = image.len() as u64;
                }
                Some(mem) => *mem = ShuffleChunk::Mem(image),
                None => old.push(ShuffleChunk::Mem(image)),
            }
        }
        old.truncate(n);
    }
    Ok(())
}

/// Decode one verified slot into one [`ColumnBatch`] per stage input: its
/// chunks decoded and concatenated in order, or an empty batch of the
/// input's mapped schema when no row reached this partition. A decode
/// failure still surfaces as corruption (the ledger checks the stored
/// slot and rebuilds it before the retry).
pub(crate) fn fetch_inputs(
    slot: &ShuffleSlot,
    schemas: &[Schema],
) -> std::result::Result<Vec<ColumnBatch>, TaskError> {
    fn chunk_err(i: usize, c: usize, e: impl std::fmt::Display) -> TaskError {
        TaskError::Corrupt {
            what: format!("shuffle input {i} chunk {c}: {e}"),
        }
    }

    let mut out = Vec::with_capacity(slot.inputs.len());
    for (i, (chunks, schema)) in slot.inputs.iter().zip(schemas).enumerate() {
        let mut batch: Option<ColumnBatch> = None;
        for (c, chunk) in chunks.iter().enumerate() {
            let decoded = match chunk {
                ShuffleChunk::Mem(bytes) => ColumnBatch::from_extent_bytes(bytes),
                ShuffleChunk::Spilled { path, .. } => {
                    let data = std::fs::read(path)
                        .map_err(|e| chunk_err(i, c, format!("spill file unreadable: {e}")))?;
                    ColumnBatch::from_extent_bytes(&data)
                }
            }
            .map_err(|e| chunk_err(i, c, e))?;
            match &mut batch {
                None => batch = Some(decoded),
                Some(b) => b.append(decoded).map_err(|e| chunk_err(i, c, e))?,
            }
        }
        out.push(match batch {
            Some(batch) => batch,
            None => ColumnBatch::from_rows(schema, &[]).map_err(MrError::from)?,
        });
    }
    Ok(out)
}

/// Decode extent `e` of stage input `i` — which verifies every frame of its
/// image, so damage is [`TaskError::Corrupt`] on every attempt — and run the
/// stage mapper, if any, over it. Mapper errors are deterministic (mappers
/// are pure), hence fatal; a batch that is not of the mapped schema is
/// [`MrError::IllTyped`].
fn map_extent(
    env: &StageEnv<'_>,
    i: usize,
    e: usize,
    attempt: usize,
) -> std::result::Result<ColumnBatch, TaskError> {
    let batch = env.inputs[i].batch(e).map_err(read_error)?;
    let Some(mapper) = &env.stage.mapper else {
        return Ok(batch);
    };
    let ctx = MapperContext {
        stage: env.stage.name.clone(),
        input: i,
        extent: e,
        attempt,
    };
    let mapped = mapper.map(&ctx, batch)?;
    conform(&env.mapped_schemas[i], mapped.schema()).map_err(|cause| MrError::IllTyped {
        site: format!("`{}` map input {i} extent {e}", env.stage.name),
        cause,
    })?;
    Ok(mapped)
}

/// One map task attempt: decode input `i` extent `e`, apply the stage
/// mapper, and partition and seal its rows into per-partition chunks
/// ([`seal_extent`]). Pool threads call it in place and worker processes
/// in their own address space, so whoever executes the task, the chunks it
/// contributes are identical.
pub(crate) fn run_map_task(
    env: &StageEnv<'_>,
    i: usize,
    e: usize,
    attempt: usize,
    corrupt: bool,
) -> std::result::Result<MapTaskOut, TaskError> {
    if corrupt {
        // A bad replica read: the extent this attempt saw does not match
        // its frames. The retry re-reads.
        return Err(TaskError::Corrupt {
            what: format!("injected bad read of input {i} extent {e}"),
        });
    }
    // Map-side compute runs here, inside the chaos/retry/integrity
    // envelope, before partitioning.
    let raw = &env.inputs[i].partitions[e];
    let mapped = map_extent(env, i, e, attempt)?;
    let start = Instant::now();
    let chunks = seal_extent(env, i, e, &mapped, None)?;
    let (bytes, bytes_saved) = match env.stage.mapper {
        Some(_) => (mapped.width(), raw.width.saturating_sub(mapped.width())),
        None => (raw.width, 0),
    };
    Ok(MapTaskOut {
        chunks,
        rows_in: raw.rows,
        rows_out: mapped.len() as u64,
        bytes,
        bytes_saved,
        seal_time: start.elapsed(),
    })
}

/// One reduce attempt for partition `p` over already-fetched inputs, which
/// it consumes: the reducer takes them by value, and a retry fetches the
/// slot again ([`fetch_inputs`]). The reducer is a pure function of the
/// (verified) partition, so every retry — on any worker — reproduces the
/// same batches. Each sink's extent is sealed here, inside the task, so the
/// coordinator publishes finished extents instead of encoding them one
/// partition at a time after the pool has gone idle. A sink batch that is
/// not of its sink's schema is [`MrError::IllTyped`].
pub(crate) fn run_reduce_task(
    env: &StageEnv<'_>,
    p: usize,
    attempt: usize,
    fetched: Vec<ColumnBatch>,
) -> std::result::Result<ReduceOut, TaskError> {
    let ctx = ReducerContext {
        stage: env.stage.name.clone(),
        partition: p,
        partitions: env.stage.partitions,
        attempt,
    };
    let start = Instant::now();
    let out = env.stage.reducer.reduce(&ctx, fetched)?;
    if out.len() != env.expected_sinks {
        return Err(TaskError::Fatal(Box::new(MrError::BadStage(format!(
            "stage `{}` reducer produced {} sink(s), stage declares {}",
            env.stage.name,
            out.len(),
            env.expected_sinks
        )))));
    }
    let reduce_time = start.elapsed();
    let mut sinks = Vec::with_capacity(out.len());
    for (sink, (batch, schema)) in out.iter().zip(env.sink_schemas).enumerate() {
        let stored = StoredExtent::seal(schema, batch).map_err(|cause| MrError::IllTyped {
            site: format!("`{}` reduce sink {sink} partition {p}", env.stage.name),
            cause,
        })?;
        sinks.push(stored);
    }
    Ok(ReduceOut {
        sinks,
        reduce_time,
        seal_time: start.elapsed() - reduce_time,
    })
}

impl Cluster {
    /// Cluster with default configuration.
    pub fn new() -> Self {
        Cluster::default()
    }

    /// Cluster with explicit configuration.
    pub fn with_config(config: ClusterConfig) -> Self {
        // Without `fork` (non-Unix targets) worker processes fall back to
        // as many pool threads.
        let workers = match config.backend {
            BackendKind::Threads => config.threads,
            BackendKind::Processes { workers } => workers,
        };
        Cluster {
            config,
            pool: WorkerPool::new(workers),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Seal threshold for one (input, extent, partition) chunk: a
    /// fraction of the memory budget so a wave of sealed task output plus
    /// the in-memory chunk pool stay bounded. Unbudgeted runs never seal
    /// early (one chunk per extent and partition).
    fn chunk_target(&self, inputs: usize, partitions: usize) -> u64 {
        match self.config.memory_budget_bytes {
            None => u64::MAX,
            Some(b) => (b / (inputs.max(1) as u64 * partitions.max(1) as u64 * 4))
                .clamp(32 * 1024, 256 * 1024 * 1024),
        }
    }

    /// A fresh spill file path (unique per process and sequence number).
    fn spill_path(&self, stage: &str) -> Result<PathBuf> {
        let dir = self
            .config
            .spill_dir
            .clone()
            .unwrap_or_else(|| std::env::temp_dir().join("timr-spill"));
        std::fs::create_dir_all(&dir).map_err(|e| MrError::Io {
            what: "create spill dir".to_string(),
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let tag: String = stage
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        Ok(dir.join(format!("{tag}-{}-{seq}.extent", std::process::id())))
    }

    /// Place one sealed chunk: in memory until the budget is reached, then
    /// spilled to disk. Placement never changes bytes, so it cannot affect
    /// output — only where they live.
    fn place_chunk(
        &self,
        stage_name: &str,
        image: Vec<u8>,
        placed: &mut Placement,
        out: &mut Vec<ShuffleChunk>,
    ) -> Result<()> {
        let len = image.len() as u64;
        placed.binary_bytes += len;
        let over_budget = self
            .config
            .memory_budget_bytes
            .is_some_and(|b| placed.mem_held + len > b);
        if over_budget {
            let path = self.spill_path(stage_name)?;
            std::fs::write(&path, &image).map_err(|e| MrError::Io {
                what: "write spill extent".to_string(),
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
            placed.spill_extents += 1;
            placed.spill_bytes += len;
            out.push(ShuffleChunk::Spilled { path, bytes: len });
        } else {
            placed.mem_held += len;
            out.push(ShuffleChunk::Mem(image));
        }
        Ok(())
    }

    /// Parallel map/shuffle: one map task per input extent on the worker
    /// pool — each partitions its extent and seals its own chunks — then a
    /// deterministic merge that only *places* the finished chunks (in
    /// memory, or spilled past the memory budget).
    ///
    /// Returns `chunks[input][partition]` encoding exactly the rows the
    /// serial scan would produce, in the same order: tasks are merged in
    /// `(input, extent)` order and each task preserves row order within
    /// its extent, so the shuffle output is independent of thread count,
    /// scheduling, and injected faults — the repeatability property
    /// (paper §III-C.1) that restart determinism is built on. Under a
    /// memory budget, map tasks run in bounded waves so unplaced task
    /// output never exceeds a few extents per worker.
    fn map_shuffle<W: Worker>(
        &self,
        env: &StageEnv<'_>,
        workers: &[Mutex<W>],
    ) -> Result<(Vec<Vec<Vec<ShuffleChunk>>>, MapPhase)> {
        let stage = env.stage;
        let inputs = env.inputs;
        // One map task per (input, extent), in deterministic order.
        let tasks: Vec<(usize, usize)> = inputs
            .iter()
            .enumerate()
            .flat_map(|(i, d)| (0..d.partitions.len()).map(move |e| (i, e)))
            .collect();
        let mut chunks: Vec<Vec<Vec<ShuffleChunk>>> = inputs
            .iter()
            .map(|_| (0..stage.partitions).map(|_| Vec::new()).collect())
            .collect();
        let mut phase = MapPhase {
            map_tasks: tasks.len(),
            ..MapPhase::default()
        };

        // Unbudgeted runs execute every task in one wave (maximum
        // parallelism); budgeted runs bound the unplaced task output held
        // in memory to one wave's worth.
        let wave = if self.config.memory_budget_bytes.is_some() {
            self.pool.threads() * 2
        } else {
            tasks.len().max(1)
        };
        for (w, wave_tasks) in tasks.chunks(wave).enumerate() {
            let base = w * wave;
            let map_start = Instant::now();
            let ledger = Ledger::new(env, base, wave_tasks.len(), None);
            run_phase(&self.pool, &ledger, workers, |worker, copy, lost| {
                let (i, e) = wave_tasks[copy.task - base];
                worker.run_map(copy, i, e, lost)
            });
            let results: Vec<Result<MapTaskOut>> = ledger.into_results();
            phase.map_time += map_start.elapsed();

            // Place chunks in task order == (input, extent) order. Errors
            // propagate from the lowest task index so failure is
            // deterministic too.
            let place_start = Instant::now();
            for (k, out) in results.into_iter().enumerate() {
                let (i, _) = tasks[base + k];
                let out = out?;
                phase.map_rows += out.rows_in;
                phase.map_rows_out += out.rows_out;
                phase.shuffle_bytes += out.bytes;
                phase.shuffle_bytes_saved += out.bytes_saved;
                phase.seal_time += out.seal_time;
                for (p, sealed) in out.chunks.into_iter().enumerate() {
                    for image in sealed {
                        self.place_chunk(&stage.name, image, &mut phase.placed, &mut chunks[i][p])?;
                    }
                }
            }
            phase.shuffle_time += place_start.elapsed();
        }
        Ok((chunks, phase))
    }

    /// One in-place worker per pool thread.
    fn in_place<'e>(&self, env: &'e StageEnv<'e>) -> Vec<Mutex<InPlace<'e>>> {
        (0..self.pool.threads())
            .map(|_| Mutex::new(InPlace(env)))
            .collect()
    }

    /// Fetch/verify and reduce every partition on `workers`, returning
    /// per-partition results in partition order.
    fn reduce<W: Worker>(
        &self,
        env: &StageEnv<'_>,
        workers: &[Mutex<W>],
        shuffle: &[Mutex<ShuffleSlot>],
    ) -> Vec<Result<ReduceOut>> {
        let ledger = Ledger::new(env, 0, shuffle.len(), Some(shuffle));
        run_phase(&self.pool, &ledger, workers, |worker, copy, lost| {
            worker.run_reduce(copy, &shuffle[copy.task], lost)
        });
        ledger.into_results()
    }

    /// Both phases of one stage on `workers`: map/shuffle, then reduce over
    /// the per-partition slots. Returns the map accounting, when the reduce
    /// phase began, and the per-partition results.
    fn run_tasks<W: Worker>(
        &self,
        env: &StageEnv<'_>,
        workers: &[Mutex<W>],
    ) -> Result<(MapPhase, Instant, Vec<Result<ReduceOut>>)> {
        let (mut chunks, map_phase) = self.map_shuffle(env, workers)?;
        // Transpose chunks into per-partition slots once; workers (and
        // every restart attempt) read the same sealed chunks — framed
        // before any injected corruption touches the slot.
        let reduce_start = Instant::now();
        let shuffle: Vec<Mutex<ShuffleSlot>> = (0..env.stage.partitions)
            .map(|p| {
                let slot_inputs: Vec<Vec<ShuffleChunk>> = chunks
                    .iter_mut()
                    .map(|per_input| std::mem::take(&mut per_input[p]))
                    .collect();
                Mutex::new(ShuffleSlot {
                    inputs: slot_inputs,
                })
            })
            .collect();
        let results = self.reduce(env, workers, &shuffle);
        Ok((map_phase, reduce_start, results))
    }

    /// Run one stage: map (partition) each input dataset in parallel, then
    /// reduce each partition on the same workers, writing the output
    /// dataset to the DFS only after every partition has succeeded.
    pub fn run_stage(&self, dfs: &Dfs, stage: &Stage) -> Result<StageStats> {
        if self.config.chaos.injects_panics() {
            chaos::install_quiet_injected_panic_hook();
        }
        let wall_start = Instant::now();
        let inputs: Vec<Dataset> = stage
            .inputs
            .iter()
            .map(|n| dfs.get(n))
            .collect::<Result<Vec<_>>>()?;
        // Mapper fragments rewrite extents before partitioning, so everything
        // downstream of the map phase — partitioners, chunk sealing,
        // rebuilds, reducer sink schemas — sees the *mapped* schema.
        let mapped_schemas: Vec<Schema> = match stage.mapper.as_ref() {
            Some(m) => inputs
                .iter()
                .enumerate()
                .map(|(i, d)| m.output_schema(i, &d.schema))
                .collect::<Result<Vec<_>>>()?,
            None => inputs.iter().map(|d| d.schema.clone()).collect(),
        };
        // One compiled partitioner per input (schemas can differ); shared
        // by the map phase and shuffle-partition rebuilds.
        let assigners = mapped_schemas
            .iter()
            .map(|schema| stage.partitioner.compile(schema))
            .collect::<Result<Vec<_>>>()?;
        // Sink schemas and arity are validated before any worker spawns,
        // so a misconfigured stage never pays a fork (and worker
        // processes inherit the schemas for result encoding).
        let expected_sinks = 1 + stage.aux_outputs.len();
        let sink_schemas = stage.reducer.sink_schemas(&mapped_schemas)?;
        if sink_schemas.len() != expected_sinks {
            return Err(MrError::BadStage(format!(
                "stage `{}` declares {} sink schema(s) but {} sink name(s)",
                stage.name,
                sink_schemas.len(),
                expected_sinks
            )));
        }
        let counters = FaultCounters::default();
        let env = StageEnv {
            stage,
            inputs: &inputs,
            mapped_schemas: &mapped_schemas,
            assigners: &assigners,
            sink_schemas: &sink_schemas,
            config: &self.config,
            counters: &counters,
            chunk_target: self.chunk_target(inputs.len(), stage.partitions),
            expected_sinks,
        };
        // Staff the stage. Worker processes are forked here, after the env
        // (inputs included) is fully built, and reaped when the fleet drops
        // — on every path, so a failed phase leaves no orphan behind.
        let (map_phase, reduce_start, results) = match self.config.backend {
            #[cfg(unix)]
            BackendKind::Processes { .. } => {
                let fleet = crate::process::Fleet::fork(self.pool.threads(), &env)?;
                self.run_tasks(&env, fleet.workers())?
            }
            _ => self.run_tasks(&env, &self.in_place(&env))?,
        };

        // ---- collect ----
        // Nothing is published until every partition result is Ok, so a
        // failed attempt can never leave partial output in the DFS.
        let mut sinks_out: Vec<Vec<StoredExtent>> = (0..expected_sinks)
            .map(|_| Vec::with_capacity(stage.partitions))
            .collect();
        let mut sink_rows = vec![0u64; expected_sinks];
        let mut partition_times = Vec::with_capacity(stage.partitions);
        let mut output_rows = 0u64;
        let mut seal_time = map_phase.seal_time;
        for result in results {
            let out = result?;
            partition_times.push(out.reduce_time);
            seal_time += out.seal_time;
            for (sink, stored) in out.sinks.into_iter().enumerate() {
                output_rows += stored.rows;
                sink_rows[sink] += stored.rows;
                sinks_out[sink].push(stored);
            }
        }
        let reduce_wall_time = reduce_start.elapsed();

        // ---- publish ----
        // The reduce tasks sealed every extent; the coordinator only names
        // them.
        let publish_start = Instant::now();
        for ((name, schema), extents) in stage.sink_names().zip(sink_schemas).zip(sinks_out) {
            let partitions = Arc::new(extents);
            dfs.put_overwrite(name, Dataset { schema, partitions });
        }
        let publish_time = publish_start.elapsed();

        Ok(StageStats {
            name: stage.name.clone(),
            map_rows: map_phase.map_rows,
            map_rows_in: map_phase.map_rows,
            map_rows_out: map_phase.map_rows_out,
            shuffle_bytes_saved: map_phase.shuffle_bytes_saved,
            map_tasks: map_phase.map_tasks,
            map_time: map_phase.map_time,
            shuffle_time: map_phase.shuffle_time,
            shuffle_bytes: map_phase.shuffle_bytes,
            shuffle_bytes_binary: map_phase.placed.binary_bytes,
            spill_extents: map_phase.placed.spill_extents,
            spill_bytes: map_phase.placed.spill_bytes,
            seal_time,
            reduce_wall_time,
            publish_time,
            output_rows,
            sink_rows,
            partitions: stage.partitions,
            partition_times,
            wall_time: wall_start.elapsed(),
            task_retries: counters.retries.load(Ordering::Relaxed),
            panics_contained: counters.panics.load(Ordering::Relaxed),
            transient_faults: counters.transients.load(Ordering::Relaxed),
            corruption_detected: counters.corruptions.load(Ordering::Relaxed),
            delays_injected: counters.delays.load(Ordering::Relaxed),
            backoff_time: Duration::from_nanos(counters.backoff_ns.load(Ordering::Relaxed)),
            heartbeats_missed: counters.heartbeats_missed.load(Ordering::Relaxed),
            tasks_timed_out: counters.timeouts.load(Ordering::Relaxed),
            speculative_launched: counters.spec_launched.load(Ordering::Relaxed),
            speculative_wins: counters.spec_wins.load(Ordering::Relaxed),
            workers_lost: counters.workers_lost.load(Ordering::Relaxed),
        })
    }

    /// Run stages in order, returning accumulated statistics.
    pub fn run_job(&self, dfs: &Dfs, stages: &[Stage]) -> Result<JobStats> {
        let mut stats = JobStats::default();
        for stage in stages {
            stats.stages.push(self.run_stage(dfs, stage)?);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TaskPhase;
    use crate::job::{IdentityReducer, Mapper, Partitioner, Reducer, ReducerRef};
    use proptest::prelude::*;
    use relation::schema::{ColumnType, Field};
    use relation::{row, Row, Schema, Value};
    use std::sync::Arc;

    fn schema() -> Schema {
        Schema::timestamped(vec![Field::new("UserId", ColumnType::Str)])
    }

    fn input_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| row![i as i64, format!("u{}", i % 7)])
            .collect()
    }

    fn dfs_with_input(n: usize) -> Dfs {
        let dfs = Dfs::new();
        dfs.put("in", Dataset::single(schema(), input_rows(n)))
            .unwrap();
        dfs
    }

    /// Counts rows per partition — sensitive to partitioning, so restart
    /// determinism is observable.
    #[derive(Debug)]
    struct CountReducer;

    impl Reducer for CountReducer {
        fn output_schema(&self, _inputs: &[Schema]) -> Result<Schema> {
            Ok(Schema::new(vec![
                Field::new("Partition", ColumnType::Long),
                Field::new("N", ColumnType::Long),
            ]))
        }

        fn reduce(
            &self,
            ctx: &ReducerContext,
            inputs: Vec<ColumnBatch>,
        ) -> Result<Vec<ColumnBatch>> {
            let n: usize = inputs.iter().map(ColumnBatch::len).sum();
            let row = row![ctx.partition as i64, n as i64];
            Ok(vec![ColumnBatch::from_rows(
                &self.output_schema(&[])?,
                &[row],
            )?])
        }
    }

    fn count_stage(partitions: usize) -> Stage {
        Stage::new(
            "count",
            vec!["in".into()],
            "out",
            Partitioner::KeyHash {
                columns: vec!["UserId".into()],
            },
            partitions,
            Arc::new(CountReducer),
        )
        .unwrap()
    }

    fn config(threads: usize, chaos: ChaosPlan, max_attempts: usize) -> ClusterConfig {
        ClusterConfig {
            threads,
            chaos,
            retry: RetryPolicy::no_backoff(max_attempts),
            ..ClusterConfig::default()
        }
    }

    /// Splits rows across two sinks by key parity — exercises the
    /// multi-sink publish path (`aux_outputs`).
    #[derive(Debug)]
    struct SplitReducer;

    impl Reducer for SplitReducer {
        fn output_schema(&self, inputs: &[Schema]) -> Result<Schema> {
            Ok(inputs[0].clone())
        }

        fn sink_schemas(&self, inputs: &[Schema]) -> Result<Vec<Schema>> {
            Ok(vec![inputs[0].clone(), inputs[0].clone()])
        }

        fn reduce(
            &self,
            _ctx: &ReducerContext,
            inputs: Vec<ColumnBatch>,
        ) -> Result<Vec<ColumnBatch>> {
            let input = &inputs[0];
            let ts = input.column(0);
            let even: Vec<bool> = (0..input.len())
                .map(|i| ts.value(i).as_long().unwrap() % 2 == 0)
                .collect();
            let odd: Vec<bool> = even.iter().map(|e| !e).collect();
            let (mut a, mut b) = (input.clone(), input.clone());
            a.retain(&even);
            b.retain(&odd);
            Ok(vec![a, b])
        }
    }

    #[test]
    fn multi_sink_stage_publishes_every_sink() {
        let dfs = dfs_with_input(40);
        let stage = Stage::new(
            "split",
            vec!["in".into()],
            "even",
            Partitioner::KeyHash {
                columns: vec!["UserId".into()],
            },
            4,
            Arc::new(SplitReducer),
        )
        .unwrap()
        .with_aux_outputs(vec!["odd".into()]);
        let stats = Cluster::new().run_stage(&dfs, &stage).unwrap();
        let even = dfs.get("even").unwrap().scan();
        let odd = dfs.get("odd").unwrap().scan();
        assert_eq!(even.len() + odd.len(), 40);
        assert!(even.iter().all(|r| r.get(0).as_long().unwrap() % 2 == 0));
        assert!(odd.iter().all(|r| r.get(0).as_long().unwrap() % 2 == 1));
        assert_eq!(stats.output_rows, 40);
        assert_eq!(stats.sink_rows, vec![even.len() as u64, odd.len() as u64]);
    }

    #[test]
    fn single_sink_stats_report_one_sink() {
        let dfs = dfs_with_input(10);
        let stats = Cluster::new().run_stage(&dfs, &count_stage(2)).unwrap();
        assert_eq!(stats.sink_rows.len(), 1);
        assert_eq!(stats.sink_rows[0], stats.output_rows);
    }

    #[test]
    fn rows_with_same_key_land_in_same_partition() {
        let dfs = dfs_with_input(100);
        let cluster = Cluster::new();
        let stats = cluster.run_stage(&dfs, &count_stage(4)).unwrap();
        assert_eq!(stats.map_rows, 100);
        let out = dfs.get("out").unwrap();
        let total: i64 = out.scan().iter().map(|r| r.get(1).as_long().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn identity_stage_preserves_all_rows() {
        let dfs = dfs_with_input(50);
        let r: ReducerRef = Arc::new(IdentityReducer);
        let stage = Stage::new("id", vec!["in".into()], "copy", Partitioner::Spread, 8, r).unwrap();
        Cluster::new().run_stage(&dfs, &stage).unwrap();
        let mut original = dfs.get("in").unwrap().scan();
        let mut copied = dfs.get("copy").unwrap().scan();
        original.sort();
        copied.sort();
        assert_eq!(original, copied);
    }

    #[test]
    fn output_is_identical_with_and_without_injected_failures() {
        // Multi-extent input so the parallel map phase actually has
        // several tasks whose merge order matters.
        let multi_extent_input = || {
            let rows = input_rows(400);
            Dataset::partitioned(schema(), rows.chunks(100).map(|c| c.to_vec()).collect())
        };
        // Returns (shuffle buckets, output partitions, stats) for one run.
        let run = |threads: usize, chaos: ChaosPlan| {
            let dfs = Dfs::new();
            dfs.put("in", multi_extent_input()).unwrap();
            let cluster = Cluster::with_config(config(threads, chaos, 3));
            let stage = count_stage(4);
            let buckets = with_shuffle(&cluster, &dfs, &stage, u64::MAX, |_, slots, _| {
                slots.iter().map(images).collect::<Vec<_>>()
            });
            let stats = cluster.run_stage(&dfs, &stage).unwrap();
            let out = dfs.get("out").unwrap().partitions;
            (buckets, out, stats)
        };

        let (serial_buckets, clean, s1) = run(1, ChaosPlan::none());
        let (parallel_buckets, parallel_clean, _) = run(8, ChaosPlan::none());
        let (killed_buckets, with_failures, s2) = run(
            8,
            ChaosPlan::none().kill("count", TaskPhase::Reduce, 1).kill(
                "count",
                TaskPhase::Reduce,
                3,
            ),
        );

        // Shuffle buckets must be byte-identical across thread counts and
        // failure plans: the deterministic (input, extent) merge order.
        assert_eq!(
            serial_buckets, parallel_buckets,
            "shuffle must be independent of thread count"
        );
        assert_eq!(
            serial_buckets, killed_buckets,
            "shuffle must be independent of injected failures"
        );
        // And so must the reduce outputs.
        assert_eq!(
            clean, parallel_clean,
            "output must be independent of thread count"
        );
        assert_eq!(clean, with_failures, "restart must be deterministic");
        assert_eq!(s1.map_tasks, 4, "one map task per input extent");
        assert_eq!(s1.task_retries, 0);
        assert_eq!(s2.task_retries, 2);
        assert_eq!(s2.transient_faults, 2);
    }

    #[test]
    fn kills_reach_map_and_shuffle_tasks_too() {
        // The old FailurePlan could only target reduce tasks; ChaosPlan
        // kills any phase, and the run still converges to identical bytes.
        let multi_extent_input = || {
            let rows = input_rows(300);
            Dataset::partitioned(schema(), rows.chunks(75).map(|c| c.to_vec()).collect())
        };
        let run = |chaos: ChaosPlan| {
            let dfs = Dfs::new();
            dfs.put("in", multi_extent_input()).unwrap();
            let cluster = Cluster::with_config(config(4, chaos, 3));
            let stats = cluster.run_stage(&dfs, &count_stage(4)).unwrap();
            (dfs.get("out").unwrap().partitions, stats)
        };
        let (clean, s0) = run(ChaosPlan::none());
        let (killed, s1) = run(ChaosPlan::none()
            .kill("count", TaskPhase::Map, 0)
            .kill("count", TaskPhase::Map, 3)
            .kill("count", TaskPhase::Shuffle, 2)
            .kill("count", TaskPhase::Reduce, 1));
        assert_eq!(clean, killed);
        assert_eq!(s0.task_retries, 0);
        assert_eq!(s1.task_retries, 4);
        assert_eq!(s1.transient_faults, 4);
    }

    #[test]
    fn injected_corruption_is_detected_and_recovered() {
        let multi_extent_input = || {
            let rows = input_rows(200);
            Dataset::partitioned(schema(), rows.chunks(50).map(|c| c.to_vec()).collect())
        };
        let run = |chaos: ChaosPlan| {
            let dfs = Dfs::new();
            dfs.put("in", multi_extent_input()).unwrap();
            let cluster = Cluster::with_config(config(4, chaos, 3));
            let stats = cluster.run_stage(&dfs, &count_stage(4)).unwrap();
            (dfs.get("out").unwrap().partitions, stats)
        };
        let (clean, _) = run(ChaosPlan::none());
        // One corrupted map read and one corrupted (actually mutated, then
        // rebuilt) shuffle partition.
        let (recovered, stats) = run(ChaosPlan::none()
            .corrupt("count", TaskPhase::Map, 1)
            .corrupt("count", TaskPhase::Shuffle, 2));
        assert_eq!(clean, recovered, "recovery must reproduce clean bytes");
        assert_eq!(stats.corruption_detected, 2);
        assert_eq!(stats.task_retries, 2);
    }

    #[test]
    fn injected_panics_are_contained_and_retried() {
        let dfs = dfs_with_input(60);
        let chaos = ChaosPlan::seeded(11).with_panics(0.4).with_fault_cap(2);
        let cluster = Cluster::with_config(config(4, chaos, 4));
        let stats = cluster.run_stage(&dfs, &count_stage(6)).unwrap();
        assert!(
            stats.panics_contained > 0,
            "p=0.4 over ≥13 task coordinates should panic at least once"
        );
        let clean_dfs = dfs_with_input(60);
        Cluster::with_config(config(1, ChaosPlan::none(), 1))
            .run_stage(&clean_dfs, &count_stage(6))
            .unwrap();
        assert_eq!(
            dfs.get("out").unwrap().partitions,
            clean_dfs.get("out").unwrap().partitions
        );
    }

    #[test]
    fn parallel_map_preserves_serial_scan_order() {
        // An identity stage over a multi-extent input: with a single
        // reduce partition, the output must equal the serial scan order
        // exactly (not just as a multiset), for any thread count.
        let rows = input_rows(250);
        let extents: Vec<Vec<Row>> = rows.chunks(50).map(|c| c.to_vec()).collect();
        let expected = rows;
        for threads in [1, 2, 8] {
            let dfs = Dfs::new();
            dfs.put("in", Dataset::partitioned(schema(), extents.clone()))
                .unwrap();
            let cluster = Cluster::with_config(config(threads, ChaosPlan::none(), 1));
            let stage = Stage::new(
                "id",
                vec!["in".into()],
                "out",
                Partitioner::Single,
                1,
                Arc::new(IdentityReducer) as ReducerRef,
            )
            .unwrap();
            let stats = cluster.run_stage(&dfs, &stage).unwrap();
            assert_eq!(stats.map_tasks, 5);
            assert_eq!(
                dfs.get("out").unwrap().scan(),
                expected,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn exhaustion_names_stage_phase_partition_and_attempts() {
        for (phase, task) in [
            (TaskPhase::Map, 0),
            (TaskPhase::Shuffle, 1),
            (TaskPhase::Reduce, 0),
        ] {
            let dfs = dfs_with_input(10);
            let cluster =
                Cluster::with_config(config(1, ChaosPlan::none().kill("count", phase, task), 1));
            let err = cluster.run_stage(&dfs, &count_stage(2)).unwrap_err();
            match &err {
                MrError::TaskExhausted {
                    stage,
                    phase: got_phase,
                    partition,
                    attempts,
                    last,
                } => {
                    assert_eq!(stage, "count");
                    assert_eq!(*got_phase, phase);
                    assert_eq!(*partition, task);
                    assert_eq!(*attempts, 1);
                    assert!(matches!(**last, TaskError::Transient { .. }));
                }
                other => panic!("expected TaskExhausted, got {other:?}"),
            }
            // Partial outputs of the failed stage must never be visible.
            assert!(!dfs.contains("out"), "phase {phase}: no partial output");
        }
    }

    #[test]
    fn exhaustion_error_is_deterministic_across_threads() {
        let run = |threads: usize| {
            let dfs = dfs_with_input(40);
            let chaos = ChaosPlan::seeded(3).with_transients(1.0);
            Cluster::with_config(config(threads, chaos, 2))
                .run_stage(&dfs, &count_stage(4))
                .unwrap_err()
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial, parallel, "failure must be deterministic too");
        assert_eq!(format!("{serial}"), format!("{parallel}"));
    }

    #[test]
    fn genuine_reducer_panic_is_contained_and_exhausts_deterministically() {
        #[derive(Debug)]
        struct PanickyReducer;
        impl Reducer for PanickyReducer {
            fn output_schema(&self, inputs: &[Schema]) -> Result<Schema> {
                Ok(inputs[0].clone())
            }
            fn reduce(
                &self,
                ctx: &ReducerContext,
                _: Vec<ColumnBatch>,
            ) -> Result<Vec<ColumnBatch>> {
                panic!("reducer bug in partition {}", ctx.partition);
            }
        }
        let dfs = dfs_with_input(10);
        let stage = Stage::new(
            "boom",
            vec!["in".into()],
            "out",
            Partitioner::Single,
            1,
            Arc::new(PanickyReducer) as ReducerRef,
        )
        .unwrap();
        let cluster = Cluster::with_config(config(2, ChaosPlan::none(), 2));
        let err = cluster.run_stage(&dfs, &stage).unwrap_err();
        match err {
            MrError::TaskExhausted {
                phase,
                attempts,
                last,
                ..
            } => {
                assert_eq!(phase, TaskPhase::Reduce);
                assert_eq!(attempts, 2, "a genuine panic is retried, then exhausts");
                match *last {
                    TaskError::Panicked { payload } => {
                        assert_eq!(payload, "reducer bug in partition 0")
                    }
                    other => panic!("expected Panicked, got {other:?}"),
                }
            }
            other => panic!("expected TaskExhausted, got {other:?}"),
        }
        assert!(!dfs.contains("out"));
    }

    #[test]
    fn multi_input_stage_delivers_per_input_rows() {
        #[derive(Debug)]
        struct AritiesReducer;
        impl Reducer for AritiesReducer {
            fn output_schema(&self, _: &[Schema]) -> Result<Schema> {
                Ok(Schema::new(vec![
                    Field::new("A", ColumnType::Long),
                    Field::new("B", ColumnType::Long),
                ]))
            }
            fn reduce(
                &self,
                _: &ReducerContext,
                inputs: Vec<ColumnBatch>,
            ) -> Result<Vec<ColumnBatch>> {
                let row = row![inputs[0].len() as i64, inputs[1].len() as i64];
                Ok(vec![ColumnBatch::from_rows(
                    &self.output_schema(&[])?,
                    &[row],
                )?])
            }
        }
        let dfs = Dfs::new();
        dfs.put("a", Dataset::single(schema(), input_rows(5)))
            .unwrap();
        dfs.put("b", Dataset::single(schema(), input_rows(9)))
            .unwrap();
        let stage = Stage::new(
            "two",
            vec!["a".into(), "b".into()],
            "out",
            Partitioner::Single,
            1,
            Arc::new(AritiesReducer),
        )
        .unwrap();
        Cluster::new().run_stage(&dfs, &stage).unwrap();
        assert_eq!(dfs.get("out").unwrap().scan(), vec![row![5i64, 9i64]]);
    }

    #[test]
    fn memory_budget_spills_and_output_is_identical() {
        let multi_extent_input = || {
            let rows = input_rows(600);
            Dataset::partitioned(schema(), rows.chunks(100).map(|c| c.to_vec()).collect())
        };
        let run = |budget: Option<u64>| {
            let dfs = Dfs::new();
            dfs.put("in", multi_extent_input()).unwrap();
            let spill = tempdir();
            let cluster = Cluster::with_config(ClusterConfig {
                threads: 4,
                memory_budget_bytes: budget,
                spill_dir: Some(spill.clone()),
                ..ClusterConfig::default()
            });
            let stats = cluster.run_stage(&dfs, &count_stage(4)).unwrap();
            let out = dfs.get("out").unwrap().partitions;
            std::fs::remove_dir_all(&spill).ok();
            (out, stats)
        };
        let (unbudgeted, s0) = run(None);
        let (budgeted, s1) = run(Some(1024));
        assert_eq!(s0.spill_extents, 0, "no budget, no spill");
        assert!(
            s1.spill_extents > 0,
            "a 1 KiB budget must force extents to disk"
        );
        assert!(s1.spill_bytes > 0);
        assert!(s1.shuffle_bytes_binary > 0);
        assert_eq!(
            unbudgeted, budgeted,
            "spilling must never change output bytes"
        );
    }

    #[test]
    fn spilled_chunk_corruption_is_detected_and_recovered() {
        let multi_extent_input = || {
            let rows = input_rows(400);
            Dataset::partitioned(schema(), rows.chunks(100).map(|c| c.to_vec()).collect())
        };
        let run = |chaos: ChaosPlan| {
            let dfs = Dfs::new();
            dfs.put("in", multi_extent_input()).unwrap();
            let spill = tempdir();
            let cluster = Cluster::with_config(ClusterConfig {
                threads: 4,
                chaos,
                retry: RetryPolicy::no_backoff(3),
                memory_budget_bytes: Some(1024),
                spill_dir: Some(spill.clone()),
                ..ClusterConfig::default()
            });
            let stats = cluster.run_stage(&dfs, &count_stage(4)).unwrap();
            let out = dfs.get("out").unwrap().partitions;
            std::fs::remove_dir_all(&spill).ok();
            (out, stats)
        };
        let (clean, _) = run(ChaosPlan::none());
        let (recovered, stats) = run(ChaosPlan::none().corrupt("count", TaskPhase::Shuffle, 1));
        assert_eq!(
            clean, recovered,
            "spilled rebuild must reproduce clean bytes"
        );
        assert_eq!(stats.corruption_detected, 1);
        assert_eq!(stats.task_retries, 1);
    }

    #[test]
    fn every_input_arrives_as_a_batch_of_its_schema_even_when_empty() {
        #[derive(Debug)]
        struct SchemaCheckingReducer;
        impl Reducer for SchemaCheckingReducer {
            fn output_schema(&self, _: &[Schema]) -> Result<Schema> {
                Ok(Schema::new(vec![Field::new("N", ColumnType::Long)]))
            }
            fn reduce(
                &self,
                _: &ReducerContext,
                inputs: Vec<ColumnBatch>,
            ) -> Result<Vec<ColumnBatch>> {
                assert_eq!(inputs.len(), 1);
                assert_eq!(inputs[0].schema(), &schema());
                let row = row![inputs[0].len() as i64];
                Ok(vec![ColumnBatch::from_rows(
                    &self.output_schema(&[])?,
                    &[row],
                )?])
            }
        }
        // Seven users over sixteen partitions: most partitions get no row.
        let dfs = dfs_with_input(90);
        let stage = Stage::new(
            "batch",
            vec!["in".into()],
            "out",
            Partitioner::KeyHash {
                columns: vec!["UserId".into()],
            },
            16,
            Arc::new(SchemaCheckingReducer) as ReducerRef,
        )
        .unwrap();
        Cluster::new().run_stage(&dfs, &stage).unwrap();
        let counts: Vec<i64> = (dfs.get("out").unwrap().iter())
            .map(|r| r.get(0).as_long().unwrap())
            .collect();
        assert_eq!(counts.len(), 16);
        assert!(counts.contains(&0), "some partition must be empty");
        assert_eq!(counts.iter().sum::<i64>(), 90);
    }

    /// Evaluate `$body` with `$workers` bound to the workers `$cluster`'s
    /// configuration staffs a stage with.
    macro_rules! with_workers {
        ($cluster:expr, $env:expr, |$workers:ident| $body:expr) => {
            match $cluster.config.backend {
                #[cfg(unix)]
                BackendKind::Processes { workers } => {
                    let fleet = crate::process::Fleet::fork(workers, $env).unwrap();
                    let $workers = fleet.workers();
                    $body
                }
                _ => {
                    let crew = $cluster.in_place($env);
                    let $workers = &crew[..];
                    $body
                }
            }
        };
    }

    /// Run the map/shuffle of `stage` on `cluster` with seal target
    /// `chunk_target` and hand `f` the stage environment, the shuffle
    /// slots (one per reduce partition) and the map-phase accounting.
    fn with_shuffle<T>(
        cluster: &Cluster,
        dfs: &Dfs,
        stage: &Stage,
        chunk_target: u64,
        f: impl FnOnce(&StageEnv<'_>, &mut [ShuffleSlot], &MapPhase) -> T,
    ) -> T {
        let inputs: Vec<Dataset> = stage.inputs.iter().map(|n| dfs.get(n).unwrap()).collect();
        let mapped_schemas: Vec<Schema> = inputs.iter().map(|d| d.schema.clone()).collect();
        let assigners: Vec<_> = mapped_schemas
            .iter()
            .map(|s| stage.partitioner.compile(s).unwrap())
            .collect();
        let sink_schemas = stage.reducer.sink_schemas(&mapped_schemas).unwrap();
        let counters = FaultCounters::default();
        let env = StageEnv {
            stage,
            inputs: &inputs,
            mapped_schemas: &mapped_schemas,
            assigners: &assigners,
            sink_schemas: &sink_schemas,
            config: cluster.config(),
            counters: &counters,
            chunk_target,
            expected_sinks: 1,
        };
        let (mut chunks, phase) =
            with_workers!(cluster, &env, |workers| cluster.map_shuffle(&env, workers)).unwrap();
        let mut slots: Vec<ShuffleSlot> = (0..stage.partitions)
            .map(|p| ShuffleSlot {
                inputs: (chunks.iter_mut())
                    .map(|per_input| std::mem::take(&mut per_input[p]))
                    .collect(),
            })
            .collect();
        f(&env, &mut slots, &phase)
    }

    /// The image each chunk of a slot holds, wherever it lives.
    fn images(slot: &ShuffleSlot) -> Vec<Vec<Vec<u8>>> {
        let image = |chunk: &ShuffleChunk| match chunk {
            ShuffleChunk::Mem(bytes) => bytes.clone(),
            ShuffleChunk::Spilled { path, .. } => std::fs::read(path).unwrap(),
        };
        (slot.inputs.iter())
            .map(|chunks| chunks.iter().map(image).collect())
            .collect()
    }

    fn keyed_schema() -> Schema {
        Schema::timestamped(vec![
            Field::new("UserId", ColumnType::Str),
            Field::new("N", ColumnType::Long),
        ])
    }

    fn copy_stage() -> Stage {
        Stage::new(
            "copy",
            vec!["in".into()],
            "out",
            Partitioner::KeyHash {
                columns: vec!["UserId".into()],
            },
            4,
            Arc::new(IdentityReducer) as ReducerRef,
        )
        .unwrap()
    }

    /// Rows over few users (so some partitions stay empty), one in ten
    /// null-heavy.
    fn arb_keyed_rows() -> impl Strategy<Value = Vec<Row>> {
        let row = (0i64..1000, 0u8..10, 0u8..10).prop_map(|(n, user, kind)| match kind {
            0 => Row::new(vec![Value::Long(n), Value::Null, Value::Null]),
            _ => row![n, format!("u{user}"), n * 3],
        });
        (1u8..10, prop::collection::vec(row, 0..250)).prop_map(|(users, rows)| {
            let fold = |r: &Row| match r.get(1) {
                Value::Str(u) => {
                    let folded = u[1..].parse::<u8>().unwrap() % users;
                    Row::new(vec![
                        r.get(0).clone(),
                        Value::str(format!("u{folded}")),
                        r.get(2).clone(),
                    ])
                }
                _ => r.clone(),
            };
            rows.iter().map(fold).collect()
        })
    }

    /// The chunks `seal_extent` must produce for `rows` split into
    /// `extents`, by the definition: per extent and partition, cut where
    /// the row widths reach `target`, and seal each piece as `from_rows`
    /// would.
    fn expected_images(stage: &Stage, extents: &[Vec<Row>], target: u64) -> Vec<Vec<Vec<Vec<u8>>>> {
        let schema = keyed_schema();
        let assign = stage.partitioner.compile(&schema).unwrap();
        let batch = |piece: &[Row]| ColumnBatch::from_rows(&schema, piece).unwrap();
        let seal = |piece: &[Row]| batch(piece).to_extent_bytes().unwrap();
        (0..stage.partitions)
            .map(|p| {
                let mut chunks = Vec::new();
                for extent in extents {
                    let (mut piece, mut width) = (Vec::new(), 0u64);
                    let buckets = assign
                        .assign_batch(&batch(extent), stage.partitions)
                        .unwrap();
                    for (row, _) in extent.iter().zip(buckets).filter(|&(_, b)| b == p) {
                        width += row.width() as u64;
                        piece.push(row.clone());
                        if width >= target {
                            chunks.push(seal(&piece));
                            (piece, width) = (Vec::new(), 0);
                        }
                    }
                    if !piece.is_empty() {
                        chunks.push(seal(&piece));
                    }
                }
                vec![chunks]
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Chunk boundaries and bytes are a pure function of `(input,
        /// extent, partition, target)`: the same on 1, 2 and 4 threads or
        /// worker processes, in memory or spilled, and equal to sealing
        /// each piece through `from_rows`.
        #[test]
        fn sealed_chunks_depend_only_on_extent_partition_and_target(
            rows in arb_keyed_rows(),
            extents in 1usize..5,
        ) {
            let stage = copy_stage();
            let per_extent = rows.len().div_ceil(extents).max(1);
            let extents: Vec<Vec<Row>> = rows.chunks(per_extent).map(<[Row]>::to_vec).collect();
            for (budget, target) in [(None, u64::MAX), (Some(2048), 512)] {
                let expected = expected_images(&stage, &extents, target);
                let mut backends = vec![];
                for n in [1usize, 2, 4] {
                    backends.push((BackendKind::Threads, n));
                    #[cfg(unix)]
                    backends.push((BackendKind::Processes { workers: n }, n));
                }
                for (backend, threads) in backends {
                    let spill = tempdir();
                    let cluster = Cluster::with_config(ClusterConfig {
                        threads,
                        backend,
                        memory_budget_bytes: budget,
                        spill_dir: Some(spill.clone()),
                        ..ClusterConfig::default()
                    });
                    let dfs = Dfs::new();
                    dfs.put("in", Dataset::partitioned(keyed_schema(), extents.clone())).unwrap();
                    let (got, spilled) = with_shuffle(&cluster, &dfs, &stage, target, |_, slots, phase| {
                        (slots.iter().map(images).collect::<Vec<_>>(), phase.placed.spill_bytes)
                    });
                    std::fs::remove_dir_all(&spill).ok();
                    prop_assert_eq!(&got, &expected, "{:?} x{} budget {:?}", backend, threads, budget);
                    let binary: u64 =
                        expected.iter().flatten().flatten().map(|c| c.len() as u64).sum();
                    if budget.is_some_and(|b| binary > b) {
                        prop_assert!(spilled > 0, "a shuffle past its budget must spill");
                    }
                }
            }
        }
    }

    #[test]
    fn rebuild_reproduces_the_tasks_chunks_in_memory_and_spilled() {
        let rows: Vec<Row> = (0..240i64)
            .map(|i| row![i, format!("u{}", i % 9), i * 3])
            .collect();
        for budget in [None, Some(1)] {
            let spill = tempdir();
            let cluster = Cluster::with_config(ClusterConfig {
                threads: 2,
                memory_budget_bytes: budget,
                spill_dir: Some(spill.clone()),
                ..ClusterConfig::default()
            });
            let dfs = Dfs::new();
            let extents = rows.chunks(60).map(<[Row]>::to_vec).collect();
            dfs.put("in", Dataset::partitioned(keyed_schema(), extents))
                .unwrap();
            with_shuffle(&cluster, &dfs, &copy_stage(), 100, |env, slots, _| {
                for (p, slot) in slots.iter_mut().enumerate() {
                    let sealed_by_tasks = images(slot);
                    assert!(
                        sealed_by_tasks[0].len() > 4,
                        "several chunks per extent expected, got {}",
                        sealed_by_tasks[0].len()
                    );
                    let spilled = |slot: &ShuffleSlot| {
                        (slot.inputs[0].iter())
                            .filter(|c| matches!(c, ShuffleChunk::Spilled { .. }))
                            .count()
                    };
                    let spilled_before = spilled(slot);
                    assert_eq!(spilled_before > 0, budget.is_some());
                    corrupt_slot(slot);
                    assert!(verify_slot(slot).is_some(), "damage must be detected");
                    rebuild_slot(env, p, slot).unwrap();
                    assert_eq!(verify_slot(slot), None);
                    assert_eq!(images(slot), sealed_by_tasks, "partition {p}, {budget:?}");
                    assert_eq!(spilled(slot), spilled_before, "spilled chunks stay on disk");
                }
            });
            std::fs::remove_dir_all(&spill).ok();
        }
    }

    /// A spilled chunk that is really damaged on disk — not by the chaos
    /// plan — is found by the reducing worker's fetch, whichever kind it
    /// is, and repaired by the coordinator before the retry: the stored
    /// slot is what gets verified and rebuilt.
    #[test]
    fn a_damaged_spill_file_is_repaired_on_every_worker_kind() {
        let rows: Vec<Row> = (0..240i64)
            .map(|i| row![i, format!("u{}", i % 9), i * 3])
            .collect();
        let mut kinds = vec![BackendKind::Threads];
        #[cfg(unix)]
        kinds.push(BackendKind::Processes { workers: 2 });
        for backend in kinds {
            let spill = tempdir();
            let cluster = Cluster::with_config(ClusterConfig {
                threads: 2,
                backend,
                retry: RetryPolicy::no_backoff(3),
                memory_budget_bytes: Some(1),
                spill_dir: Some(spill.clone()),
                ..ClusterConfig::default()
            });
            let dfs = Dfs::new();
            let extents = rows.chunks(60).map(<[Row]>::to_vec).collect();
            dfs.put("in", Dataset::partitioned(keyed_schema(), extents))
                .unwrap();
            with_shuffle(&cluster, &dfs, &copy_stage(), 100, |env, slots, _| {
                let shuffle: Vec<Mutex<ShuffleSlot>> = (slots.iter_mut())
                    .map(|slot| std::mem::take(&mut slot.inputs))
                    .map(|inputs| Mutex::new(ShuffleSlot { inputs }))
                    .collect();
                let published = || -> Vec<Vec<u8>> {
                    with_workers!(cluster, env, |workers| cluster
                        .reduce(env, workers, &shuffle))
                    .into_iter()
                    .map(|out| out.unwrap().sinks[0].bytes.as_ref().clone())
                    .collect()
                };
                let clean = published();
                assert_eq!(env.counters.retries.load(Ordering::Relaxed), 0);
                let damaged = (shuffle.iter())
                    .flat_map(|slot| {
                        let slot = lock_slot(slot);
                        let paths = slot.inputs[0].iter().filter_map(|c| match c {
                            ShuffleChunk::Spilled { path, .. } => Some(path.clone()),
                            ShuffleChunk::Mem(_) => None,
                        });
                        paths.collect::<Vec<_>>()
                    })
                    .next()
                    .expect("a budget of one byte spills every chunk");
                let mut bytes = std::fs::read(&damaged).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xFF;
                std::fs::write(&damaged, &bytes).unwrap();
                assert_eq!(published(), clean, "{backend:?}");
                let counters = env.counters;
                assert_eq!(counters.corruptions.load(Ordering::Relaxed), 1);
                assert_eq!(counters.retries.load(Ordering::Relaxed), 1);
            });
            std::fs::remove_dir_all(&spill).ok();
        }
    }

    fn tempdir() -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "timr-cluster-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn run_job_chains_stages() {
        let dfs = dfs_with_input(20);
        let id: ReducerRef = Arc::new(IdentityReducer);
        let stages = vec![
            Stage::new(
                "s1",
                vec!["in".into()],
                "mid",
                Partitioner::KeyHash {
                    columns: vec!["UserId".into()],
                },
                4,
                id.clone(),
            )
            .unwrap(),
            Stage::new(
                "s2",
                vec!["mid".into()],
                "final",
                Partitioner::Single,
                1,
                id,
            )
            .unwrap(),
        ];
        let stats = Cluster::new().run_job(&dfs, &stages).unwrap();
        assert_eq!(stats.stages.len(), 2);
        assert_eq!(dfs.get("final").unwrap().len(), 20);
        assert!(stats.total_shuffle_bytes() > 0);
    }

    /// Drops every row whose key hashes odd — a pure per-extent fragment,
    /// so restarts and shuffle rebuilds must reproduce it exactly.
    #[derive(Debug)]
    struct DropOddMapper;

    impl Mapper for DropOddMapper {
        fn output_schema(&self, _input: usize, schema: &Schema) -> Result<Schema> {
            Ok(schema.clone())
        }

        fn map(&self, _ctx: &MapperContext, mut batch: ColumnBatch) -> Result<ColumnBatch> {
            let ts = batch.column(0);
            let keep: Vec<bool> = (0..batch.len())
                .map(|i| ts.value(i).as_long().unwrap() % 2 == 0)
                .collect();
            batch.retain(&keep);
            Ok(batch)
        }
    }

    #[test]
    fn mapper_runs_before_shuffle_and_records_savings() {
        let dfs = Dfs::new();
        let rows = input_rows(200);
        dfs.put(
            "in",
            Dataset::partitioned(schema(), rows.chunks(50).map(|c| c.to_vec()).collect()),
        )
        .unwrap();
        let stage = count_stage(4).with_mapper(Arc::new(DropOddMapper));
        let stats = Cluster::new().run_stage(&dfs, &stage).unwrap();
        assert_eq!(stats.map_rows_in, 200);
        assert_eq!(stats.map_rows_out, 100);
        assert!(stats.shuffle_bytes_saved > 0);
        let total: i64 = dfs
            .get("out")
            .unwrap()
            .scan()
            .iter()
            .map(|r| r.get(1).as_long().unwrap())
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn mapper_output_survives_shuffle_corruption_and_retries() {
        let clean = {
            let dfs = dfs_with_input(300);
            let stage = count_stage(4).with_mapper(Arc::new(DropOddMapper));
            Cluster::new().run_stage(&dfs, &stage).unwrap();
            dfs.get("out").unwrap().partitions
        };
        let chaos = ChaosPlan::none()
            .corrupt("count", TaskPhase::Shuffle, 1)
            .kill("count", TaskPhase::Map, 0)
            .kill("count", TaskPhase::Reduce, 2);
        let dfs = dfs_with_input(300);
        let stage = count_stage(4).with_mapper(Arc::new(DropOddMapper));
        let cluster = Cluster::with_config(config(4, chaos, 3));
        let stats = cluster.run_stage(&dfs, &stage).unwrap();
        assert!(stats.task_retries > 0);
        assert_eq!(
            dfs.get("out").unwrap().partitions,
            clean,
            "mapper fragments must be byte-deterministic under chaos"
        );
    }
}
