//! Execution statistics and the simulated-cluster makespan model.

use std::time::Duration;

/// Per-stage execution statistics.
#[derive(Debug, Clone, Default)]
pub struct StageStats {
    /// Stage name.
    pub name: String,
    /// Rows read by the map phase.
    pub map_rows: u64,
    /// Rows entering map-side compute (equals `map_rows`; kept distinct
    /// so the mapper in/out pair reads symmetrically in reports).
    pub map_rows_in: u64,
    /// Rows leaving the map phase into the shuffle. Without a stage
    /// mapper this equals `map_rows_in`; with one it is the mapper output
    /// row count (the communication the push-down actually ships).
    pub map_rows_out: u64,
    /// Shuffle bytes avoided by map-side compute: raw extent row widths
    /// minus mapper output row widths, per task, floored at zero.
    pub shuffle_bytes_saved: u64,
    /// Map tasks executed (one per `(input, extent)` pair).
    pub map_tasks: usize,
    /// Wall-clock time of the parallel map phase (scan, partition, and
    /// sealing each task's chunks).
    pub map_time: Duration,
    /// Wall-clock time the coordinator spends placing the tasks' sealed
    /// chunks into shuffle slots in `(input, extent)` order — in memory
    /// or, past the budget, in spill files. No encoding happens here.
    pub shuffle_time: Duration,
    /// Bytes moved through the shuffle (sum of row widths — the
    /// representation-independent payload measure).
    pub shuffle_bytes: u64,
    /// Bytes actually moved as framed binary columnar extents (including
    /// per-column integrity frames and footers).
    pub shuffle_bytes_binary: u64,
    /// Sealed shuffle extents spilled to disk under the memory budget.
    pub spill_extents: u64,
    /// Bytes written to spill files.
    pub spill_bytes: u64,
    /// Seconds tasks spent sealing what they produced, summed over tasks:
    /// map tasks encoding shuffle chunks, reduce tasks computing their
    /// sinks' stored extents. CPU time inside `map_time` and
    /// `reduce_wall_time`, not wall time beside them.
    pub seal_time: Duration,
    /// Wall-clock time of the parallel reduce phase.
    pub reduce_wall_time: Duration,
    /// Wall-clock time the coordinator spends between the last reduce
    /// result and the last `put_overwrite`: assembling the sealed extents
    /// into datasets and naming them.
    pub publish_time: Duration,
    /// Rows produced by all reducers.
    pub output_rows: u64,
    /// Rows produced per sink, in `Stage::sink_names()` order (one entry
    /// for single-sink stages; one per query for shared multi-CQ stages).
    pub sink_rows: Vec<u64>,
    /// Number of reduce partitions.
    pub partitions: usize,
    /// Reduce time per partition (CPU work, measured).
    pub partition_times: Vec<Duration>,
    /// Wall-clock time of the whole stage on the local thread pool.
    pub wall_time: Duration,
    /// Task re-executions performed (retries after any retryable fault).
    pub task_retries: u64,
    /// Task panics contained by `catch_unwind` (injected or genuine).
    pub panics_contained: u64,
    /// Transient task faults observed (injected kills, simulated hiccups).
    pub transient_faults: u64,
    /// Integrity-frame verification failures detected.
    pub corruption_detected: u64,
    /// Artificial straggler delays injected.
    pub delays_injected: u64,
    /// Total time spent sleeping in retry backoff.
    pub backoff_time: Duration,
    /// Worker heartbeat deadlines missed (multi-process backend: a live
    /// worker stopped heartbeating and was declared dead).
    pub heartbeats_missed: u64,
    /// Task attempts that exceeded `RetryPolicy::attempt_timeout`.
    pub tasks_timed_out: u64,
    /// Speculative duplicate executions launched for straggling tasks.
    pub speculative_launched: u64,
    /// Tasks whose speculative copy finished before the primary.
    pub speculative_wins: u64,
    /// Worker processes lost mid-stage (SIGKILL chaos, missed heartbeats,
    /// or preemptive timeout kills); survivors absorb their tasks.
    pub workers_lost: u64,
}

impl StageStats {
    /// Total reduce CPU time across partitions.
    pub fn total_reduce_time(&self) -> Duration {
        self.partition_times.iter().sum()
    }

    /// Longest single partition (the parallel critical path).
    pub fn max_partition_time(&self) -> Duration {
        self.partition_times
            .iter()
            .max()
            .copied()
            .unwrap_or_default()
    }

    /// Makespan of scheduling this stage's partitions greedily (LPT) onto
    /// `machines` workers, each task paying `task_overhead` for scheduling,
    /// process start, and data open — the model used to extrapolate from
    /// the laptop to the paper's 150-machine cluster for the span-width
    /// sweep (Fig 16).
    pub fn simulated_makespan(&self, machines: usize, task_overhead: Duration) -> Duration {
        assert!(machines > 0);
        let mut tasks: Vec<Duration> = self
            .partition_times
            .iter()
            .map(|t| *t + task_overhead)
            .collect();
        tasks.sort_unstable_by(|a, b| b.cmp(a)); // longest first
        let mut workers = vec![Duration::ZERO; machines.min(tasks.len().max(1))];
        for t in tasks {
            // Assign to the least-loaded worker.
            let w = workers
                .iter_mut()
                .min()
                .expect("at least one worker exists");
            *w += t;
        }
        workers.into_iter().max().unwrap_or_default()
    }
}

/// Fault-handling totals across a job (sums of the per-stage counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Task re-executions performed.
    pub task_retries: u64,
    /// Panics contained.
    pub panics_contained: u64,
    /// Transient faults observed.
    pub transient_faults: u64,
    /// Corruptions detected.
    pub corruption_detected: u64,
    /// Delays injected.
    pub delays_injected: u64,
    /// Total backoff sleep time.
    pub backoff_time: Duration,
    /// Worker heartbeat deadlines missed.
    pub heartbeats_missed: u64,
    /// Task attempts past their deadline.
    pub tasks_timed_out: u64,
    /// Speculative duplicates launched.
    pub speculative_launched: u64,
    /// Speculative duplicates that won.
    pub speculative_wins: u64,
    /// Worker processes lost.
    pub workers_lost: u64,
}

impl FaultTotals {
    /// Whether any fault handling happened at all.
    pub fn any(&self) -> bool {
        self.task_retries > 0
            || self.panics_contained > 0
            || self.transient_faults > 0
            || self.corruption_detected > 0
            || self.delays_injected > 0
            || self.heartbeats_missed > 0
            || self.tasks_timed_out > 0
            || self.speculative_launched > 0
            || self.workers_lost > 0
    }
}

/// Map-phase totals across a job (sums of the per-stage counters) — the
/// aggregate view the bench tables print next to [`FaultTotals`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapTotals {
    /// Map tasks executed.
    pub map_tasks: usize,
    /// Rows entering map-side compute.
    pub rows_in: u64,
    /// Rows shipped into the shuffle after map-side compute.
    pub rows_out: u64,
    /// Bytes moved through the shuffle.
    pub shuffle_bytes: u64,
    /// Shuffle bytes avoided by map-side compute.
    pub shuffle_bytes_saved: u64,
    /// Total map-phase wall time.
    pub map_time: Duration,
    /// Total shuffle-merge wall time.
    pub shuffle_time: Duration,
}

impl MapTotals {
    /// Fraction of would-be shuffle bytes eliminated map-side
    /// (`saved / (moved + saved)`), 0 when nothing moved.
    pub fn savings_ratio(&self) -> f64 {
        let would_be = self.shuffle_bytes + self.shuffle_bytes_saved;
        if would_be == 0 {
            0.0
        } else {
            self.shuffle_bytes_saved as f64 / would_be as f64
        }
    }
}

/// Statistics for a multi-stage job.
#[derive(Debug, Clone, Default)]
pub struct JobStats {
    /// Per-stage statistics in execution order.
    pub stages: Vec<StageStats>,
}

impl JobStats {
    /// Fault-handling totals across all stages (the job summary's
    /// attempt/panic/corruption/backoff line).
    pub fn fault_totals(&self) -> FaultTotals {
        let mut t = FaultTotals::default();
        for s in &self.stages {
            t.task_retries += s.task_retries;
            t.panics_contained += s.panics_contained;
            t.transient_faults += s.transient_faults;
            t.corruption_detected += s.corruption_detected;
            t.delays_injected += s.delays_injected;
            t.backoff_time += s.backoff_time;
            t.heartbeats_missed += s.heartbeats_missed;
            t.tasks_timed_out += s.tasks_timed_out;
            t.speculative_launched += s.speculative_launched;
            t.speculative_wins += s.speculative_wins;
            t.workers_lost += s.workers_lost;
        }
        t
    }

    /// Map-phase totals across all stages (the mapper counterpart of
    /// [`JobStats::fault_totals`]).
    pub fn map_totals(&self) -> MapTotals {
        let mut t = MapTotals::default();
        for s in &self.stages {
            t.map_tasks += s.map_tasks;
            t.rows_in += s.map_rows_in;
            t.rows_out += s.map_rows_out;
            t.shuffle_bytes += s.shuffle_bytes;
            t.shuffle_bytes_saved += s.shuffle_bytes_saved;
            t.map_time += s.map_time;
            t.shuffle_time += s.shuffle_time;
        }
        t
    }

    /// Total shuffle bytes across stages.
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.shuffle_bytes).sum()
    }

    /// Total shuffle bytes avoided by map-side compute across stages.
    pub fn total_shuffle_bytes_saved(&self) -> u64 {
        self.stages.iter().map(|s| s.shuffle_bytes_saved).sum()
    }

    /// Total shuffle bytes as framed binary columnar extents.
    pub fn total_shuffle_bytes_binary(&self) -> u64 {
        self.stages.iter().map(|s| s.shuffle_bytes_binary).sum()
    }

    /// Total shuffle extents spilled to disk across stages.
    pub fn total_spill_extents(&self) -> u64 {
        self.stages.iter().map(|s| s.spill_extents).sum()
    }

    /// Total bytes written to spill files across stages.
    pub fn total_spill_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.spill_bytes).sum()
    }

    /// Total map-phase wall time across stages.
    pub fn total_map_time(&self) -> Duration {
        self.stages.iter().map(|s| s.map_time).sum()
    }

    /// Total shuffle-merge wall time across stages.
    pub fn total_shuffle_time(&self) -> Duration {
        self.stages.iter().map(|s| s.shuffle_time).sum()
    }

    /// Total reduce-phase wall time across stages.
    pub fn total_reduce_wall_time(&self) -> Duration {
        self.stages.iter().map(|s| s.reduce_wall_time).sum()
    }

    /// Total in-task seal time across stages (summed over tasks).
    pub fn total_seal_time(&self) -> Duration {
        self.stages.iter().map(|s| s.seal_time).sum()
    }

    /// Total coordinator publish time across stages.
    pub fn total_publish_time(&self) -> Duration {
        self.stages.iter().map(|s| s.publish_time).sum()
    }

    /// Total wall time across stages (stages run serially).
    pub fn total_wall_time(&self) -> Duration {
        self.stages.iter().map(|s| s.wall_time).sum()
    }

    /// Job makespan on a simulated cluster: stages are serial, partitions
    /// within a stage parallel.
    pub fn simulated_makespan(&self, machines: usize, task_overhead: Duration) -> Duration {
        self.stages
            .iter()
            .map(|s| s.simulated_makespan(machines, task_overhead))
            .sum()
    }
}

/// One line per stage and a total: where the stage's wall clock went
/// (map, shuffle placement, reduce, publish — consecutive, so they add up
/// to the wall time less set-up) and, beside it, the task seconds spent
/// sealing inside the map and reduce phases.
impl std::fmt::Display for JobStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // name, then wall, map, shuffle, reduce, publish, seal
        let phases = |f: &mut std::fmt::Formatter<'_>, name: &str, d: [Duration; 6]| {
            let [wall, map, shuffle, reduce, publish, seal] = d.map(|d| d.as_secs_f64() * 1e3);
            write!(
                f,
                "{name}: wall {wall:.1} ms = map {map:.1} + shuffle {shuffle:.1} + reduce \
                 {reduce:.1} + publish {publish:.1} (+ set-up); sealing in tasks {seal:.1} ms"
            )
        };
        for s in &self.stages {
            let d = [
                s.wall_time,
                s.map_time,
                s.shuffle_time,
                s.reduce_wall_time,
                s.publish_time,
                s.seal_time,
            ];
            phases(f, &s.name, d)?;
            writeln!(
                f,
                "; {} shuffle byte(s), {} row(s) out",
                s.shuffle_bytes, s.output_rows
            )?;
        }
        let d = [
            self.total_wall_time(),
            self.total_map_time(),
            self.total_shuffle_time(),
            self.total_reduce_wall_time(),
            self.total_publish_time(),
            self.total_seal_time(),
        ];
        phases(f, "job", d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(times_ms: &[u64]) -> StageStats {
        StageStats {
            partition_times: times_ms.iter().map(|&m| Duration::from_millis(m)).collect(),
            partitions: times_ms.len(),
            ..Default::default()
        }
    }

    #[test]
    fn makespan_with_enough_machines_is_max_plus_overhead() {
        let s = stats(&[10, 20, 30]);
        let m = s.simulated_makespan(3, Duration::from_millis(1));
        assert_eq!(m, Duration::from_millis(31));
    }

    #[test]
    fn makespan_single_machine_is_sum() {
        let s = stats(&[10, 20, 30]);
        let m = s.simulated_makespan(1, Duration::ZERO);
        assert_eq!(m, Duration::from_millis(60));
    }

    #[test]
    fn lpt_balances_unequal_tasks() {
        // Tasks 5,4,3,3,3 on 2 machines: LPT gives {5,3,3}=11? No: LPT
        // assigns 5->A, 4->B, 3->B(7), 3->A(8), 3->B(10): makespan 10.
        let s = stats(&[5, 4, 3, 3, 3]);
        let m = s.simulated_makespan(2, Duration::ZERO);
        assert_eq!(m, Duration::from_millis(10));
    }

    #[test]
    fn overhead_penalizes_many_tiny_tasks() {
        // The Fig 16 effect: 100 tiny tasks on 10 machines pay 10 overheads
        // per machine, while 10 medium tasks pay 1.
        let many = stats(&[1; 100]);
        let few = stats(&[10; 10]);
        let oh = Duration::from_millis(5);
        assert!(many.simulated_makespan(10, oh) > few.simulated_makespan(10, oh));
    }

    #[test]
    fn display_attributes_seal_and_publish_time() {
        let mut a = stats(&[1]);
        a.name = "s1".into();
        a.seal_time = Duration::from_millis(7);
        a.publish_time = Duration::from_millis(2);
        let mut b = stats(&[1]);
        b.name = "s2".into();
        b.seal_time = Duration::from_millis(5);
        b.publish_time = Duration::from_millis(1);
        let job = JobStats { stages: vec![a, b] };
        assert_eq!(job.total_seal_time(), Duration::from_millis(12));
        assert_eq!(job.total_publish_time(), Duration::from_millis(3));
        let text = job.to_string();
        assert!(text.contains("s1: "), "{text}");
        assert!(text.contains("publish 2.0"), "{text}");
        assert!(
            text.ends_with("publish 3.0 (+ set-up); sealing in tasks 12.0 ms"),
            "{text}"
        );
    }

    #[test]
    fn job_totals_accumulate() {
        let job = JobStats {
            stages: vec![stats(&[10]), stats(&[20, 5])],
        };
        assert_eq!(
            job.simulated_makespan(2, Duration::ZERO),
            Duration::from_millis(30)
        );
    }

    #[test]
    fn fault_totals_sum_across_stages() {
        let mut a = stats(&[1]);
        a.task_retries = 2;
        a.panics_contained = 1;
        a.backoff_time = Duration::from_millis(3);
        let mut b = stats(&[1]);
        b.task_retries = 1;
        b.corruption_detected = 4;
        b.delays_injected = 5;
        b.backoff_time = Duration::from_millis(7);
        let mut c = stats(&[1]);
        c.heartbeats_missed = 1;
        c.tasks_timed_out = 2;
        c.speculative_launched = 3;
        c.speculative_wins = 2;
        c.workers_lost = 1;
        let job = JobStats {
            stages: vec![a, b, c],
        };
        let t = job.fault_totals();
        assert!(t.any());
        assert_eq!(t.heartbeats_missed, 1);
        assert_eq!(t.tasks_timed_out, 2);
        assert_eq!(t.speculative_launched, 3);
        assert_eq!(t.speculative_wins, 2);
        assert_eq!(t.workers_lost, 1);
        assert_eq!(t.task_retries, 3);
        assert_eq!(t.panics_contained, 1);
        assert_eq!(t.transient_faults, 0);
        assert_eq!(t.corruption_detected, 4);
        assert_eq!(t.delays_injected, 5);
        assert_eq!(t.backoff_time, Duration::from_millis(10));
        assert!(!JobStats::default().fault_totals().any());
    }
}
