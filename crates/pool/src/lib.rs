//! Fixed-width worker pool.
//!
//! The map-reduce cluster's scheduler is the one user: a fixed list of
//! independent tasks, a small set of worker threads pulling task indices
//! from an atomic counter, and the results returned in task order so
//! output is byte-identical regardless of thread count or scheduling (the
//! repeatability property the paper's restart handling is built on,
//! §III-C.1). It is the only level of parallelism in the workspace: the
//! DSMS embedded in each task runs on the thread that runs the task.
//!
//! The pool is configuration, not threads: workers are scoped to each
//! [`WorkerPool::run`] call (no idle threads between calls, results may
//! borrow from the caller's stack).
//!
//! # Panic containment
//!
//! Every task body runs under `catch_unwind`, so a panicking task never
//! tears down sibling workers or loses its payload (`std::thread::scope`
//! on its own replaces the payload with a generic "a scoped thread
//! panicked" message). [`WorkerPool::run`] re-raises the panic of the
//! *lowest* panicked task index once all tasks have finished — the same
//! deterministic failure-ordering rule callers use for `Result` values.
//! (The cluster treats a panic as a *retryable task failure*; it catches
//! it around each attempt, inside the task, so the pool never sees it.)

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Render a panic payload (`Box<dyn Any + Send>` from `catch_unwind` or a
/// thread join) as a string without consuming it.
pub fn payload_str(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "<non-string panic payload>"
    }
}

/// Lock a mutex, ignoring poisoning: pool slots are written exactly once
/// by exactly one worker, so a poisoned lock only means *some other* task
/// panicked after this slot was filled — the data is still consistent.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One task's outcome: the value, or the raw panic payload.
type TaskResult<T> = Result<T, Box<dyn Any + Send>>;

/// A fixed-width worker pool executing indexed task lists.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// Pool with `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Core loop of [`WorkerPool::run`]: execute every task under
    /// `catch_unwind`, collecting per-task results in task order. All
    /// tasks run even if some panic, so the caller sees a complete,
    /// deterministic picture.
    fn run_results<T, F>(&self, tasks: usize, task: F) -> Vec<TaskResult<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let run_one = |t: usize| std::panic::catch_unwind(AssertUnwindSafe(|| task(t)));
        let workers = self.threads.min(tasks);
        if workers <= 1 {
            return (0..tasks).map(run_one).collect();
        }
        let slots: Vec<Mutex<Option<TaskResult<T>>>> =
            (0..tasks).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let t = next.fetch_add(1, Ordering::Relaxed);
                    if t >= tasks {
                        break;
                    }
                    let out = run_one(t);
                    *lock_ignore_poison(&slots[t]) = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("worker pool left a task unexecuted")
            })
            .collect()
    }

    /// Run `task(i)` for every `i in 0..tasks` and return the results in
    /// task order.
    ///
    /// Workers pull indices from a shared atomic counter, so any worker
    /// may execute any task — but the result vector is indexed by task,
    /// making the collected output (and therefore any in-order merge the
    /// caller performs) independent of thread count and scheduling. With
    /// one worker, or at most one task, everything runs inline on the
    /// calling thread with no spawns and no locks.
    ///
    /// If any task panics, the panic of the **lowest** panicked task index
    /// is re-raised on the caller's thread — with its original payload —
    /// after every task has finished, so failure is as deterministic as
    /// success.
    pub fn run<T, F>(&self, tasks: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut results = self.run_results(tasks, task);
        if let Some(i) = results.iter().position(Result::is_err) {
            let payload = results
                .swap_remove(i)
                .err()
                .expect("position() found an Err");
            std::panic::resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|_| unreachable!("errors re-raised above")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_task_order_for_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let pool = WorkerPool::new(threads);
            let out = pool.run(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_tasks_and_zero_threads_are_fine() {
        assert_eq!(WorkerPool::new(0).threads(), 1);
        let out: Vec<usize> = WorkerPool::new(4).run(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn errors_are_ordinary_results() {
        // Fallible tasks return Result values; the caller propagates the
        // first error in task order, keeping failure deterministic.
        let pool = WorkerPool::new(4);
        let out: Vec<Result<usize, String>> = pool.run(10, |i| {
            if i % 3 == 0 {
                Err(format!("task {i}"))
            } else {
                Ok(i)
            }
        });
        let first_err = out.into_iter().find_map(Result::err);
        assert_eq!(first_err.as_deref(), Some("task 0"));
    }

    #[test]
    fn tasks_can_borrow_caller_state() {
        let data: Vec<i64> = (0..1000).collect();
        let sums = WorkerPool::new(4).run(10, |i| data[i * 100..(i + 1) * 100].iter().sum::<i64>());
        assert_eq!(sums.iter().sum::<i64>(), data.iter().sum::<i64>());
    }

    #[test]
    fn run_preserves_panic_payload_of_lowest_task() {
        // Panics at tasks 3 and 7: the re-raised payload must be task 3's,
        // verbatim, for any thread count.
        for threads in [1, 2, 8] {
            let pool = WorkerPool::new(threads);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(10, |i| {
                    if i == 3 || i == 7 {
                        panic!("task {i} exploded");
                    }
                    i
                })
            }));
            let payload = caught.expect_err("a task panicked");
            assert_eq!(
                payload_str(payload.as_ref()),
                "task 3 exploded",
                "threads={threads}"
            );
        }
    }

    #[test]
    fn payload_str_handles_common_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(payload_str(s.as_ref()), "static str");
        let s: Box<dyn std::any::Any + Send> = Box::new("owned".to_string());
        assert_eq!(payload_str(s.as_ref()), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u8);
        assert_eq!(payload_str(s.as_ref()), "<non-string panic payload>");
    }
}
