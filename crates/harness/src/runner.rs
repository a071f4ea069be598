//! The worker pool every parallel fan-out in the harness runs on.
//!
//! One [`WorkerPool`] spans an invocation: `tage_exp` generates the suite
//! and runs every experiment's suite jobs on it (through
//! [`crate::ExpContext`]), `tage_exp system --trace` runs every
//! (spec × file) cell on it, `tage_exp sample` every slice, and
//! `tage_serve` every session.
//!
//! The pool is one FIFO queue under one mutex, plus one condvar that idle
//! workers wait on. Its jobs last milliseconds — a Tiny suite job
//! 1.4–2.1 ms, a Small one 6–7 ms, a served gshare session ~6.5 ms — so one
//! lock per push and one per pop is noise next to the work. A shared
//! queue also means no worker idles while a job is queued, so a straggler
//! trace (CLIENT02 runs 3× longer than the rest) never idles the other
//! cores.
//!
//! [`WorkerPool::run_ordered`] is the ordered fan-out: one pool job per
//! closure, results in submission order, a job panic re-raised on the
//! waiting thread.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks `m`, treating poisoning as fatal.
// INVARIANT: a poisoned lock means another thread panicked *while holding
// it* — a worker runs its job after releasing the queue lock, and
// `Batch::run` catches a job's panic before taking the batch lock, so
// poison here implies the scheduler's own bookkeeping already blew up;
// propagating the panic is the fail-loud response, never an error path.
pub(crate) fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap() // INVARIANT: see above — poison propagates the original panic.
}

/// Worker threads when the caller names none: available parallelism,
/// capped at 16.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get()).min(16)
}

/// The queued jobs and the shutdown flag, guarded together.
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<Queue>,
    /// Signalled once per submitted job, and to every worker at shutdown.
    wake: Condvar,
}

impl PoolShared {
    /// The oldest queued job, waiting while the queue is empty. `None`
    /// once shutdown is set and the queue has drained.
    fn next_job(&self) -> Option<Job> {
        let mut q = locked(&self.queue);
        loop {
            if let Some(job) = q.jobs.pop_front() {
                return Some(job);
            }
            if q.shutdown {
                return None;
            }
            // INVARIANT: see `locked` — a poisoned queue mutex re-raises
            // the panic that poisoned it.
            q = self.wake.wait(q).expect("pool queue poisoned by a panicking worker");
        }
    }
}

/// A fixed pool of worker threads taking boxed jobs from one FIFO queue.
/// Lives as long as its owner (an [`crate::ExpContext`], an
/// external-trace run, a server), so consecutive fan-outs reuse the same
/// threads. Dropping it runs every queued job, then joins the workers.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), shutdown: false }),
            wake: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("suite-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = shared.next_job() {
                            job();
                        }
                    })
                    // INVARIANT: thread spawn fails only on resource
                    // exhaustion at startup; no pool is better than a
                    // silently smaller one.
                    .expect("failed to spawn suite worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Appends a job to the queue and wakes one idle worker.
    pub fn submit(&self, job: Job) {
        locked(&self.shared.queue).jobs.push_back(job);
        self.shared.wake.notify_one();
    }

    /// The ordered fan-out: submits one pool job per closure and returns
    /// the in-flight [`Batch`] without waiting; its `wait` yields the
    /// results in submission order.
    pub(crate) fn fan_out<T, F>(&self, jobs: Vec<F>) -> Arc<Batch<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let batch = Batch::new(jobs.len());
        for (i, job) in jobs.into_iter().enumerate() {
            let batch = Arc::clone(&batch);
            self.submit(Box::new(move || batch.run(i, job)));
        }
        batch
    }

    /// Runs every job on the pool, one pool job each, and returns their
    /// results in submission order, whatever order they finish in. A job
    /// that panics re-raises its panic here.
    pub fn run_ordered<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.fan_out(jobs).wait()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        locked(&self.shared.queue).shutdown = true;
        self.shared.wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A fan-out of `n` jobs whose results are collected in submission order.
/// A job that panics poisons the batch: the waiter re-raises the panic on
/// its own thread instead of blocking forever on a slot that will never
/// fill.
pub(crate) struct Batch<T> {
    state: Mutex<BatchState<T>>,
    done: Condvar,
}

struct BatchState<T> {
    slots: Vec<Option<T>>,
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl<T> Batch<T> {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(BatchState {
                slots: (0..n).map(|_| None).collect(),
                remaining: n,
                panic: None,
            }),
            done: Condvar::new(),
        })
    }

    /// Runs `job` for slot `index`, recording its result or its panic.
    fn run(&self, index: usize, job: impl FnOnce() -> T) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        let mut s = locked(&self.state);
        match result {
            Ok(value) => {
                debug_assert!(s.slots[index].is_none(), "slot {index} completed twice");
                s.slots[index] = Some(value);
            }
            Err(payload) => s.panic = Some(payload),
        }
        s.remaining -= 1;
        if s.remaining == 0 || s.panic.is_some() {
            self.done.notify_all();
        }
    }

    /// Blocks until every job finished, returning results in submission
    /// order. Re-raises the first recorded job panic.
    pub(crate) fn wait(&self) -> Vec<T> {
        let mut s = locked(&self.state);
        while s.remaining > 0 && s.panic.is_none() {
            // INVARIANT: see `locked` — a poisoned batch mutex
            // re-raises the panic that poisoned it.
            s = self.done.wait(s).unwrap();
        }
        if let Some(payload) = s.panic.take() {
            drop(s);
            std::panic::resume_unwind(payload);
        }
        // INVARIANT: `remaining == 0` with no recorded panic means every
        // slot was filled exactly once by `Batch::run`.
        s.slots.drain(..).map(|v| v.expect("batch slot unfilled")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn pool_runs_all_jobs_with_stealing() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        let jobs: Vec<_> = (0..64u64)
            .map(|i| {
                let counter = Arc::clone(&counter);
                move || {
                    // Uneven job sizes make jobs finish out of order.
                    if i % 7 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    counter.fetch_add(i, Ordering::Relaxed);
                    i
                }
            })
            .collect();
        let results = pool.run_ordered(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 64 * 63 / 2);
        assert_eq!(results, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_job_propagates_instead_of_hanging() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<_> = (0..3u64)
            .map(|i| {
                move || {
                    if i == 1 {
                        panic!("boom in job {i}");
                    }
                    i
                }
            })
            .collect();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run_ordered(jobs)))
            .expect_err("run_ordered must re-raise the job panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("boom in job 1"), "unexpected payload: {msg}");
    }
}
