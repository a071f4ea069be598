//! The deduplicating parallel suite scheduler.
//!
//! `tage_exp all` runs 15 experiments, and several of them independently
//! re-simulate the *identical* (predictor, scenario) suite — the reference
//! TAGE under scenario [A] alone is requested by five experiments. The
//! [`SuiteRunner`] fixes both the redundancy and the scheduling:
//!
//! * one [`WorkerPool`] spans the whole invocation, so per-trace simulation
//!   jobs from every experiment share the same worker threads instead of
//!   each `run` call spawning (and joining) its own;
//! * jobs are distributed round-robin across per-worker deques and idle
//!   workers *steal* from their peers, so a straggler trace (CLIENT02 runs
//!   3× longer than the rest) never leaves the other cores idle;
//! * the runner owns the materialized suite and has one job shape: build
//!   the spec's engine ([`PredictorSpec::build_engine`]) and run it over a
//!   [`TraceStream`] of trace `i` ([`simulate_engine`]);
//! * suite results are memoized by `(spec.sim_key(), scenario,
//!   cfg.fingerprint())`, so duplicate requests are served from cache and
//!   counted — the [`SchedulerStats`] counters make the dedup observable
//!   (and testable);
//! * suites can be **prefetched**: `tage_exp all` enqueues every
//!   experiment's suite jobs eagerly before rendering the first table, so
//!   independent experiments' single-suite tails overlap on many-core
//!   machines instead of running serially (the ROADMAP "scheduler-level
//!   cross-experiment pipelining" item). A prefetched suite parks its
//!   in-flight [`Batch`] in a pending map; the first consumer waits on it
//!   and promotes the result into the memo cache.
//!
//! The suite jobs go through the pool's ordered fan-out, the same
//! [`WorkerPool::run_ordered`] that runs every (spec × file) cell of
//! `tage_exp system --trace` and every slice of `tage_exp sample`: one
//! pool job per closure, results in submission order, a job panic
//! re-raised on the waiting thread.

use crate::spec::PredictorSpec;
use pipeline::{simulate_engine, PipelineConfig, SimReport, SuiteReport};
use simkit::predictor::UpdateScenario;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use workloads::event::TraceStream;
use workloads::Trace;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Runs `job`, adding its wall time to `busy` (see
/// [`SchedulerStats::sim_busy_nanos`]).
fn timed<T>(busy: &AtomicU64, job: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = job();
    // ORDERING: statistics only — a monotonic total read after the suite
    // waits complete; no decision is taken on a racy read.
    busy.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed); // ORDERING: see above
    out
}

/// Locks `m`, treating poisoning as fatal.
// INVARIANT: a poisoned lock means another thread panicked *while holding
// it* — pool jobs run under `catch_unwind` (see `Batch::run`), so poison
// here implies the scheduler's own bookkeeping already blew up;
// propagating the panic is the fail-loud response, never an error path.
fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap() // INVARIANT: see above — poison propagates the original panic.
}

/// Worker threads when the caller names none: available parallelism,
/// capped at 16.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get()).min(16)
}

struct PoolShared {
    /// Per-worker job deques; workers pop their own front and steal from
    /// peers' backs.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Sleep/wake coordination for idle workers.
    idle: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl PoolShared {
    fn grab(&self, home: usize) -> Option<Job> {
        // Own queue first (front: submission order)...
        if let Some(j) = locked(&self.queues[home]).pop_front() {
            return Some(j);
        }
        // ...then steal from peers (back: the work they'd reach last).
        let n = self.queues.len();
        for d in 1..n {
            if let Some(j) = locked(&self.queues[(home + d) % n]).pop_back() {
                return Some(j);
            }
        }
        None
    }
}

/// A fixed pool of worker threads executing boxed jobs, with per-worker
/// deques and work stealing. Lives as long as its owner (a
/// [`SuiteRunner`], an external-trace run, a server), so consecutive
/// fan-outs reuse the same threads.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    next: AtomicU64,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|home| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("suite-worker-{home}"))
                    .spawn(move || loop {
                        if let Some(job) = shared.grab(home) {
                            job();
                            continue;
                        }
                        if shared.shutdown.load(Ordering::Acquire) {
                            return;
                        }
                        // Re-check with the idle lock held: submitters
                        // notify under this lock, so a job enqueued after
                        // this second look is guaranteed to find us
                        // already waiting (the timeout is belt and
                        // braces, not load-bearing).
                        let guard = locked(&shared.idle);
                        if let Some(job) = shared.grab(home) {
                            drop(guard);
                            job();
                            continue;
                        }
                        if shared.shutdown.load(Ordering::Acquire) {
                            return;
                        }
                        let _unused = shared
                            .wake
                            .wait_timeout(guard, std::time::Duration::from_millis(50))
                            // INVARIANT: the idle mutex guards no data;
                            // poison (see `locked`) propagates a panic
                            // that already killed the run.
                            .unwrap();
                    })
                    // INVARIANT: thread spawn fails only on resource
                    // exhaustion at startup; no pool is better than a
                    // silently smaller one.
                    .expect("failed to spawn suite worker")
            })
            .collect();
        Self { shared, next: AtomicU64::new(0), workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job on the next worker's deque (round-robin).
    pub fn submit(&self, job: Job) {
        // ORDERING: round-robin placement hint only — any interleaving of
        // the counter is correct, and job visibility is carried by the
        // queue mutex, not this index.
        let i = self.next.fetch_add(1, Ordering::Relaxed) as usize % self.shared.queues.len();
        locked(&self.shared.queues[i]).push_back(job);
        let _guard = locked(&self.shared.idle);
        self.shared.wake.notify_all();
    }

    /// The ordered fan-out: submits one pool job per closure and returns
    /// the in-flight [`Batch`] without waiting; its `wait` yields the
    /// results in submission order.
    fn fan_out<T, F>(&self, jobs: Vec<F>) -> Arc<Batch<T>>
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
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = locked(&self.shared.idle);
            self.shared.wake.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A fan-out of `n` jobs whose results are collected in submission order.
/// A job that panics poisons the batch: the waiter re-raises the panic on
/// its own thread instead of blocking forever on a slot that will never
/// fill.
struct Batch<T> {
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
    fn wait(&self) -> Vec<T> {
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

/// Scheduler counters: how much simulation was requested vs actually run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Per-trace simulate jobs actually executed on the pool.
    pub sim_jobs_run: u64,
    /// Per-trace simulate jobs requested (run + served from cache).
    pub sim_jobs_requested: u64,
    /// Whole-suite requests served from the memo cache.
    pub suite_memo_hits: u64,
    /// Total wall time spent inside simulate jobs, summed across workers
    /// (nanoseconds). Busy time over elapsed time approximates pool
    /// utilization; busy time over jobs run gives the mean job cost.
    pub sim_busy_nanos: u64,
}

impl SchedulerStats {
    /// Total busy time across workers, in seconds.
    pub fn busy_seconds(&self) -> f64 {
        self.sim_busy_nanos as f64 / 1e9
    }

    /// Mean wall time per executed simulate job, in milliseconds.
    pub fn mean_job_millis(&self) -> f64 {
        self.sim_busy_nanos as f64 / 1e6 / self.sim_jobs_run.max(1) as f64
    }
}

type SuiteKey = (String, UpdateScenario, u64);

/// Deduplicating parallel suite scheduler: a persistent [`WorkerPool`],
/// the suite it simulates, and a suite-result memo cache. See the module
/// docs for the why.
pub struct SuiteRunner {
    pool: WorkerPool,
    traces: Arc<Vec<Trace>>,
    cache: Mutex<HashMap<SuiteKey, SuiteReport>>,
    /// Prefetched suites still in flight: submitted to the pool, not yet
    /// consumed into the memo cache.
    pending: Mutex<HashMap<SuiteKey, Arc<Batch<SimReport>>>>,
    sim_jobs_run: AtomicU64,
    sim_jobs_requested: AtomicU64,
    suite_memo_hits: AtomicU64,
    /// Shared with pool jobs (they outlive the borrow of `self`).
    sim_busy_nanos: Arc<AtomicU64>,
}

impl SuiteRunner {
    /// A runner over `traces` with `threads` pool workers (`None`:
    /// [`default_threads`]).
    pub fn new(traces: Arc<Vec<Trace>>, threads: Option<usize>) -> Self {
        Self {
            pool: WorkerPool::new(threads.unwrap_or_else(default_threads)),
            traces,
            cache: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            sim_jobs_run: AtomicU64::new(0),
            sim_jobs_requested: AtomicU64::new(0),
            suite_memo_hits: AtomicU64::new(0),
            sim_busy_nanos: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The suite the jobs simulate, in suite order.
    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            // ORDERING: monotonic statistics counters read after the suite
            // waits that produced them; no decision is taken on a racy
            // read, so relaxed loads suffice (×3 below).
            sim_jobs_run: self.sim_jobs_run.load(Ordering::Relaxed), // ORDERING: see above
            sim_jobs_requested: self.sim_jobs_requested.load(Ordering::Relaxed), // ORDERING: see above
            suite_memo_hits: self.suite_memo_hits.load(Ordering::Relaxed), // ORDERING: see above
            sim_busy_nanos: self.sim_busy_nanos.load(Ordering::Relaxed), // ORDERING: see above
        }
    }

    /// Submits one job per trace — build `spec`'s engine, run it over the
    /// trace — and returns the in-flight batch without waiting.
    fn submit(
        &self,
        spec: &PredictorSpec,
        scenario: UpdateScenario,
        cfg: &PipelineConfig,
    ) -> Arc<Batch<SimReport>> {
        let n = self.traces.len();
        // ORDERING: statistics only (see `stats`); the jobs themselves
        // synchronize through the queue mutex and batch condvar.
        self.sim_jobs_requested.fetch_add(n as u64, Ordering::Relaxed); // ORDERING: see above
        self.sim_jobs_run.fetch_add(n as u64, Ordering::Relaxed); // ORDERING: see above
        let job = Arc::new((spec.clone(), cfg.clone()));
        let jobs = (0..n)
            .map(|i| {
                let job = Arc::clone(&job);
                let traces = Arc::clone(&self.traces);
                let busy = Arc::clone(&self.sim_busy_nanos);
                move || {
                    timed(&busy, || {
                        let (spec, cfg) = &*job;
                        // INVARIANT: specs reach the scheduler validated
                        // (PredictorSpec::parse); a failure re-raises on the waiter.
                        let mut engine = spec.build_engine(scenario, cfg).expect("spec validated");
                        simulate_engine(&mut *engine, &mut TraceStream::new(&traces[i]))
                    })
                }
            })
            .collect();
        self.pool.fan_out(jobs)
    }

    /// Simulates `spec` (one cold predictor per trace, one pool job per
    /// trace) under `scenario`, returning reports in suite order. Memoized
    /// by `(spec.sim_key(), scenario, cfg.fingerprint())`: the first
    /// request computes (or collects a prefetched batch), duplicates are
    /// served from cache. The key drops only the display label, so two
    /// specs share an entry exactly when they simulate the same bits.
    pub fn run(
        &self,
        spec: &PredictorSpec,
        scenario: UpdateScenario,
        cfg: &PipelineConfig,
    ) -> SuiteReport {
        let key = (spec.sim_key(), scenario, cfg.fingerprint());
        if let Some(hit) = locked(&self.cache).get(&key) {
            // ORDERING: statistics only (see `stats`); the memo hit itself
            // is protected by the cache mutex.
            self.suite_memo_hits.fetch_add(1, Ordering::Relaxed); // ORDERING: see above
            self.sim_jobs_requested.fetch_add(self.traces.len() as u64, Ordering::Relaxed); // ORDERING: see above
            return hit.clone();
        }
        // A prefetched suite already runs (and was counted) on the pool:
        // wait for it and promote it into the memo cache. The jobs were
        // requested when the prefetch submitted them, so nothing is
        // double-counted here.
        let prefetched = locked(&self.pending).remove(&key);
        let batch = prefetched.unwrap_or_else(|| self.submit(spec, scenario, cfg));
        let report = SuiteReport::new(batch.wait());
        locked(&self.cache).insert(key, report.clone());
        report
    }

    /// [`SuiteRunner::run`]'s eager half: submits the suite's jobs without
    /// waiting for the results. No-op when the suite is already cached or
    /// already in flight; the first later `run` with the same key consumes
    /// the in-flight batch. This is what lets `tage_exp all` overlap
    /// independent experiments' suites on the pool.
    pub fn prefetch(&self, spec: &PredictorSpec, scenario: UpdateScenario, cfg: &PipelineConfig) {
        let key = (spec.sim_key(), scenario, cfg.fingerprint());
        if locked(&self.cache).contains_key(&key) {
            return;
        }
        let mut pending = locked(&self.pending);
        if pending.contains_key(&key) {
            return;
        }
        pending.insert(key, self.submit(spec, scenario, cfg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::suite::{generate_parallel, Scale};

    fn tiny_traces() -> Arc<Vec<Trace>> {
        Arc::new(generate_parallel(Scale::Tiny, None))
    }

    #[test]
    fn pool_runs_all_jobs_with_stealing() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        let jobs: Vec<_> = (0..64u64)
            .map(|i| {
                let counter = Arc::clone(&counter);
                move || {
                    // Uneven job sizes force stealing off the loaded deques.
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

    fn spec(s: &str) -> PredictorSpec {
        PredictorSpec::parse(s).unwrap()
    }

    /// Every trace through one cold engine each, serially, in suite order.
    fn serial(traces: &[Trace], spec: &PredictorSpec, scenario: UpdateScenario) -> Vec<SimReport> {
        let cfg = PipelineConfig::default();
        traces
            .iter()
            .map(|t| {
                let mut engine = spec.build_engine(scenario, &cfg).unwrap();
                simulate_engine(&mut *engine, &mut TraceStream::new(t))
            })
            .collect()
    }

    #[test]
    fn memoized_suite_is_computed_once() {
        let runner = SuiteRunner::new(tiny_traces(), Some(2));
        let cfg = PipelineConfig::default();
        let bimodal = spec("bimodal:4096,2");
        let a = runner.run(&bimodal, UpdateScenario::RereadAtRetire, &cfg);
        let stats = runner.stats();
        assert_eq!(stats.sim_jobs_run, 40);
        assert_eq!(stats.suite_memo_hits, 0);
        assert!(stats.sim_busy_nanos > 0, "job timing must accumulate");
        let busy_after_run = stats.sim_busy_nanos;
        let b = runner.run(&bimodal, UpdateScenario::RereadAtRetire, &cfg);
        let stats = runner.stats();
        assert_eq!(stats.sim_jobs_run, 40, "duplicate suite must not re-simulate");
        assert_eq!(stats.sim_jobs_requested, 80);
        assert_eq!(stats.suite_memo_hits, 1);
        assert_eq!(stats.sim_busy_nanos, busy_after_run, "memo hits cost no busy time");
        assert!(stats.mean_job_millis() >= 0.0);
        assert!(stats.busy_seconds() > 0.0);
        assert_eq!(a.reports, b.reports);
        // A different scenario is a different key.
        runner.run(&bimodal, UpdateScenario::FetchOnly, &cfg);
        assert_eq!(runner.stats().sim_jobs_run, 80);
        // So is a different pipeline configuration.
        let profiled = PipelineConfig { branch_stats: true, ..PipelineConfig::default() };
        runner.run(&bimodal, UpdateScenario::FetchOnly, &profiled);
        assert_eq!(runner.stats().sim_jobs_run, 120);
    }

    #[test]
    fn label_only_variants_share_one_memo_entry() {
        let runner = SuiteRunner::new(tiny_traces(), Some(2));
        let cfg = PipelineConfig::default();
        let labeled = runner.run(&spec("tage+ium/as=T"), UpdateScenario::RereadAtRetire, &cfg);
        let plain = runner.run(&spec("tage+ium"), UpdateScenario::RereadAtRetire, &cfg);
        assert_eq!(runner.stats().sim_jobs_run, 40);
        assert_eq!(runner.stats().suite_memo_hits, 1);
        assert_eq!(labeled.reports, plain.reports);
    }

    #[test]
    fn prefetched_suite_is_consumed_not_recomputed() {
        let traces = tiny_traces();
        let runner = SuiteRunner::new(Arc::clone(&traces), Some(2));
        let cfg = PipelineConfig::default();
        let g11 = spec("gshare:11");
        let sc = UpdateScenario::FetchOnly;
        runner.prefetch(&g11, sc, &cfg);
        // A duplicate prefetch of an in-flight suite is a no-op.
        runner.prefetch(&g11, sc, &cfg);
        assert_eq!(runner.stats().sim_jobs_run, 40, "prefetch submits exactly once");
        // The first request consumes the in-flight batch.
        let a = runner.run(&g11, sc, &cfg);
        assert_eq!(runner.stats().sim_jobs_run, 40, "consume must not re-simulate");
        assert_eq!(runner.stats().suite_memo_hits, 0);
        // The second hits the promoted memo entry.
        let b = runner.run(&g11, sc, &cfg);
        assert_eq!(runner.stats().suite_memo_hits, 1);
        assert_eq!(runner.stats().sim_jobs_requested, 80);
        assert_eq!(a.reports, b.reports);
        // Prefetching an already-cached suite is a no-op too.
        runner.prefetch(&g11, sc, &cfg);
        assert_eq!(runner.stats().sim_jobs_run, 40);
        // And the result is bit-identical to a serial run.
        assert_eq!(a.reports, serial(&traces, &g11, sc));
    }

    #[test]
    fn pooled_suite_matches_serial_in_order() {
        let traces = tiny_traces();
        let runner = SuiteRunner::new(Arc::clone(&traces), Some(3));
        let g10 = spec("gshare:10");
        let sc = UpdateScenario::RereadOnMispredict;
        let pooled = runner.run(&g10, sc, &PipelineConfig::default());
        for (r, t) in pooled.reports.iter().zip(traces.iter()) {
            assert_eq!(r.trace, t.name);
        }
        assert_eq!(pooled.reports, serial(&traces, &g10, sc));
    }
}
