//! The experiment context: the trace suite plus the deduplicating
//! parallel scheduler every experiment runs through.
//!
//! `tage_exp all` runs 16 experiments, and several of them independently
//! re-simulate the *identical* (predictor, scenario) suite — the reference
//! TAGE under scenario [A] alone is requested by five experiments. An
//! [`ExpContext`] fixes both the redundancy and the scheduling:
//!
//! * one [`WorkerPool`] spans the whole invocation. It generates the
//!   suite, one job per trace, and then runs the per-trace simulation
//!   jobs of every experiment on the same worker threads;
//! * the context owns the materialized suite and has one job shape: build
//!   the spec's engine ([`PredictorSpec::build_engine`]) and run it over a
//!   [`TraceStream`] of trace `i` ([`simulate_engine`]). DESIGN.md §3
//!   records why this is the only way the harness holds the suite;
//! * suite results are memoized by `(spec.sim_key(), scenario, cfg)`, so
//!   duplicate requests are served from cache and counted — the
//!   [`SchedulerStats`] counters make the dedup observable (and
//!   testable);
//! * suites can be **prefetched**: `tage_exp all` enqueues every
//!   experiment's suite jobs eagerly before rendering the first table, so
//!   independent experiments' single-suite tails overlap on many-core
//!   machines instead of running serially. A prefetched suite parks its
//!   in-flight [`Batch`] in a pending map; the first consumer waits on it
//!   and promotes the result into the memo cache.

use crate::runner::{default_threads, locked, Batch, WorkerPool};
use crate::spec::PredictorSpec;
use pipeline::{simulate_engine, PipelineConfig, SimReport, SuiteReport};
use simkit::predictor::UpdateScenario;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use workloads::suite::{suite, Scale};
use workloads::{Trace, TraceStream};

/// Construction options for [`ExpContext`].
#[derive(Clone, Debug, Default)]
pub struct ExpOptions {
    /// Worker threads for suite generation and the scheduler pool
    /// (`None`: available parallelism, capped at 16).
    pub threads: Option<usize>,
    /// Collect per-static-branch profiles
    /// ([`pipeline::report::BranchProfile`]) in every simulation run
    /// through this context. Off by default; aggregates are unchanged
    /// either way.
    pub branch_stats: bool,
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

/// The memo key. `cfg` is a public field a caller may change between
/// runs, so the configuration is part of the key.
type SuiteKey = (String, UpdateScenario, PipelineConfig);

/// Everything an experiment needs: the 40-trace suite, the pipeline
/// configuration, and the scheduler that runs (and memoizes) suite
/// simulations on one worker pool. See the module docs for the why.
pub struct ExpContext {
    /// Trace scale in use.
    pub scale: Scale,
    /// Pipeline configuration (profiler switch and warmup/measure window)
    /// every suite runs under.
    pub cfg: PipelineConfig,
    pool: WorkerPool,
    traces: Arc<Vec<Trace>>,
    cache: Mutex<HashMap<SuiteKey, SuiteReport>>,
    /// Prefetched suites still in flight: submitted to the pool, not yet
    /// consumed into the memo cache.
    pending: Mutex<HashMap<SuiteKey, Arc<Batch<SimReport>>>>,
    /// Shared with pool jobs, which add their busy time (they outlive the
    /// borrow of `self`).
    stats: Arc<Mutex<SchedulerStats>>,
}

impl ExpContext {
    /// Generates the full suite at `scale` with default options.
    pub fn new(scale: Scale) -> Self {
        Self::with_options(scale, ExpOptions::default())
    }

    /// Starts the worker pool and generates the suite at `scale` on it,
    /// one job per trace.
    pub fn with_options(scale: Scale, opts: ExpOptions) -> Self {
        let pool = WorkerPool::new(opts.threads.unwrap_or_else(default_threads));
        let jobs = suite(scale).into_iter().map(|spec| move || spec.generate()).collect();
        let traces = Arc::new(pool.run_ordered(jobs));
        Self {
            scale,
            cfg: PipelineConfig { branch_stats: opts.branch_stats, ..PipelineConfig::default() },
            pool,
            traces,
            cache: Mutex::default(),
            pending: Mutex::default(),
            stats: Arc::default(),
        }
    }

    /// The suite's traces, in suite order.
    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    /// Worker threads in the scheduler pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Counter snapshot (jobs run vs requested, memo hits, busy time).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        *locked(&self.stats)
    }

    /// Runs a declarative [`PredictorSpec`] over the suite under
    /// `self.cfg` (one cold predictor per trace, one pool job per trace)
    /// and returns the reports in suite order. Memoized by
    /// `(spec.sim_key(), scenario, cfg)`: the first request computes (or
    /// collects a prefetched batch), duplicates are served from cache.
    /// [`PredictorSpec::sim_key`] is the canonical string minus the
    /// display-only label, so two rows share a cached suite exactly when
    /// they simulate the same composition.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails to build — validate specs before handing
    /// them to the scheduler.
    pub fn run_spec(&self, spec: &PredictorSpec, scenario: UpdateScenario) -> SuiteReport {
        let key = (spec.sim_key(), scenario, self.cfg);
        if let Some(hit) = locked(&self.cache).get(&key) {
            let mut s = locked(&self.stats);
            s.suite_memo_hits += 1;
            s.sim_jobs_requested += self.traces.len() as u64;
            return hit.clone();
        }
        // A prefetched suite already runs (and was counted) on the pool:
        // wait for it and promote it into the memo cache. The jobs were
        // requested when the prefetch submitted them, so nothing is
        // double-counted here.
        let prefetched = locked(&self.pending).remove(&key);
        let batch = prefetched.unwrap_or_else(|| self.submit(spec, scenario));
        let report = SuiteReport::new(batch.wait());
        locked(&self.cache).insert(key, report.clone());
        report
    }

    /// [`ExpContext::run_spec`]'s eager half: submits the suite's jobs
    /// without waiting for the results. No-op when the suite is already
    /// cached or already in flight; the first later `run_spec` with the
    /// same key consumes the in-flight batch. This is what lets `tage_exp
    /// all` overlap independent experiments' suites on the pool.
    ///
    /// # Panics
    ///
    /// A spec that fails to build panics when the suite is collected.
    pub fn prefetch_spec(&self, spec: &PredictorSpec, scenario: UpdateScenario) {
        let key = (spec.sim_key(), scenario, self.cfg);
        if locked(&self.cache).contains_key(&key) {
            return;
        }
        if let Entry::Vacant(slot) = locked(&self.pending).entry(key) {
            slot.insert(self.submit(spec, scenario));
        }
    }

    /// Submits one job per trace — build `spec`'s engine, run it over the
    /// trace — and returns the in-flight batch without waiting.
    fn submit(&self, spec: &PredictorSpec, scenario: UpdateScenario) -> Arc<Batch<SimReport>> {
        let n = self.traces.len();
        {
            let mut s = locked(&self.stats);
            s.sim_jobs_requested += n as u64;
            s.sim_jobs_run += n as u64;
        }
        let (spec, cfg) = (Arc::new(spec.clone()), self.cfg);
        let jobs = (0..n)
            .map(|i| {
                let spec = Arc::clone(&spec);
                let traces = Arc::clone(&self.traces);
                let stats = Arc::clone(&self.stats);
                move || {
                    let start = std::time::Instant::now();
                    // INVARIANT: specs reach the scheduler validated
                    // (PredictorSpec::parse); a failure re-raises on the waiter.
                    let mut engine = spec.build_engine(scenario, &cfg).expect("spec validated");
                    let report = simulate_engine(&mut *engine, &mut TraceStream::new(&traces[i]));
                    locked(&stats).sim_busy_nanos += start.elapsed().as_nanos() as u64;
                    report
                }
            })
            .collect();
        self.pool.fan_out(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::{SimWindow, WindowEngine};
    use workloads::TraceSpec;

    fn spec(s: &str) -> PredictorSpec {
        PredictorSpec::parse(s).unwrap()
    }

    fn tiny(threads: usize) -> ExpContext {
        ExpContext::with_options(
            Scale::Tiny,
            ExpOptions { threads: Some(threads), ..Default::default() },
        )
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
    fn pooled_generation_matches_serial() {
        let ctx = tiny(7);
        let serial: Vec<Trace> = suite(Scale::Tiny).iter().map(TraceSpec::generate).collect();
        assert_eq!(ctx.traces().len(), 40);
        assert_eq!(ctx.traces(), &serial[..]);
    }

    #[test]
    fn parallel_run_matches_serial() {
        let ctx = ExpContext::new(Scale::Tiny);
        let par = ctx.run_spec(&spec("gshare:12"), UpdateScenario::RereadAtRetire);
        let serial: Vec<_> = ctx
            .traces()
            .iter()
            .map(|t| {
                let p = baselines::Gshare::new(12);
                let mut engine = WindowEngine::new(p, UpdateScenario::RereadAtRetire, &ctx.cfg);
                simulate_engine(&mut engine, &mut TraceStream::new(t))
            })
            .collect();
        assert_eq!(par.reports.len(), 40);
        // Order is preserved, every counter identical.
        assert_eq!(par.reports, serial);
    }

    #[test]
    fn cached_run_dedupes_and_matches() {
        let ctx = tiny(2);
        let a = ctx.run_spec(&spec("gshare:12"), UpdateScenario::FetchOnly);
        let b = ctx.run_spec(&spec("gshare:12"), UpdateScenario::FetchOnly);
        assert_eq!(a.reports, b.reports);
        let s = ctx.scheduler_stats();
        assert_eq!(s.sim_jobs_run, 40);
        assert_eq!(s.sim_jobs_requested, 80);
        assert_eq!(s.suite_memo_hits, 1);
    }

    #[test]
    fn run_spec_matches_direct_run_through_prefetch() {
        let ctx = tiny(2);
        let tage_ium = spec("tage+ium");
        ctx.prefetch_spec(&tage_ium, UpdateScenario::RereadAtRetire);
        let via_spec = ctx.run_spec(&tage_ium, UpdateScenario::RereadAtRetire);
        let direct: Vec<_> = ctx
            .traces()
            .iter()
            .map(|t| {
                let p = tage::TageSystem::tage_ium();
                let mut engine = WindowEngine::new(p, UpdateScenario::RereadAtRetire, &ctx.cfg);
                simulate_engine(&mut engine, &mut TraceStream::new(t))
            })
            .collect();
        assert_eq!(via_spec.reports.len(), 40);
        assert_eq!(via_spec.reports, direct, "spec route must match the preset predictor");
        // The prefetch ran the suite once; the run_spec consumed it.
        let s = ctx.scheduler_stats();
        assert_eq!((s.sim_jobs_run, s.sim_jobs_requested, s.suite_memo_hits), (40, 40, 0));
    }

    #[test]
    fn memoized_suite_is_computed_once() {
        let mut ctx = tiny(2);
        let cfg = ctx.cfg;
        let bimodal = spec("bimodal:4096,2");
        let a = ctx.run_spec(&bimodal, UpdateScenario::RereadAtRetire);
        let stats = ctx.scheduler_stats();
        assert_eq!(stats.sim_jobs_run, 40);
        assert_eq!(stats.suite_memo_hits, 0);
        assert!(stats.sim_busy_nanos > 0, "job timing must accumulate");
        let busy_after_run = stats.sim_busy_nanos;
        let b = ctx.run_spec(&bimodal, UpdateScenario::RereadAtRetire);
        let stats = ctx.scheduler_stats();
        assert_eq!(stats.sim_jobs_run, 40, "duplicate suite must not re-simulate");
        assert_eq!(stats.sim_jobs_requested, 80);
        assert_eq!(stats.suite_memo_hits, 1);
        assert_eq!(stats.sim_busy_nanos, busy_after_run, "memo hits cost no busy time");
        assert!(stats.mean_job_millis() >= 0.0);
        assert!(stats.busy_seconds() > 0.0);
        assert_eq!(a.reports, b.reports);
        // A different scenario is a different key.
        ctx.run_spec(&bimodal, UpdateScenario::FetchOnly);
        assert_eq!(ctx.scheduler_stats().sim_jobs_run, 80);
        // So is a different pipeline configuration: the profiler switch,
        // the warmup alone, or the measure alone.
        ctx.cfg = PipelineConfig { branch_stats: true, ..cfg };
        ctx.run_spec(&bimodal, UpdateScenario::FetchOnly);
        assert_eq!(ctx.scheduler_stats().sim_jobs_run, 120);
        ctx.cfg = PipelineConfig { window: SimWindow { warmup: 100, ..cfg.window }, ..cfg };
        let warm = ctx.run_spec(&bimodal, UpdateScenario::FetchOnly);
        assert_eq!(ctx.scheduler_stats().sim_jobs_run, 160);
        ctx.cfg = PipelineConfig { window: SimWindow { measure: 1_000, ..cfg.window }, ..cfg };
        ctx.run_spec(&bimodal, UpdateScenario::FetchOnly);
        assert_eq!(ctx.scheduler_stats().sim_jobs_run, 200);
        // An equal configuration built separately is the same key.
        ctx.cfg = PipelineConfig {
            branch_stats: false,
            window: SimWindow { warmup: 100, measure: u64::MAX },
        };
        let hit = ctx.run_spec(&bimodal, UpdateScenario::FetchOnly);
        assert_eq!(ctx.scheduler_stats().sim_jobs_run, 200);
        assert_eq!(ctx.scheduler_stats().suite_memo_hits, 2);
        assert_eq!(hit.reports, warm.reports);
    }

    #[test]
    fn label_only_variants_share_one_memo_entry() {
        let ctx = tiny(2);
        let labeled = ctx.run_spec(&spec("tage+ium/as=T"), UpdateScenario::RereadAtRetire);
        let plain = ctx.run_spec(&spec("tage+ium"), UpdateScenario::RereadAtRetire);
        assert_eq!(ctx.scheduler_stats().sim_jobs_run, 40);
        assert_eq!(ctx.scheduler_stats().suite_memo_hits, 1);
        assert_eq!(labeled.reports, plain.reports);
    }

    #[test]
    fn prefetched_suite_is_consumed_not_recomputed() {
        let ctx = tiny(2);
        let g11 = spec("gshare:11");
        let sc = UpdateScenario::FetchOnly;
        ctx.prefetch_spec(&g11, sc);
        // A duplicate prefetch of an in-flight suite is a no-op.
        ctx.prefetch_spec(&g11, sc);
        assert_eq!(ctx.scheduler_stats().sim_jobs_run, 40, "prefetch submits exactly once");
        // The first request consumes the in-flight batch.
        let a = ctx.run_spec(&g11, sc);
        assert_eq!(ctx.scheduler_stats().sim_jobs_run, 40, "consume must not re-simulate");
        assert_eq!(ctx.scheduler_stats().suite_memo_hits, 0);
        // The second hits the promoted memo entry.
        let b = ctx.run_spec(&g11, sc);
        assert_eq!(ctx.scheduler_stats().suite_memo_hits, 1);
        assert_eq!(ctx.scheduler_stats().sim_jobs_requested, 80);
        assert_eq!(a.reports, b.reports);
        // Prefetching an already-cached suite is a no-op too.
        ctx.prefetch_spec(&g11, sc);
        assert_eq!(ctx.scheduler_stats().sim_jobs_run, 40);
        // And the result is bit-identical to a serial run.
        assert_eq!(a.reports, serial(ctx.traces(), &g11, sc));
    }

    #[test]
    fn pooled_suite_matches_serial_in_order() {
        let ctx = tiny(3);
        let g10 = spec("gshare:10");
        let sc = UpdateScenario::RereadOnMispredict;
        let pooled = ctx.run_spec(&g10, sc);
        for (r, t) in pooled.reports.iter().zip(ctx.traces()) {
            assert_eq!(r.trace, t.name);
        }
        assert_eq!(pooled.reports, serial(ctx.traces(), &g10, sc));
    }
}
