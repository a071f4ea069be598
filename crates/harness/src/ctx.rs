//! Shared experiment context: the trace suite plus the deduplicating
//! parallel scheduler every experiment runs through.
//!
//! The 40 traces are generated once per context, in parallel, and shared
//! with the worker threads; every scheduler job streams one of them
//! through a [`workloads::TraceStream`]. DESIGN.md §3 records why this is
//! the only way the harness holds the suite.

use crate::runner::{default_threads, SchedulerStats, SuiteRunner};
use crate::spec::PredictorSpec;
use pipeline::{PipelineConfig, SuiteReport};
use simkit::predictor::UpdateScenario;
use std::sync::Arc;
use workloads::suite::{generate_parallel, Scale};
use workloads::Trace;

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

/// Everything an experiment needs: the 40-trace suite, the pipeline
/// model, and the scheduler that runs (and memoizes) suite simulations.
pub struct ExpContext {
    /// Trace scale in use.
    pub scale: Scale,
    /// Pipeline configuration (in-flight window, core model).
    pub cfg: PipelineConfig,
    runner: SuiteRunner,
}

impl ExpContext {
    /// Generates the full suite at `scale` with default options.
    pub fn new(scale: Scale) -> Self {
        Self::with_options(scale, ExpOptions::default())
    }

    /// Generates the suite at `scale` in parallel and builds the
    /// scheduler over it.
    pub fn with_options(scale: Scale, opts: ExpOptions) -> Self {
        let threads = opts.threads.unwrap_or_else(default_threads);
        let traces = Arc::new(generate_parallel(scale, Some(threads)));
        let runner = SuiteRunner::new(traces, Some(threads));
        let cfg = PipelineConfig { branch_stats: opts.branch_stats, ..PipelineConfig::default() };
        Self { scale, cfg, runner }
    }

    /// The suite's traces, in suite order.
    pub fn traces(&self) -> &[Trace] {
        self.runner.traces()
    }

    /// Runs a declarative [`PredictorSpec`] over the suite (one cold
    /// predictor per trace, one scheduler job per trace), memoized by
    /// [`PredictorSpec::sim_key`] — the canonical string minus the
    /// display-only label — so two rows share a cached suite exactly
    /// when they simulate the same composition.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails to build — validate specs before handing
    /// them to the scheduler.
    pub fn run_spec(&self, spec: &PredictorSpec, scenario: UpdateScenario) -> SuiteReport {
        self.runner.run(spec, scenario, &self.cfg)
    }

    /// Eager twin of [`ExpContext::run_spec`]: submit now, collect later.
    /// No-op when the suite is already cached or in flight.
    ///
    /// # Panics
    ///
    /// A spec that fails to build panics when the suite is collected.
    pub fn prefetch_spec(&self, spec: &PredictorSpec, scenario: UpdateScenario) {
        self.runner.prefetch(spec, scenario, &self.cfg);
    }

    /// Scheduler counters (jobs run vs requested, memo hits).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.runner.stats()
    }

    /// Worker threads in the scheduler pool.
    pub fn threads(&self) -> usize {
        self.runner.pool().threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::{simulate_engine, WindowEngine};
    use workloads::TraceStream;

    fn spec(s: &str) -> PredictorSpec {
        PredictorSpec::parse(s).unwrap()
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
        let ctx = ExpContext::with_options(
            Scale::Tiny,
            ExpOptions { threads: Some(2), ..Default::default() },
        );
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
        let ctx = ExpContext::with_options(
            Scale::Tiny,
            ExpOptions { threads: Some(2), ..Default::default() },
        );
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
}
