//! Shared experiment context: the trace suite plus the deduplicating
//! parallel scheduler every experiment runs through.
//!
//! The suite backs the context in one of two modes ([`SuiteSource`]):
//!
//! * **materialized** (default) — the 40 traces are generated once up
//!   front (in parallel, optionally through the on-disk cache) and shared
//!   with the worker threads;
//! * **streamed** (`ExpOptions::stream`) — only the 40
//!   [`workloads::TraceSpec`] recipes are kept; every simulation job
//!   regenerates its trace lazily, so suite memory never exceeds one
//!   in-flight window per worker. Bit-identical to materialized mode (the
//!   `streamed_suite_matches_materialized_bit_for_bit` test pins this),
//!   at the price of per-job regeneration — worth it above `Scale::Full`.

use crate::runner::{default_threads, SchedulerStats, SuiteRunner, SuiteSource};
use crate::spec::PredictorSpec;
use pipeline::{PipelineConfig, SuiteReport};
use simkit::predictor::UpdateScenario;
use std::sync::Arc;
use workloads::event::EventSource;
use workloads::io::TraceCache;
use workloads::suite::{generate_parallel, suite, Scale};
use workloads::{Trace, TraceStats};

/// Construction options for [`ExpContext`].
#[derive(Clone, Debug, Default)]
pub struct ExpOptions {
    /// Worker threads for the scheduler pool (`None`: available
    /// parallelism, capped at 16).
    pub threads: Option<usize>,
    /// On-disk trace cache directory; generated traces are persisted here
    /// and reloaded on later invocations. Ignored in stream mode (there is
    /// nothing to persist).
    pub trace_cache: Option<std::path::PathBuf>,
    /// Stream-first mode: regenerate traces inside each job instead of
    /// materializing the suite.
    pub stream: bool,
    /// Collect per-static-branch profiles
    /// ([`pipeline::report::BranchProfile`]) in every simulation run
    /// through this context. Off by default; aggregates are unchanged
    /// either way.
    pub branch_stats: bool,
}

impl ExpOptions {
    /// Options from the environment: `TAGE_TRACE_CACHE=<dir>` enables the
    /// on-disk trace cache (used by the binaries; tests construct options
    /// explicitly to stay hermetic).
    pub fn from_env() -> Self {
        Self {
            threads: None,
            trace_cache: std::env::var_os("TAGE_TRACE_CACHE").map(Into::into),
            stream: false,
            branch_stats: false,
        }
    }
}

/// Everything an experiment needs: the 40-trace suite (materialized or
/// streamed), the pipeline model, and the scheduler that runs (and
/// memoizes) suite simulations.
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

    /// Builds the context at `scale`. In materialized mode traces are
    /// generated in parallel (through the on-disk cache when one is
    /// configured); in stream mode only the recipes are built.
    pub fn with_options(scale: Scale, opts: ExpOptions) -> Self {
        let threads = opts.threads.unwrap_or_else(default_threads);
        let source = if opts.stream {
            SuiteSource::Streamed(Arc::new(suite(scale)))
        } else {
            let cache = opts.trace_cache.and_then(|dir| TraceCache::new(dir).ok());
            let traces = generate_parallel(scale, Some(threads), cache.as_ref());
            SuiteSource::Materialized(Arc::new(traces))
        };
        let runner = SuiteRunner::new(source, Some(threads));
        let cfg = PipelineConfig { branch_stats: opts.branch_stats, ..PipelineConfig::default() };
        Self { scale, cfg, runner }
    }

    /// Whether this context runs in stream-first mode.
    pub fn streaming(&self) -> bool {
        matches!(self.runner.source(), SuiteSource::Streamed(_))
    }

    /// Number of traces in the suite.
    pub fn trace_count(&self) -> usize {
        self.runner.source().len()
    }

    /// The materialized traces, when not in stream mode (equivalence
    /// tests compare against these).
    pub fn materialized(&self) -> Option<&Arc<Vec<Trace>>> {
        match self.runner.source() {
            SuiteSource::Materialized(ts) => Some(ts),
            SuiteSource::Streamed(_) => None,
        }
    }

    /// A fresh event source for suite trace `i` — a borrowing stream over
    /// the materialized trace, or a lazy regeneration in stream mode.
    /// Experiments that walk raw events use this so they work in both
    /// modes with bounded memory.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn source_at(&self, i: usize) -> Box<dyn EventSource + '_> {
        self.runner.source().open(i)
    }

    /// Per-trace characterization statistics, in suite order. In stream
    /// mode traces are regenerated across the scheduler's worker count
    /// (one trace materialized per worker at a time — regeneration, the
    /// dominant cost, stays parallel like the materialized path's).
    pub fn trace_stats(&self) -> Vec<TraceStats> {
        match self.runner.source() {
            SuiteSource::Materialized(ts) => ts.iter().map(TraceStats::of).collect(),
            SuiteSource::Streamed(specs) => {
                let threads = self.threads().clamp(1, specs.len().max(1));
                std::thread::scope(|s| {
                    let chunks = specs.chunks(specs.len().div_ceil(threads).max(1));
                    let handles: Vec<_> = chunks
                        .map(|chunk| {
                            s.spawn(move || {
                                chunk
                                    .iter()
                                    .map(|sp| TraceStats::of(&sp.stream().collect_trace()))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        // INVARIANT: re-raises a worker panic on the
                        // caller; never an expected error path.
                        .flat_map(|h| h.join().expect("stats worker panicked"))
                        .collect()
                })
            }
        }
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
    use workloads::event::TraceStream;

    fn spec(s: &str) -> PredictorSpec {
        PredictorSpec::parse(s).unwrap()
    }

    #[test]
    fn parallel_run_matches_serial() {
        let ctx = ExpContext::new(Scale::Tiny);
        let par = ctx.run_spec(&spec("gshare:12"), UpdateScenario::RereadAtRetire);
        let serial: Vec<_> = ctx
            .materialized()
            .unwrap()
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
    fn trace_cache_round_trips_through_context() {
        let dir = std::env::temp_dir()
            .join(format!("tage-ctx-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ExpOptions {
            threads: Some(2),
            trace_cache: Some(dir.clone()),
            ..Default::default()
        };
        let cold = ExpContext::with_options(Scale::Tiny, opts.clone());
        let warm = ExpContext::with_options(Scale::Tiny, opts);
        assert_eq!(*cold.materialized().unwrap(), *warm.materialized().unwrap());
        let plain = ExpContext::new(Scale::Tiny);
        assert_eq!(
            *warm.materialized().unwrap(),
            *plain.materialized().unwrap(),
            "cache must not change trace content"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_mode_matches_materialized_bit_for_bit() {
        let opts = |stream| ExpOptions { threads: Some(2), trace_cache: None, stream, ..Default::default() };
        let materialized = ExpContext::with_options(Scale::Tiny, opts(false));
        let streamed = ExpContext::with_options(Scale::Tiny, opts(true));
        assert!(streamed.streaming());
        assert!(streamed.materialized().is_none());
        assert_eq!(streamed.trace_count(), 40);
        for (s, scenario) in
            [("gshare:12", UpdateScenario::RereadAtRetire), ("tage+ium", UpdateScenario::FetchOnly)]
        {
            let a = materialized.run_spec(&spec(s), scenario);
            let b = streamed.run_spec(&spec(s), scenario);
            assert_eq!(a.reports, b.reports, "stream mode must be bit-identical for {s}");
        }
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
            .materialized()
            .unwrap()
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
    fn stream_mode_stats_and_sources_match() {
        let opts = |stream| ExpOptions { threads: Some(2), trace_cache: None, stream, ..Default::default() };
        let materialized = ExpContext::with_options(Scale::Tiny, opts(false));
        let streamed = ExpContext::with_options(Scale::Tiny, opts(true));
        assert_eq!(materialized.trace_stats(), streamed.trace_stats());
        let a = materialized.source_at(3).collect_trace();
        let b = streamed.source_at(3).collect_trace();
        assert_eq!(a, b);
    }
}
