//! Criterion benchmark support: shared fixtures for the `throughput` and
//! `experiments` benches.
//!
//! * `benches/throughput.rs` — prediction-rate microbenchmarks of every
//!   predictor (how fast the simulator itself runs);
//! * `benches/experiments.rs` — one benchmark per paper table/figure,
//!   running a scaled-down (Tiny) version of the experiment kernel so
//!   `cargo bench` exercises every experiment code path.

#![forbid(unsafe_code)]

use pipeline::{simulate_engine, PipelineConfig, SimReport, WindowEngine};
use simkit::predictor::{Predictor, UpdateScenario};
use workloads::event::TraceStream;
use workloads::suite::{by_name, Scale};
use workloads::Trace;

/// A small fixed trace for microbenchmarks.
pub fn bench_trace(name: &str) -> Trace {
    // INVARIANT: bench fixtures name suite members only; an unknown name
    // is a bench-code bug, failing at startup.
    by_name(name, Scale::Tiny).expect("known trace").generate()
}

/// Runs one predictor over one trace under one scenario through the
/// simulation engine (the benchmark kernel shared by all benches).
pub fn run_once<P>(p: P, trace: &Trace, scenario: UpdateScenario) -> SimReport
where
    P: Predictor + Send,
    P::Flight: Send,
{
    let mut engine = WindowEngine::new(p, scenario, &PipelineConfig::default());
    simulate_engine(&mut engine, &mut TraceStream::new(trace))
}

/// Runs one predictor over a lazily streamed trace (generation fused into
/// simulation, no materialized `Vec<TraceEvent>`): the streaming-path
/// counterpart of [`run_once`].
pub fn run_streamed<P>(p: P, name: &str, scenario: UpdateScenario) -> SimReport
where
    P: Predictor + Send,
    P::Flight: Send,
{
    let spec = by_name(name, Scale::Tiny).expect("known trace"); // INVARIANT: see bench_trace
    let mut engine = WindowEngine::new(p, scenario, &PipelineConfig::default());
    simulate_engine(&mut engine, &mut spec.stream())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_work() {
        let t = bench_trace("MM01");
        let r = run_once(baselines::Gshare::new(12), &t, UpdateScenario::RereadAtRetire);
        assert_eq!(r.conditionals, t.conditional_count());
    }
}
