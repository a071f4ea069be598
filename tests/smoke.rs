//! Smoke tests guarding the runnable surface: the quickstart flow the
//! README/docs advertise and the harness experiment entry point, both at
//! `Scale::Tiny` so `cargo test` keeps them from silently rotting. CI
//! additionally runs the actual `examples/*.rs` binaries and `tage_exp` in
//! release mode (see .github/workflows/ci.yml).

use pipeline::{simulate_engine, PipelineConfig, WindowEngine};
use simkit::{Predictor, UpdateScenario};
use tage::TageSystem;
use workloads::suite::{by_name, Scale};

/// In-process mirror of `examples/quickstart.rs`, scaled down to Tiny.
#[test]
fn quickstart_flow_runs_and_ranks_sanely() {
    let trace = by_name("CLIENT03", Scale::Tiny).expect("known trace").generate();
    assert!(trace.conditional_count() > 0);

    let cfg = PipelineConfig::default();
    let mut mpki = Vec::new();
    for p in [TageSystem::reference_tage(), TageSystem::isl_tage(), TageSystem::tage_lsc()] {
        assert!(p.storage_bits() > 0);
        let mut engine = WindowEngine::new(p, UpdateScenario::RereadAtRetire, &cfg);
        let report = simulate_engine(&mut engine, &mut trace.stream());
        assert_eq!(report.conditionals, trace.conditional_count());
        assert!(report.mpki().is_finite() && report.mpki() >= 0.0);
        mpki.push(report.mpki());
    }
    // CLIENT03 carries the local-history patterns §6 targets: the LSC
    // system must not lose to plain TAGE on it.
    assert!(
        mpki[2] <= mpki[0] * 1.05,
        "TAGE-LSC ({:.2}) should not trail TAGE ({:.2}) on CLIENT03",
        mpki[2],
        mpki[0]
    );
}

/// The harness experiment runner stays invocable end to end on a cheap
/// experiment id (the same entry `tage_exp` dispatches through).
#[test]
fn harness_experiment_entry_point_runs() {
    let ctx = harness::ExpContext::new(Scale::Tiny);
    assert!(
        harness::experiments::ALL_EXPERIMENTS.contains(&"fig3"),
        "experiment index lost its fig3 entry"
    );
    harness::experiments::run("fig3", &ctx);
}
