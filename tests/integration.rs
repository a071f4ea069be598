//! Cross-crate integration tests: the paper's headline claims, asserted
//! end-to-end on aggregate over suite traces (small scales for CI speed).
//!
//! The suite is generated once and shared across tests, and the heavy
//! sweeps are sharded into separate `#[test]` functions so the test
//! harness runs them concurrently. The heaviest sweeps are
//! debug-ignored: they run under `--release` (or `-- --ignored`), where
//! they cost seconds instead of minutes.

use pipeline::{simulate_engine, PipelineConfig, SimReport, SuiteReport, WindowEngine};
use simkit::{Predictor, UpdateScenario};
use std::sync::{Arc, OnceLock};
use tage::TageSystem;
use workloads::suite::{by_name, suite, Scale, HARD_TRACES};
use workloads::{Trace, TraceSpec};

/// The Tiny 40-trace suite, generated once per test binary and shared.
fn tiny_suite() -> Arc<Vec<Trace>> {
    static SUITE: OnceLock<Arc<Vec<Trace>>> = OnceLock::new();
    SUITE
        .get_or_init(|| Arc::new(suite(Scale::Tiny).iter().map(TraceSpec::generate).collect()))
        .clone()
}

/// One cold predictor over one trace, through the simulation engine.
fn run<P>(p: P, t: &Trace, s: UpdateScenario) -> SimReport
where
    P: Predictor + Send,
    P::Flight: Send,
{
    simulate_engine(&mut WindowEngine::new(p, s, &PipelineConfig::default()), &mut t.stream())
}

fn run_all<P>(make: impl Fn() -> P, traces: &[Trace], s: UpdateScenario) -> SuiteReport
where
    P: Predictor + Send,
    P::Flight: Send,
{
    SuiteReport::new(traces.iter().map(|t| run(make(), t, s)).collect())
}

#[test]
fn tage_beats_gshare_and_gehl_on_suite() {
    let traces = tiny_suite();
    let tage = run_all(TageSystem::reference_tage, &traces, UpdateScenario::RereadAtRetire);
    let gshare = run_all(baselines::Gshare::cbp_512k, &traces, UpdateScenario::RereadAtRetire);
    let gehl = run_all(baselines::Gehl::cbp_520k, &traces, UpdateScenario::RereadAtRetire);
    assert!(
        tage.mppki() < gehl.mppki() && gehl.mppki() < gshare.mppki(),
        "paper ordering TAGE < GEHL < gshare violated: {:.0} / {:.0} / {:.0}",
        tage.mppki(),
        gehl.mppki(),
        gshare.mppki()
    );
}

/// §4.1.2: [I] <= [A] <= [C] <= [B] in total mispredictions (per-trace
/// inversions are allowed; the aggregate ordering is the paper's claim).
/// One shard per predictor family so the sweeps run concurrently.
fn assert_scenario_ordering(name: &str, run: impl Fn(UpdateScenario) -> u64) {
    let i = run(UpdateScenario::Immediate);
    let a = run(UpdateScenario::RereadAtRetire);
    let b = run(UpdateScenario::FetchOnly);
    let c = run(UpdateScenario::RereadOnMispredict);
    assert!(i <= a + a / 100, "{name}: [I] {i} > [A] {a}");
    assert!(a <= c + c / 50, "{name}: [A] {a} > [C] {c}");
    assert!(c <= b + b / 100, "{name}: [C] {c} > [B] {b}");
}

#[test]
fn scenario_ordering_holds_for_gshare() {
    let traces = tiny_suite();
    assert_scenario_ordering("gshare", |s| {
        run_all(baselines::Gshare::cbp_512k, &traces, s).total_mispredicts()
    });
}

#[test]
#[cfg_attr(debug_assertions, ignore = "4 GEHL suite sweeps; run under --release or --ignored")]
fn scenario_ordering_holds_for_gehl() {
    let traces = tiny_suite();
    assert_scenario_ordering("gehl", |s| {
        run_all(baselines::Gehl::cbp_520k, &traces, s).total_mispredicts()
    });
}

#[test]
fn scenario_ordering_holds_for_tage() {
    let traces = tiny_suite();
    assert_scenario_ordering("tage", |s| {
        run_all(TageSystem::reference_tage, &traces, s).total_mispredicts()
    });
}

#[test]
#[cfg_attr(debug_assertions, ignore = "6 suite sweeps; run under --release or --ignored")]
fn tage_tolerates_fetch_only_better_than_others() {
    // §4.2: TAGE's relative loss under [B] is smaller than gshare's and
    // GEHL's — the paper's case for single-ported TAGE tables.
    let traces = tiny_suite();
    let rel_loss = |i: u64, b: u64| b as f64 / i as f64;
    let g_i = run_all(baselines::Gshare::cbp_512k, &traces, UpdateScenario::Immediate);
    let g_b = run_all(baselines::Gshare::cbp_512k, &traces, UpdateScenario::FetchOnly);
    let e_i = run_all(baselines::Gehl::cbp_520k, &traces, UpdateScenario::Immediate);
    let e_b = run_all(baselines::Gehl::cbp_520k, &traces, UpdateScenario::FetchOnly);
    let t_i = run_all(TageSystem::reference_tage, &traces, UpdateScenario::Immediate);
    let t_b = run_all(TageSystem::reference_tage, &traces, UpdateScenario::FetchOnly);
    let tage_loss = rel_loss(t_i.total_mispredicts(), t_b.total_mispredicts());
    let gshare_loss = rel_loss(g_i.total_mispredicts(), g_b.total_mispredicts());
    let gehl_loss = rel_loss(e_i.total_mispredicts(), e_b.total_mispredicts());
    // At Tiny scale cold-start noise compresses the gaps; the strict
    // ordering TAGE < gshare < GEHL is asserted at Default scale by the
    // harness (E03). Here: TAGE must beat GEHL outright and not lose to
    // gshare by more than measurement noise.
    assert!(
        tage_loss < gehl_loss && tage_loss < gshare_loss + 0.02,
        "TAGE [B]-loss {tage_loss:.3} out of band (gshare {gshare_loss:.3}, gehl {gehl_loss:.3})"
    );
}

#[test]
fn isl_tage_improves_on_tage() {
    // §5 stack: ISL-TAGE ≤ TAGE (suite MPPKI).
    let traces = tiny_suite();
    let tage = run_all(TageSystem::reference_tage, &traces, UpdateScenario::RereadAtRetire);
    let isl = run_all(TageSystem::isl_tage, &traces, UpdateScenario::RereadAtRetire);
    assert!(isl.mppki() < tage.mppki(), "ISL {:.0} vs TAGE {:.0}", isl.mppki(), tage.mppki());
}

#[test]
fn tage_lsc_improves_on_isl_tage() {
    // §6 stack: TAGE-LSC ≤ ISL-TAGE (suite MPPKI).
    let traces = tiny_suite();
    let isl = run_all(TageSystem::isl_tage, &traces, UpdateScenario::RereadAtRetire);
    let lsc = run_all(TageSystem::tage_lsc, &traces, UpdateScenario::RereadAtRetire);
    assert!(lsc.mppki() < isl.mppki(), "LSC {:.0} vs ISL {:.0}", lsc.mppki(), isl.mppki());
}

#[test]
fn hard_traces_dominate_mispredictions() {
    // §2.2: the 7 hard traces carry the majority of suite mispredictions.
    let traces = tiny_suite();
    let r = run_all(TageSystem::reference_tage, &traces, UpdateScenario::RereadAtRetire);
    let share = r.mispredict_share(&HARD_TRACES);
    // ~52 % at Default scale; Tiny-scale cold-start dilutes it somewhat.
    assert!(share > 0.3, "hard-trace share too small: {share:.2}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "2-Mbit TAGE sweeps; run under --release or --ignored")]
fn figure9_scaling_improves_tage() {
    // Fig. 9: a 16x larger TAGE predicts better.
    let traces = tiny_suite();
    // Capacity effects need repetition; at Tiny scale only the widest
    // budget gap (128 Kbit vs 2 Mbit) is reliably visible. The full sweep
    // runs at Default scale in the harness (E11).
    let small = run_all(|| TageSystem::scaled_tage(-2), &traces, UpdateScenario::RereadAtRetire);
    let big = run_all(|| TageSystem::scaled_tage(2), &traces, UpdateScenario::RereadAtRetire);
    assert!(
        big.total_mispredicts() < small.total_mispredicts(),
        "scaling TAGE 16x should help: {} vs {}",
        big.total_mispredicts(),
        small.total_mispredicts()
    );
}

#[test]
fn figure9_lsc_beats_same_size_tage() {
    // Fig. 9: TAGE-LSC stays ahead of the same-size plain TAGE.
    let traces = tiny_suite();
    let small = run_all(|| TageSystem::scaled_tage(-2), &traces, UpdateScenario::RereadAtRetire);
    let lsc = run_all(|| TageSystem::scaled_tage_lsc(-2), &traces, UpdateScenario::RereadAtRetire);
    assert!(lsc.mppki() < small.mppki());
}

#[test]
fn interleaving_costs_little() {
    // E04's pair: the reference TAGE and its 4-way bank-interleaved twin.
    let t = by_name("CLIENT01", Scale::Tiny).unwrap().generate();
    let scenario = UpdateScenario::RereadOnMispredict;
    let build = |spec: &str| spec.parse::<tage::SystemSpec>().unwrap().build().unwrap();
    let base = run(build("tage"), &t, scenario);
    let inter = run(build("tage/ilv"), &t, scenario);
    // On an easy trace the interleaving loss must be small.
    assert!(
        (inter.mispredicts as f64) < base.mispredicts as f64 * 2.0 + 50.0,
        "interleaving loss out of band: {} vs {}",
        inter.mispredicts,
        base.mispredicts
    );
}

#[test]
fn mppki_exceeds_mpki_scaled_by_min_penalty() {
    // The penalty model must charge at least the refill penalty.
    let t = by_name("SERVER02", Scale::Tiny).unwrap().generate();
    let r = run(TageSystem::reference_tage(), &t, UpdateScenario::RereadAtRetire);
    assert!(r.mppki() >= r.mpki() * pipeline::core_model::REFILL_PENALTY as f64);
}

#[test]
fn access_counts_match_scenario_c_structure() {
    // §4.2: under [C], retire reads == mispredictions; accesses/branch is
    // 1 + (mispredict rate) + (effective writes rate).
    let t = by_name("WS01", Scale::Tiny).unwrap().generate();
    let r = run(TageSystem::reference_tage(), &t, UpdateScenario::RereadOnMispredict);
    assert_eq!(r.stats.retire_reads, r.mispredicts);
    let expected = 1.0
        + r.mispredicts as f64 / r.conditionals as f64
        + r.stats.effective_writes as f64 / r.conditionals as f64;
    assert!((r.accesses_per_branch() - expected).abs() < 1e-9);
}

#[test]
fn full_lifecycle_is_deterministic_across_runs() {
    let t = by_name("MM07", Scale::Tiny).unwrap().generate();
    let once = || run(TageSystem::tage_lsc(), &t, UpdateScenario::RereadOnMispredict);
    assert_eq!(once(), once());
}

#[test]
fn streamed_simulation_is_bit_identical_end_to_end() {
    // The tentpole invariant, asserted at the workspace level: simulating
    // a lazily streamed program equals simulating its materialized trace,
    // report for report, for the full TAGE-LSC system.
    let spec = by_name("CLIENT02", Scale::Tiny).unwrap();
    let scenario = UpdateScenario::RereadAtRetire;
    let materialized = run(TageSystem::tage_lsc(), &spec.generate(), scenario);
    let mut engine = WindowEngine::new(TageSystem::tage_lsc(), scenario, &PipelineConfig::default());
    let streamed = simulate_engine(&mut engine, &mut spec.stream());
    assert_eq!(streamed, materialized);
}

#[test]
fn storage_budgets_match_paper() {
    // §3.4 and §6.1 budget arithmetic.
    assert_eq!(tage::TageConfig::reference_64kb().storage_bits(), 65_408 * 8);
    assert!(TageSystem::tage_lsc().storage_bits() <= 512 * 1024);
    let isl = TageSystem::isl_tage();
    assert!(isl.storage_bits() - tage::TageConfig::reference_64kb().storage_bits() < 40 * 1024);
}
