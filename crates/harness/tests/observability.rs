//! Observability invariants: the opt-in per-branch profiler must sum
//! exactly to the aggregate counters under every update scenario, run
//! artifacts must round-trip through JSON bit-for-bit, and artifact
//! bytes must be invariant across worker-thread counts.

use harness::artifact::{collect_paths, RunArtifact, SchedulerBlock};
use harness::{ExpContext, ExpOptions, PredictorSpec};
use pipeline::{simulate_engine, PipelineConfig, SimReport, WindowEngine};
use simkit::UpdateScenario;
use workloads::program::ProgramStream;
use workloads::suite::{by_name, Scale};

fn profiled_cfg() -> PipelineConfig {
    PipelineConfig { branch_stats: true, ..PipelineConfig::default() }
}

fn tiny_stream(name: &str) -> ProgramStream {
    by_name(name, Scale::Tiny).expect("suite trace").stream()
}

/// A cold `gshare:bits` over one Tiny suite trace.
fn gshare(bits: u32, name: &str, scenario: UpdateScenario, cfg: &PipelineConfig) -> SimReport {
    let mut engine = WindowEngine::new(baselines::Gshare::new(bits), scenario, cfg);
    simulate_engine(&mut engine, &mut tiny_stream(name))
}

/// The tentpole invariant, asserted on every scenario arm: each profile
/// counter column sums exactly to its aggregate `SimReport` twin.
#[test]
fn branch_profile_sums_to_aggregate_on_every_scenario() {
    let spec = PredictorSpec::parse("tage+ium+loop").expect("spec");
    for scenario in UpdateScenario::ALL {
        let mut p = spec.build_engine(scenario, &profiled_cfg()).expect("engine");
        let r = simulate_engine(p.as_mut(), &mut tiny_stream("SERVER01"));
        let profile = r.branches.as_ref().expect("profiler was on");
        assert!(!profile.branches.is_empty());
        assert_eq!(profile.total_executions(), r.conditionals, "{scenario}");
        assert_eq!(profile.total_mispredicts(), r.mispredicts, "{scenario}");
        assert_eq!(profile.total_penalty_cycles(), r.penalty_cycles, "{scenario}");
        assert!(profile.total_taken() <= r.conditionals, "{scenario}");
    }
}

/// Artifacts built from real simulation reports survive the JSON
/// round-trip exactly, and the reconstructed suite reproduces every
/// counter and derived metric.
#[test]
fn artifact_round_trips_a_real_run() {
    let cfg = profiled_cfg();
    let scenario = UpdateScenario::RereadAtRetire;
    let mut reports = Vec::new();
    for name in ["CLIENT01", "MM01", "WS01"] {
        reports.push(gshare(12, name, scenario, &cfg));
    }
    let suite = pipeline::SuiteReport::new(reports);
    let block = SchedulerBlock { sim_jobs_run: 3, sim_jobs_requested: 3, suite_memo_hits: 0 };
    let art = RunArtifact::from_suite("gshare:12", scenario, "tiny", &suite, Some(block), 5);
    let back = RunArtifact::from_json(&art.to_json()).expect("parse own output");
    assert_eq!(art, back);
    let rebuilt = back.suite_report().expect("reconstruct");
    assert_eq!(rebuilt.reports.len(), suite.reports.len());
    for (orig, got) in suite.reports.iter().zip(&rebuilt.reports) {
        assert_eq!(orig.trace, got.trace);
        assert_eq!(orig.mispredicts, got.mispredicts);
        assert_eq!(orig.penalty_cycles, got.penalty_cycles);
        assert_eq!(orig.stats, got.stats);
        assert_eq!(orig.mppki(), got.mppki());
        // Branch rows come back truncated to the emission-time top-5.
        let got_profile = got.branches.as_ref().expect("profiled");
        assert_eq!(
            *got_profile,
            orig.branches.as_ref().expect("profiled").truncated(5)
        );
    }
}

/// Emitting the same suite under different worker-thread counts must
/// produce byte-identical artifacts: nothing thread-dependent (wall
/// time, iteration order) may leak into the serialized form.
#[test]
#[cfg_attr(debug_assertions, ignore = "multi-suite sweep; run under --release")]
fn artifacts_are_byte_deterministic_across_thread_counts() {
    let spec = PredictorSpec::parse("tage+ium").expect("spec");
    let scenario = UpdateScenario::RereadAtRetire;
    let render = |threads: usize| {
        let opts = ExpOptions { threads: Some(threads), branch_stats: true };
        let ctx = ExpContext::with_options(Scale::Tiny, opts);
        let suite = ctx.run_spec(&spec, scenario);
        let block = SchedulerBlock::from_stats(&ctx.scheduler_stats());
        RunArtifact::from_suite(&spec.sim_key(), scenario, "tiny", &suite, Some(block), 10)
            .to_json()
    };
    let single = render(1);
    let parallel = render(4);
    assert_eq!(single, parallel);
}

/// `collect_paths` + `load` over a real emitted directory: files come
/// back sorted and schema-checked.
#[test]
fn emitted_directory_loads_back() {
    let scenario = UpdateScenario::Immediate;
    let r = gshare(10, "WS02", scenario, &profiled_cfg());
    let suite = pipeline::SuiteReport::new(vec![r]);
    let dir = std::env::temp_dir().join(format!("tage-observability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (spec, top) in [("zz-spec", 3), ("aa-spec", 3)] {
        RunArtifact::from_suite(spec, scenario, "tiny", &suite, None, top)
            .write_to_dir(&dir)
            .expect("write");
    }
    let paths = collect_paths(std::slice::from_ref(&dir)).expect("collect");
    assert_eq!(paths.len(), 2);
    let names: Vec<String> = paths
        .iter()
        .map(|p| p.file_name().expect("name").to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, vec!["aa-spec__I.json", "zz-spec__I.json"]);
    for p in &paths {
        let art = RunArtifact::load(p).expect("load");
        assert_eq!(art.schema, harness::artifact::ARTIFACT_SCHEMA);
        assert_eq!(art.scenario, "I");
        art.suite_report().expect("reconstruct");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
