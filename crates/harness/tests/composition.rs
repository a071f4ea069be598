//! Composition-layer integration: the preset budget audit against the
//! paper's Kbit figures, and end-to-end runs of stack compositions no
//! hand-written experiment covers (the `tage_exp system` path).

use harness::experiments::EXPERIMENTS;
use harness::spec::{PredictorSpec, PAPER_BUDGET_BITS};
use harness::{ExpContext, ExpOptions};
use simkit::{Predictor, UpdateScenario};
use tage::SystemSpec;
use workloads::suite::Scale;

/// The `tage_exp budgets` audit, as an assertion: every preset the paper
/// gives a storage figure for must land within 1% of it. §3.4 gives the
/// reference TAGE *exactly* (65,408 bytes); §5's side-predictor budgets
/// (IUM ~2 Kbit, loop ~3 Kbit, SC 24 Kbit) pin ISL-TAGE; §6.1/§7 present
/// TAGE-LSC against the 512 Kbit CBP budget.
#[test]
fn preset_budgets_land_within_1pct_of_paper() {
    for (name, paper_bits) in PAPER_BUDGET_BITS {
        let stack = SystemSpec::preset(name)
            .unwrap_or_else(|| panic!("audited preset '{name}' missing from tage::PRESETS"))
            .build()
            .unwrap();
        let measured = stack.storage_bits();
        let delta = (measured as f64 / *paper_bits as f64 - 1.0).abs();
        assert!(
            delta < 0.01,
            "{name}: measured {measured} bits vs paper {paper_bits} ({:+.2}%)",
            delta * 100.0
        );
    }
    // The reference predictor is not just close — it is the paper's
    // byte count exactly.
    let reference = SystemSpec::preset("tage").unwrap().build().unwrap();
    assert_eq!(reference.storage_bits(), 65_408 * 8);
}

/// Every preset's per-component budget rows sum to its total, every
/// preset leads with the three provider sub-stage rows (base / tagged /
/// chooser), and the audit table covers only presets that exist.
#[test]
fn budget_breakdown_sums_to_total() {
    for (name, _) in tage::PRESETS {
        let stack = SystemSpec::preset(name).unwrap().build().unwrap();
        let budget = stack.budget();
        let sum: u64 = budget.iter().map(|(_, b)| b).sum();
        assert_eq!(sum, stack.storage_bits(), "{name}: budget rows do not sum");
        // The decomposed provider reports its own per-sub-stage split.
        assert_eq!(budget[0].0, "tage.base", "{name}");
        assert_eq!(budget[1].0, "tage.tagged", "{name}");
        assert_eq!(budget[2].0, "tage.chooser", "{name}");
        assert!(budget[0].1 > 0 && budget[1].1 > 0, "{name}: empty provider sub-stage");
        // The tagged bank dominates every paper configuration.
        assert!(budget[1].1 > budget[0].1, "{name}: tagged bank should dominate");
    }
    for (name, _) in PAPER_BUDGET_BITS {
        assert!(SystemSpec::preset(name).is_some(), "audit references unknown preset '{name}'");
    }
}

/// A composition no experiment table covers — the loop predictor without
/// the statistical corrector at a 32 KB budget — runs end to end through
/// the same spec route `tage_exp system` uses.
#[test]
fn novel_composition_runs_end_to_end() {
    let novel = PredictorSpec::parse("tage:x-1+ium+loop").unwrap();
    for exp in EXPERIMENTS {
        for run in exp.runs() {
            assert_ne!(run.spec, novel, "{}: composition is not novel after all", exp.id);
        }
    }
    let ctx = ExpContext::with_options(
        Scale::Tiny,
        ExpOptions { threads: Some(2), ..Default::default() },
    );
    let suite = ctx.run_spec(&novel, UpdateScenario::RereadAtRetire);
    assert_eq!(suite.reports.len(), 40);
    assert!(suite.total_mispredicts() > 0);
    // The half-scale stack really is in the 32 KB class.
    let bits = novel.storage_bits().unwrap();
    assert!((200 * 1024..300 * 1024).contains(&bits), "unexpected budget {bits}");
}

/// A reordered chain — a corrector judging the loop output — is a valid,
/// distinct composition: it builds, runs, and does not share a memo
/// label with the canonical order.
#[test]
fn reordered_chain_is_a_distinct_composition() {
    let canonical = PredictorSpec::parse("tage+ium+sc+loop").unwrap();
    let reordered = PredictorSpec::parse("tage+ium+loop+sc").unwrap();
    assert_ne!(canonical.to_string(), reordered.to_string());
    let ctx = ExpContext::with_options(
        Scale::Tiny,
        ExpOptions { threads: Some(2), ..Default::default() },
    );
    let a = ctx.run_spec(&canonical, UpdateScenario::RereadAtRetire);
    let b = ctx.run_spec(&reordered, UpdateScenario::RereadAtRetire);
    assert_eq!(ctx.scheduler_stats().suite_memo_hits, 0, "distinct specs must not share");
    assert_eq!(a.reports.len(), b.reports.len());
}

/// Specs differing only in their display label simulate identically, so
/// they share one cached suite (the memo key strips the label).
#[test]
fn label_only_variants_share_one_suite() {
    let ctx = ExpContext::with_options(
        Scale::Tiny,
        ExpOptions { threads: Some(2), ..Default::default() },
    );
    let unlabeled = PredictorSpec::parse("tage+ium+sc+loop").unwrap();
    let labeled = PredictorSpec::parse("tage+ium+sc+loop/as=ISL-TAGE").unwrap();
    let a = ctx.run_spec(&unlabeled, UpdateScenario::RereadAtRetire);
    let b = ctx.run_spec(&labeled, UpdateScenario::RereadAtRetire);
    assert_eq!(ctx.scheduler_stats().suite_memo_hits, 1, "label-only variant must hit cache");
    assert_eq!(ctx.scheduler_stats().sim_jobs_run, 40);
    let counts = |s: &pipeline::SuiteReport| -> Vec<u64> {
        s.reports.iter().map(|r| r.mispredicts).collect()
    };
    assert_eq!(counts(&a), counts(&b));
}

/// The boxed engine a spec string builds is bit-identical to the preset
/// constructor's predictor in a concretely typed `WindowEngine`.
#[test]
fn boxed_spec_route_matches_monomorphized_route() {
    let spec = PredictorSpec::parse("tage:lsc+ium+lsc/as=TAGE-LSC").unwrap();
    let trace = workloads::suite::by_name("MM05", Scale::Tiny).unwrap().generate();
    let cfg = pipeline::PipelineConfig::default();
    let scenario = UpdateScenario::RereadOnMispredict;
    let mut boxed = spec.build_engine(scenario, &cfg).unwrap();
    let via_box = pipeline::simulate_engine(&mut *boxed, &mut trace.stream());
    let mut direct = pipeline::WindowEngine::new(tage::TageSystem::tage_lsc(), scenario, &cfg);
    let direct = pipeline::simulate_engine(&mut direct, &mut trace.stream());
    assert_eq!(via_box, direct, "the spec route must not change a single bit");
}

/// A decomposed-provider ablation spec runs end to end through the same
/// spec route `tage_exp system` uses, and its default-parameter twin
/// shares the reference suite through the memo cache.
#[test]
fn provider_ablation_specs_run_end_to_end() {
    let ctx = ExpContext::with_options(
        Scale::Tiny,
        ExpOptions { threads: Some(2), ..Default::default() },
    );
    let ablated = PredictorSpec::parse("tage(base=2bc,chooser=conf)").unwrap();
    let suite = ctx.run_spec(&ablated, UpdateScenario::RereadAtRetire);
    assert_eq!(suite.reports.len(), 40);
    assert!(suite.total_mispredicts() > 0);
    // Explicit defaults canonicalize onto the plain reference spec.
    let explicit = PredictorSpec::parse("tage(base=bimodal,chooser=altweak)").unwrap();
    let plain = PredictorSpec::parse("tage").unwrap();
    assert_eq!(explicit, plain);
    assert_eq!(explicit.sim_key(), "tage");
    let a = ctx.run_spec(&explicit, UpdateScenario::RereadAtRetire);
    let b = ctx.run_spec(&plain, UpdateScenario::RereadAtRetire);
    assert_eq!(ctx.scheduler_stats().suite_memo_hits, 1, "default twin must share the suite");
    assert_eq!(a.reports, b.reports);
}
