//! Named predictor presets (§5–§7) over the [`PredictorStack`].
//!
//! Historically this module held a monolithic `TageSystem` struct with
//! one `Option` field per side predictor; the composition logic now lives
//! in [`crate::stack`] as an ordered stage chain and the *what* lives in
//! [`crate::spec`] as declarative [`SystemSpec`] strings. What remains
//! here is the paper's naming: `TageSystem` is an alias for the stack,
//! and each named predictor — ISL-TAGE, TAGE-LSC, L-TAGE, the Figure 9
//! scaled families — is a preset spec resolved through
//! [`SystemSpec::preset`]. The presets are bit-identical to the old
//! hand-wired compositions (pinned by the golden-table tests in the
//! harness crate).

use crate::spec::SystemSpec;
pub use crate::stack::DEFAULT_IUM_CAPACITY;
use crate::stack::PredictorStack;

/// The composite predictor type: a TAGE provider plus an ordered chain
/// of side stages. (Alias kept from the pre-stack API.)
pub type TageSystem = PredictorStack;

fn preset(name: &str) -> PredictorStack {
    // INVARIANT: only called with names out of the PRESETS table below
    // (every row of which parses and builds, asserted by spec tests).
    SystemSpec::preset(name)
        .unwrap_or_else(|| panic!("unknown preset '{name}'")) // INVARIANT: see above
        .build()
        .expect("presets build") // INVARIANT: see above
}

impl PredictorStack {
    /// The §3.4 reference 64 KB TAGE, no side predictors.
    pub fn reference_tage() -> Self {
        preset("tage")
    }

    /// Reference TAGE + IUM (§5.1).
    pub fn tage_ium() -> Self {
        preset("tage-ium")
    }

    /// The L-TAGE predictor (TAGE + loop predictor — the CBP-2 winner the
    /// paper uses as its §2.2 base predictor).
    pub fn l_tage() -> Self {
        preset("l-tage")
    }

    /// The ISL-TAGE predictor (§5): TAGE + IUM + loop predictor + global
    /// statistical corrector.
    pub fn isl_tage() -> Self {
        preset("isl-tage")
    }

    /// The TAGE-LSC predictor (§6.1): the reference TAGE with T7 halved,
    /// plus IUM and the local statistical corrector — 512 Kbit total.
    pub fn tage_lsc() -> Self {
        preset("tage-lsc")
    }

    /// The full §6.1 stack: TAGE + IUM + loop + SC + LSC (the 555 MPPKI
    /// configuration of the paper).
    pub fn full_stack() -> Self {
        preset("full-stack")
    }

    /// A scaled plain TAGE for the Figure 9 sweep (`delta` in powers of
    /// two relative to the 512 Kbit reference).
    pub fn scaled_tage(delta: i32) -> Self {
        // INVARIANT: scaling a valid preset's geometry keeps it valid
        // (asserted across the Figure 9 delta range in spec tests).
        SystemSpec::scaled_tage(delta).build().expect("scaled preset builds")
    }

    /// A scaled TAGE-LSC for the Figure 9 sweep.
    pub fn scaled_tage_lsc(delta: i32) -> Self {
        // INVARIANT: same as scaled_tage — covered by the Fig. 9 tests.
        SystemSpec::scaled_tage_lsc(delta).build().expect("scaled preset builds")
    }
}

impl SystemSpec {
    /// The Figure 9 scaled plain-TAGE spec (`scaled_tage(0)` *is* the
    /// reference spec, so the delta-0 sweep point shares its memo label
    /// and cached suite).
    pub fn scaled_tage(delta: i32) -> Self {
        let mut spec = SystemSpec::preset("tage").expect("preset"); // INVARIANT: literal PRESETS row
        spec.provider.scale = delta;
        spec
    }

    /// The Figure 9 scaled TAGE-LSC spec (TAGE core and LSC scale
    /// together, as in §7.1).
    pub fn scaled_tage_lsc(delta: i32) -> Self {
        let mut spec = SystemSpec::preset("tage-lsc").expect("preset"); // INVARIANT: literal PRESETS row
        spec.provider.scale = delta;
        for stage in &mut spec.stages {
            if let crate::spec::StageSpec::Lsc { scale, .. } = stage {
                *scale = delta;
            }
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TageConfig;
    use crate::corrector::{Gsc, Lsc};
    use crate::ium::Ium;
    use crate::loop_pred::LoopPredictor;
    use crate::stack::SideStage;
    use crate::tage::Tage;
    use simkit::predictor::{BranchInfo, Predictor, UpdateScenario};

    /// Functional drive: predict → fetch_commit → execute → retire.
    fn drive<P: Predictor>(p: &mut P, pc: u64, outcome: bool) -> bool {
        let b = BranchInfo::conditional(pc);
        let (pred, mut f) = p.predict(&b);
        p.fetch_commit(&b, outcome, &mut f);
        p.execute(&b, outcome, &mut f);
        p.retire(&b, outcome, pred, f, UpdateScenario::Immediate);
        pred
    }

    /// Drive with a delayed pipeline: execute after `exec_lag` further
    /// branches, retire after `retire_lag`.
    fn drive_delayed<P: Predictor>(
        p: &mut P,
        stream: &[(u64, bool)],
        exec_lag: usize,
        retire_lag: usize,
        scenario: UpdateScenario,
    ) -> u64 {
        let mut inflight: std::collections::VecDeque<(BranchInfo, bool, bool, P::Flight, usize)> =
            std::collections::VecDeque::new();
        let mut mispredicts = 0;
        for (i, &(pc, outcome)) in stream.iter().enumerate() {
            let b = BranchInfo::conditional(pc);
            let (pred, mut f) = p.predict(&b);
            if pred != outcome {
                mispredicts += 1;
            }
            p.fetch_commit(&b, outcome, &mut f);
            inflight.push_back((b, outcome, pred, f, i));
            // Execute stage.
            let exec_ready: Vec<usize> = inflight
                .iter()
                .enumerate()
                .filter(|(_, (_, _, _, _, at))| i >= at + exec_lag)
                .map(|(k, _)| k)
                .collect();
            for k in exec_ready {
                let (b, outcome, _, f, _) = &mut inflight[k];
                let (b, outcome) = (*b, *outcome);
                p.execute(&b, outcome, f);
            }
            while let Some((_, _, _, _, at)) = inflight.front() {
                if i >= at + retire_lag {
                    let (b, outcome, pred, f, _) = inflight.pop_front().unwrap();
                    p.retire(&b, outcome, pred, f, scenario);
                } else {
                    break;
                }
            }
        }
        for (b, outcome, pred, f, _) in inflight {
            p.retire(&b, outcome, pred, f, scenario);
        }
        mispredicts
    }

    /// A stack over a small six-table TAGE with `stages` in chain order.
    fn small(stages: Vec<SideStage>) -> TageSystem {
        let cfg = TageConfig {
            num_tagged: 6,
            l1: 4,
            lmax: 128,
            bimodal_bits: 10,
            hysteresis_shift: 2,
            table_size_bits: vec![9; 6],
            tag_widths: vec![8, 9, 10, 11, 12, 12],
            ctr_bits: 3,
            max_alloc: 4,
            path_bits: 16,
        };
        PredictorStack::from_parts(Tage::new(cfg), stages)
    }

    #[test]
    fn presets_have_expected_budgets() {
        // ISL-TAGE: reference TAGE + small side predictors.
        let isl = TageSystem::isl_tage();
        let tage_bits = 65_408 * 8;
        assert!(isl.storage_bits() > tage_bits);
        assert!(isl.storage_bits() < tage_bits + 40 * 1024);
        // TAGE-LSC fits the 512 Kbit budget (§6.1).
        let lsc = TageSystem::tage_lsc();
        assert!(
            lsc.storage_bits() <= 512 * 1024,
            "TAGE-LSC budget exceeded: {}",
            lsc.storage_bits()
        );
        assert!(lsc.storage_bits() > 500 * 1024);
    }

    #[test]
    fn preset_names() {
        assert!(TageSystem::isl_tage().name().starts_with("ISL-TAGE"));
        assert!(TageSystem::tage_lsc().name().starts_with("TAGE-LSC"));
        assert!(TageSystem::reference_tage().name().starts_with("TAGE"));
        assert!(TageSystem::l_tage().name().starts_with("L-TAGE"));
    }

    #[test]
    fn l_tage_is_tage_plus_loop() {
        let l = TageSystem::l_tage();
        let t = TageSystem::reference_tage();
        // Loop predictor adds 64 × 47 bits on top of the reference TAGE.
        assert_eq!(l.storage_bits() - t.storage_bits(), 64 * 47);
    }

    #[test]
    fn ium_overrides_from_executed_inflight_branch() {
        // Deterministic §5.1 scenario: a branch predicted by the bimodal
        // base executes (outcome ≠ prediction) but has not retired. A new
        // occurrence served by the same entry must be corrected by the IUM.
        // PC chosen so no table computes a zero tag (which would falsely
        // hit an empty tagged entry and move the provider off the bimodal).
        let b = BranchInfo::conditional(0x434);
        let mut ium_stack = small(vec![SideStage::Ium(Ium::new(64))]);
        let (pred1, mut f1) = ium_stack.predict(&b);
        ium_stack.fetch_commit(&b, !pred1, &mut f1);
        ium_stack.execute(&b, !pred1, &mut f1);
        // Same PC again, before retirement: provider is the same bimodal
        // entry; prediction must flip to the executed outcome.
        let (pred2, f2) = ium_stack.predict(&b);
        assert_eq!(pred2, !pred1, "IUM must override with the executed outcome");
        assert_eq!(f2.ium_override(), Some(!pred1));
        assert_eq!(ium_stack.ium_overrides().unwrap(), 1);

        // Control: without the IUM the stale prediction persists.
        let mut plain = small(Vec::new());
        let (p1, mut g1) = plain.predict(&b);
        plain.fetch_commit(&b, !p1, &mut g1);
        plain.execute(&b, !p1, &mut g1);
        let (p2, _) = plain.predict(&b);
        assert_eq!(p2, p1, "without IUM the stale table value is used");
    }

    #[test]
    fn ium_helps_on_phase_changes_in_tight_loops() {
        // A branch whose direction flips every 40 occurrences, with deep
        // in-flight windows under scenario [B]: the IUM recovers part of
        // the transition mispredictions.
        let stream: Vec<(u64, bool)> =
            (0..20_000).map(|i| (0x400u64, (i / 40) % 2 == 0)).collect();
        let mut plain = small(Vec::new());
        let base = drive_delayed(&mut plain, &stream, 2, 24, UpdateScenario::FetchOnly);
        let mut ium_stack = small(vec![SideStage::Ium(Ium::new(64))]);
        let ium = drive_delayed(&mut ium_stack, &stream, 2, 24, UpdateScenario::FetchOnly);
        assert!(
            ium <= base,
            "IUM should not hurt delayed-update mispredictions: {ium} vs {base}"
        );
        assert!(ium_stack.ium_overrides().unwrap() > 0, "IUM never engaged");
    }

    #[test]
    fn loop_predictor_fixes_noisy_constant_loops() {
        // Constant-trip loop with a noisy body: TAGE cannot count through
        // the noise, the loop predictor can.
        let mut rng = simkit::rng::Xoshiro256::seed_from(3);
        let mut stream = Vec::new();
        for _ in 0..400 {
            for i in 1..=17 {
                stream.push((0x900u64 + (rng.gen_range(4) << 4), rng.gen_bool(0.5)));
                stream.push((0x800u64, i != 17));
            }
        }
        let count_loop_misses = |p: &mut TageSystem| {
            let mut wrong = 0;
            for (k, &(pc, out)) in stream.iter().enumerate() {
                let got = drive(p, pc, out);
                if pc == 0x800 && got != out && k > stream.len() / 2 {
                    wrong += 1;
                }
            }
            wrong
        };
        let mut plain = small(Vec::new());
        let base = count_loop_misses(&mut plain);
        let mut loop_stack = small(vec![SideStage::Loop(LoopPredictor::cbp_64())]);
        let looped = count_loop_misses(&mut loop_stack);
        assert!(
            looped * 2 < base.max(1),
            "loop predictor should fix constant loops: {looped} vs {base}"
        );
    }

    #[test]
    fn gsc_improves_statistically_biased_branches() {
        let mut rng = simkit::rng::Xoshiro256::seed_from(4);
        let stream: Vec<(u64, bool)> = (0..40_000)
            .map(|i| {
                let pc = 0x1000 + ((i % 7) << 4) as u64;
                (pc, rng.gen_bool(0.75))
            })
            .collect();
        let run = |p: &mut TageSystem| {
            let mut wrong = 0;
            for &(pc, out) in &stream {
                if drive(p, pc, out) != out {
                    wrong += 1;
                }
            }
            wrong
        };
        let mut plain = small(Vec::new());
        let base = run(&mut plain);
        let mut sc_stack = small(vec![SideStage::Gsc(Gsc::cbp_24kbit())]);
        let sc = run(&mut sc_stack);
        assert!(
            sc as f64 <= base as f64 * 1.02,
            "SC should not hurt biased branches: {sc} vs {base}"
        );
        assert!(sc_stack.revert_counts().0.unwrap() > 0, "SC never reverted");
    }

    #[test]
    fn lsc_captures_local_patterns_in_noise() {
        // Period-23 pattern interleaved with random branches: hostile to
        // global history, easy for local history.
        let mut rng = simkit::rng::Xoshiro256::seed_from(5);
        let pattern: Vec<bool> = (0..23).map(|_| rng.gen_bool(0.5)).collect();
        let mut stream = Vec::new();
        for i in 0..15_000 {
            stream.push((0x2004u64, rng.gen_bool(0.5)));
            stream.push((0x2008u64, rng.gen_bool(0.5)));
            stream.push((0x200Cu64, pattern[i % 23]));
        }
        let run = |p: &mut TageSystem| {
            let mut wrong = 0;
            for (k, &(pc, out)) in stream.iter().enumerate() {
                let got = drive(p, pc, out);
                if pc == 0x200C && got != out && k > stream.len() / 2 {
                    wrong += 1;
                }
            }
            wrong
        };
        let mut plain = small(Vec::new());
        let base = run(&mut plain);
        let mut lsc_stack = small(vec![SideStage::Lsc(Lsc::cbp_30kbit())]);
        let lsc = run(&mut lsc_stack);
        assert!(
            (lsc as f64) < base as f64 * 0.6,
            "LSC should capture the local pattern: {lsc} vs {base}"
        );
    }

    #[test]
    fn full_stack_storage_is_sum_of_parts() {
        let full = TageSystem::full_stack();
        let plain = TageSystem::reference_tage();
        assert!(full.storage_bits() > plain.storage_bits());
        let delta = full.storage_bits() - plain.storage_bits();
        // IUM + loop + GSC + LSC ≈ 2 + 3 + 24 + 31 Kbit.
        assert!(delta < 80 * 1024, "side predictor budget too large: {delta}");
        // The per-component budget breakdown sums to the whole; TAGE
        // contributes its base, tagged and chooser rows.
        let budget = full.budget();
        assert_eq!(budget.iter().map(|(_, b)| b).sum::<u64>(), full.storage_bits());
        assert_eq!(budget[0].0, "tage.base");
        assert_eq!(budget[1].0, "tage.tagged");
        assert_eq!(budget[2].0, "tage.chooser");
        assert_eq!(budget.len(), 7);
    }

    #[test]
    fn scaled_presets_track_delta() {
        let small = TageSystem::scaled_tage(-2);
        let big = TageSystem::scaled_tage(2);
        assert!(big.storage_bits() > small.storage_bits() * 8);
        let l_small = TageSystem::scaled_tage_lsc(-2);
        let l_big = TageSystem::scaled_tage_lsc(2);
        assert!(l_big.storage_bits() > l_small.storage_bits() * 8);
    }

    #[test]
    fn stats_include_side_predictor_writes() {
        let mut p = TageSystem::tage_lsc();
        let mut rng = simkit::rng::Xoshiro256::seed_from(6);
        for _ in 0..2000 {
            drive(&mut p, 0x3000, rng.gen_bool(0.7));
        }
        let s = p.stats();
        assert!(s.predict_reads == 2000);
        assert!(s.raw_writes() > 0);
    }
}
