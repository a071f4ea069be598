//! The prediction stack: TAGE plus an *ordered chain* of side-predictor
//! stages (§5–§6), assembled at runtime.
//!
//! The paper's predictors are compositions: ISL-TAGE is TAGE with the
//! IUM, the loop predictor and the global Statistical Corrector bolted on
//! one at a time (§5); TAGE-LSC swaps the last two for the local
//! corrector (§6). [`PredictorStack`] models exactly that: one [`Tage`]
//! provider followed by a chain of [`SideStage`]s evaluated **in order**
//! at prediction time:
//!
//! ```text
//! Tage ──pred──▶ [IUM] ──▶ [SC] ──▶ [LSC] ──▶ [loop] ──▶ final
//!                filter     revert    revert     override
//! ```
//!
//! Each stage receives the chained prediction of everything before it and
//! may pass it through, revert it (the correctors), or override it (the
//! loop predictor, on saturated confidence). The canonical paper order is
//! IUM → SC → LSC → loop — the loop override sits on top of the
//! correctors, as in Figures 6–7 — but the chain executes whatever order
//! a [`SystemSpec`](crate::spec::SystemSpec) declares, so compositions
//! the paper never measured (a corrector judging the loop output, say)
//! are one spec string away. [`SystemSpec::build`](crate::spec::SystemSpec::build)
//! is the one way to compose a stack.
//!
//! Stage semantics that survive reordering:
//!
//! * the IUM filters the *provider* prediction (it replays in-flight
//!   outcomes onto the provider entry's stale counter), so the chain's
//!   "main prediction" — the loop predictor's allocation baseline — is
//!   the value after the IUM stage (after the provider when no IUM is
//!   present);
//! * each corrector judges the prediction entering *its* stage;
//! * the loop predictor's usefulness credit compares against the
//!   prediction entering *its* stage.
//!
//! For the canonical order this reproduces the monolithic pre-stack
//! `TageSystem` bit for bit (pinned by the golden-table tests in the
//! harness crate).
//!
//! A bank-interleaved stack (`ilv`, §4.3/§7.1) owns the one
//! [`BankSelector`]: it picks the bank once per conditional prediction
//! and advances it on every unconditional branch, and the TAGE tables
//! and the LSC tables all index with that bank.

use crate::banking::BankSelector;
use crate::corrector::{CorrectorFlight, Gsc, Lsc};
use crate::ium::Ium;
use crate::loop_pred::LoopPredictor;
use crate::tage::{Tage, TageFlight};
use simkit::predictor::{BranchInfo, Predictor, UpdateScenario};
use simkit::stats::AccessStats;

/// Default in-flight capacity for the IUM (matches the pipeline window).
pub const DEFAULT_IUM_CAPACITY: usize = 64;

/// Maximum side stages in a stack (one of each [`StageKind`]).
pub const MAX_STAGES: usize = 4;

/// The side-stage kinds, in canonical chain order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageKind {
    /// Immediate Update Mimicker (§5.1) — filters the provider prediction.
    Ium,
    /// Global Statistical Corrector (§5.3) — reverts unlikely predictions.
    Gsc,
    /// Local Statistical Corrector (§6) — same, with per-branch history.
    Lsc,
    /// Loop predictor (§5.2) — overrides on saturated confidence.
    Loop,
}

impl StageKind {
    /// The spec-grammar token (also the budget-table row name).
    pub fn token(self) -> &'static str {
        match self {
            StageKind::Ium => "ium",
            StageKind::Gsc => "sc",
            StageKind::Lsc => "lsc",
            StageKind::Loop => "loop",
        }
    }
}

/// One instantiated side-predictor stage.
#[derive(Clone, Debug)]
pub enum SideStage {
    /// See [`StageKind::Ium`].
    Ium(Ium),
    /// See [`StageKind::Gsc`].
    Gsc(Gsc),
    /// See [`StageKind::Lsc`].
    Lsc(Lsc),
    /// See [`StageKind::Loop`].
    Loop(LoopPredictor),
}

impl SideStage {
    /// This stage's kind.
    pub fn kind(&self) -> StageKind {
        match self {
            SideStage::Ium(_) => StageKind::Ium,
            SideStage::Gsc(_) => StageKind::Gsc,
            SideStage::Lsc(_) => StageKind::Lsc,
            SideStage::Loop(_) => StageKind::Loop,
        }
    }

    /// Storage of this stage in bits.
    pub fn storage_bits(&self) -> u64 {
        match self {
            SideStage::Ium(i) => i.storage_bits(),
            SideStage::Gsc(g) => g.storage_bits(),
            SideStage::Lsc(l) => l.storage_bits(),
            SideStage::Loop(lp) => lp.storage_bits(),
        }
    }
}

/// In-flight snapshot for [`PredictorStack`]: the provider read plus what
/// each side stage read. A stack holds at most one stage of each
/// [`StageKind`], so each kind has its own field; fields of kinds the
/// stack lacks stay at their defaults.
///
/// The pipeline window moves this record on every fetch and retire, so
/// it is kept small enough (with the window's own bookkeeping) for those
/// moves to compile to inline copies rather than `memcpy` calls.
#[derive(Clone, Copy, Debug)]
pub struct StackFlight {
    /// The TAGE provider snapshot.
    pub tage: TageFlight,
    /// Global corrector read.
    gsc: CorrectorFlight,
    /// Local corrector read.
    lsc: CorrectorFlight,
    /// IUM sequence handle from [`Ium::push`] (filled at fetch-commit).
    ium_seq: u64,
    /// The IUM's mimicked direction, when it overrode the chain.
    ium_override: Option<bool>,
    /// Whether the loop prediction was used (confident hit).
    loop_used: bool,
    /// The chained prediction entering the loop stage.
    loop_pre_pred: bool,
    /// The "main" prediction: after the provider and the IUM stage — the
    /// loop predictor's allocation baseline.
    pub main_pred: bool,
    /// The final prediction of the whole stack.
    pub final_pred: bool,
}

impl StackFlight {
    /// The IUM's corrected prediction, when it overrode the chain.
    pub fn ium_override(&self) -> Option<bool> {
        self.ium_override
    }

    /// Whether the loop predictor's prediction was used.
    pub fn loop_used(&self) -> bool {
        self.loop_used
    }
}

/// A TAGE provider composed with an ordered chain of side stages.
///
/// Assemble one from a [`SystemSpec`](crate::spec::SystemSpec) or from
/// the [named presets](Self::isl_tage), which are specs too.
#[derive(Clone, Debug)]
pub struct PredictorStack {
    tage: Tage,
    stages: Vec<SideStage>,
    /// The §4.3 bank selector of a 4-way bank-interleaved stack (`ilv`).
    banks: Option<BankSelector>,
    /// §7.2 knob: when set, the LSC tables are always updated from a
    /// retire-time re-read even if the TAGE components run scenario
    /// \[B\]/\[C\] ("optimization applied only to the TAGE components").
    lsc_always_reread: bool,
    side_stats: AccessStats,
    label: String,
}

impl PredictorStack {
    /// Assembles a stack from an already-validated chain (at most one
    /// stage per kind: the flight has one slot per kind). The stages run
    /// in the given order; callers wanting the paper's semantics list
    /// them in canonical order (IUM, SC, LSC, loop).
    pub(crate) fn from_parts(tage: Tage, stages: Vec<SideStage>) -> Self {
        debug_assert!(stages.len() <= MAX_STAGES);
        debug_assert!(
            stages.iter().enumerate().all(|(i, s)| stages[..i].iter().all(|t| t.kind() != s.kind())),
            "one stage per kind"
        );
        // Non-default base and chooser policies decorate the label with
        // their spec production (empty for the paper's TAGE).
        let mut label = format!("TAGE{}", tage.decoration());
        for (kind, suffix) in [
            (StageKind::Ium, "+IUM"),
            (StageKind::Loop, "+LOOP"),
            (StageKind::Gsc, "+SC"),
            (StageKind::Lsc, "+LSC"),
        ] {
            if stages.iter().any(|s| s.kind() == kind) {
                label.push_str(suffix);
            }
        }
        Self {
            tage,
            stages,
            banks: None,
            lsc_always_reread: false,
            side_stats: AccessStats::default(),
            label,
        }
    }

    /// Switches every component (TAGE tables and any LSC tables) to
    /// 4-way bank-interleaved single-ported arrays (§4.3, §7.1): one bank
    /// per conditional prediction, shared by every table.
    pub(crate) fn interleaved(mut self) -> Self {
        self.banks = Some(BankSelector::new());
        self
    }

    /// §7.2: keep re-reading the *local* corrector at retire while the
    /// TAGE components skip the retire read on correct predictions.
    pub(crate) fn lsc_always_reread(mut self) -> Self {
        self.lsc_always_reread = true;
        self
    }

    /// Overrides the display label (the spec's `as=` flag).
    pub(crate) fn labeled(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    fn stage(&self, kind: StageKind) -> Option<&SideStage> {
        self.stages.iter().find(|s| s.kind() == kind)
    }

    /// The inner TAGE provider (diagnostics).
    pub fn tage(&self) -> &Tage {
        &self.tage
    }

    /// The side-stage chain, in evaluation order.
    pub fn stages(&self) -> &[SideStage] {
        &self.stages
    }

    /// Per-component storage budget, in chain order: the three TAGE rows
    /// (`tage.base`, `tage.tagged`, `tage.chooser` — see [`Tage::budget`])
    /// followed by one row per side stage. Sums to
    /// [`Predictor::storage_bits`].
    pub fn budget(&self) -> Vec<(&'static str, u64)> {
        let mut rows = self.tage.budget().to_vec();
        rows.extend(self.stages.iter().map(|s| (s.kind().token(), s.storage_bits())));
        rows
    }

    /// IUM override count so far, if an IUM is attached.
    pub fn ium_overrides(&self) -> Option<u64> {
        self.stage(StageKind::Ium).map(|s| match s {
            SideStage::Ium(i) => i.override_count(),
            // INVARIANT: stage(kind) returns the stage of that kind.
            _ => unreachable!(),
        })
    }

    /// Revert counts of the attached correctors (global, local).
    pub fn revert_counts(&self) -> (Option<u64>, Option<u64>) {
        let get = |kind| {
            self.stage(kind).map(|s| match s {
                SideStage::Gsc(g) => g.revert_count(),
                SideStage::Lsc(l) => l.revert_count(),
                // INVARIANT: only queried with corrector kinds.
                _ => unreachable!(),
            })
        };
        (get(StageKind::Gsc), get(StageKind::Lsc))
    }
}

impl Predictor for PredictorStack {
    type Flight = StackFlight;

    fn name(&self) -> String {
        format!("{}-{}Kbit", self.label, (self.storage_bits() + 512) / 1024)
    }

    fn storage_bits(&self) -> u64 {
        self.tage.storage_bits() + self.stages.iter().map(SideStage::storage_bits).sum::<u64>()
    }

    fn predict(&mut self, b: &BranchInfo) -> (bool, StackFlight) {
        let bank = self.banks.as_mut().map(|sel| sel.bank(b.pc));
        let (tage_pred, tf) = self.tage.predict_in_bank(b, bank);
        let ctr_bits = self.tage.config().ctr_bits;
        let centered = tf.provider_centered();
        let mut f = StackFlight {
            tage: tf,
            gsc: CorrectorFlight::default(),
            lsc: CorrectorFlight::default(),
            ium_seq: 0,
            ium_override: None,
            loop_used: false,
            loop_pre_pred: false,
            main_pred: tage_pred,
            final_pred: tage_pred,
        };
        let mut pred = tage_pred;

        for stage in &mut self.stages {
            match stage {
                // IUM: mimic the immediate update. Replay the outcomes of
                // every executed-but-not-retired occurrence of the provider
                // entry onto the stale counter value; if the mimicked
                // counter predicts differently, use the mimicked direction
                // (§5.1).
                SideStage::Ium(ium) => {
                    let (comp, idx) = tf.provider_entry();
                    let outcomes = ium.executed_outcomes(comp, idx);
                    if !outcomes.is_empty() {
                        let mimicked = match tf.provider {
                            Some(_) => {
                                let mut c = simkit::SignedCounter::with_value(
                                    ctr_bits,
                                    i16::from(tf.provider_ctr),
                                );
                                for o in outcomes.iter() {
                                    c.update(o);
                                }
                                c.is_taken()
                            }
                            None => {
                                // Bimodal provider: replay onto the 2-bit state.
                                let mut c = (tf.base.pred as i16) * 2 + tf.base.hyst as i16;
                                for o in outcomes.iter() {
                                    c = if o { (c + 1).min(3) } else { (c - 1).max(0) };
                                }
                                c >= 2
                            }
                        };
                        if mimicked != pred {
                            ium.note_override();
                            f.ium_override = Some(mimicked);
                            pred = mimicked;
                        }
                    }
                    f.main_pred = pred;
                }
                SideStage::Gsc(g) => {
                    f.gsc = g.predict(b.pc, pred, centered);
                    if f.gsc.revert {
                        pred = f.gsc.sc_pred;
                    }
                }
                SideStage::Lsc(l) => {
                    f.lsc = l.predict(b.pc, pred, centered, bank);
                    if f.lsc.revert {
                        pred = f.lsc.sc_pred;
                    }
                }
                SideStage::Loop(lp) => {
                    f.loop_pre_pred = pred;
                    if let Some(lh) = lp.lookup(b.pc) {
                        if lh.confident {
                            pred = lh.pred;
                            f.loop_used = true;
                        }
                    }
                }
            }
        }

        f.final_pred = pred;
        (pred, f)
    }

    fn fetch_commit(&mut self, b: &BranchInfo, outcome: bool, flight: &mut StackFlight) {
        self.tage.fetch_commit(b, outcome, &mut flight.tage);
        for stage in &mut self.stages {
            match stage {
                SideStage::Ium(ium) => {
                    let (comp, idx) = flight.tage.provider_entry();
                    flight.ium_seq = ium.push(comp, idx);
                }
                SideStage::Gsc(g) => g.on_branch(outcome),
                SideStage::Lsc(l) => l.spec_update(b.pc, outcome),
                SideStage::Loop(lp) => lp.spec_update(b.pc, outcome),
            }
        }
    }

    fn execute(&mut self, _b: &BranchInfo, outcome: bool, flight: &mut StackFlight) {
        for stage in &mut self.stages {
            if let SideStage::Ium(ium) = stage {
                ium.mark_executed(flight.ium_seq, outcome);
            }
        }
    }

    fn retire(
        &mut self,
        b: &BranchInfo,
        outcome: bool,
        predicted: bool,
        flight: StackFlight,
        scenario: UpdateScenario,
    ) {
        let mispredicted = predicted != outcome;
        let reread = scenario.reread_at_retire(mispredicted);

        for stage in &mut self.stages {
            match stage {
                SideStage::Ium(ium) => ium.retire(flight.ium_seq),
                SideStage::Gsc(g) => g.update(&flight.gsc, outcome, reread, &mut self.side_stats),
                SideStage::Lsc(l) => l.update(
                    &flight.lsc,
                    outcome,
                    reread || self.lsc_always_reread,
                    &mut self.side_stats,
                ),
                SideStage::Loop(lp) => {
                    // Allocate for branches the main (TAGE+IUM) prediction
                    // missed; age credit when the loop prediction fixed a
                    // miss (§5.2).
                    let allocate = flight.main_pred != outcome;
                    let useful = flight.loop_used
                        && flight.final_pred == outcome
                        && flight.loop_pre_pred != outcome;
                    lp.retire_update(b.pc, outcome, allocate, useful);
                }
            }
        }
        self.tage.retire(b, outcome, predicted, flight.tage, scenario);
    }

    fn note_uncond(&mut self, b: &BranchInfo) {
        if let Some(sel) = &mut self.banks {
            sel.note_uncond();
        }
        self.tage.note_uncond(b);
    }

    fn stats(&self) -> AccessStats {
        let mut s = self.tage.stats();
        s.merge(&self.side_stats);
        s
    }

    fn reset_stats(&mut self) {
        self.tage.reset_stats();
        self.side_stats = AccessStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::predictor::BranchKind;
    use std::collections::VecDeque;

    /// Drives `stack` over a seeded stream of 64 static branches, one in
    /// four unconditional, with 8 branches in flight under scenario
    /// \[A\]. Returns each branch's `(pc, prediction, flight)`, `None`
    /// for an unconditional one.
    fn drive(stack: &mut PredictorStack, seed: u64) -> Vec<Option<(u64, bool, StackFlight)>> {
        let mut rng = simkit::rng::Xoshiro256::seed_from(seed);
        let mut window = VecDeque::new();
        let mut out = Vec::new();
        for _ in 0..4000 {
            let pc = 0x40_0000 + 4 * rng.gen_range(64);
            if rng.gen_range(4) == 0 {
                stack.note_uncond(&BranchInfo { pc, kind: BranchKind::Call, target: pc + 64 });
                out.push(None);
                continue;
            }
            let b = BranchInfo::conditional(pc);
            let outcome = rng.gen_bool(if pc & 8 == 0 { 0.9 } else { 0.3 });
            let (pred, mut f) = stack.predict(&b);
            out.push(Some((pc, pred, f)));
            stack.fetch_commit(&b, outcome, &mut f);
            stack.execute(&b, outcome, &mut f);
            window.push_back((b, outcome, pred, f));
            if window.len() > 8 {
                let (b, outcome, pred, f) = window.pop_front().unwrap();
                stack.retire(&b, outcome, pred, f, UpdateScenario::RereadAtRetire);
            }
        }
        out
    }

    #[test]
    fn one_bank_indexes_every_table_of_an_interleaved_stack() {
        // §4.3 / §7.1: one bank per conditional prediction, advanced by
        // unconditional branches, in the top two bits of the base index,
        // every tagged index and every (10-bit) LSC index.
        let spec: crate::spec::SystemSpec = "tage:lsc+ium+lsc:2lht/ilv".parse().unwrap();
        let mut stack = spec.build().unwrap();
        let cfg = stack.tage().config().clone();
        let mut sel = BankSelector::new();
        for step in drive(&mut stack, 21) {
            let Some((pc, _, f)) = step else {
                sel.note_uncond();
                continue;
            };
            let bank = u32::from(sel.bank(pc));
            assert_eq!(f.tage.base.index >> (cfg.bimodal_bits - 2), bank, "base");
            for t in 0..cfg.num_tagged {
                assert_eq!(f.tage.indices[t] >> (cfg.table_size_bits[t] - 2), bank, "T{}", t + 1);
            }
            for (t, &idx) in f.lsc.indices[..5].iter().enumerate() {
                assert_eq!(u32::from(idx) >> 8, bank, "LSC table {t}");
            }
        }
    }

    #[test]
    fn doubled_lht_alone_does_not_interleave_the_lsc() {
        // `lsc:2lht` without `/ilv`: the 64-entry local history table and
        // indices that are not remapped.
        let spec: crate::spec::SystemSpec = "tage+ium+lsc:2lht".parse().unwrap();
        let built = drive(&mut spec.build().unwrap(), 22);
        let mut reference = PredictorStack::from_parts(
            Tage::reference_64kb(),
            vec![
                SideStage::Ium(Ium::new(DEFAULT_IUM_CAPACITY)),
                SideStage::Lsc(Lsc::new(10, &[0, 4, 10, 17, 31], 64)),
            ],
        );
        for (i, (got, want)) in built.iter().zip(drive(&mut reference, 22)).enumerate() {
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "branch {i}");
        }
    }

    #[test]
    fn flight_fits_an_inline_window_copy() {
        // The pipeline window moves one of these per branch at fetch and
        // again at retire, next to 40 B of its own bookkeeping. Up to
        // 256 B those moves compile to inline vector copies; past it, to a
        // libc `memcpy` call per move.
        let size = std::mem::size_of::<StackFlight>();
        assert!(size + 40 <= 256, "StackFlight grew to {size} B");
    }

    #[test]
    fn ium_smaller_than_the_window_keeps_its_newest_records() {
        // An 8-entry IUM behind a 20-deep window, every branch executed at
        // fetch. The ring drops its oldest record when a push finds it
        // full; that branch's later retire must not drop a younger record.
        let spec: crate::spec::SystemSpec = "tage+ium:8".parse().unwrap();
        let mut stack = spec.build().unwrap();
        let mut window = VecDeque::new();
        for i in 0..100u64 {
            let b = BranchInfo::conditional(0x1000 + 4 * i);
            let (pred, mut f) = stack.predict(&b);
            stack.fetch_commit(&b, true, &mut f);
            stack.execute(&b, true, &mut f);
            window.push_back((b, pred, f));
            if window.len() > 20 {
                let (b, pred, f) = window.pop_front().unwrap();
                stack.retire(&b, true, pred, f, UpdateScenario::RereadAtRetire);
            }
        }
        let ium = stack
            .stages()
            .iter()
            .find_map(|s| match s {
                SideStage::Ium(ium) => Some(ium),
                _ => None,
            })
            .unwrap();
        assert_eq!(ium.len(), 8);
    }
}
