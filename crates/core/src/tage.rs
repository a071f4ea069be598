//! The TAGE predictor (§3).
//!
//! A base predictor backed by M partially tagged components indexed with
//! geometrically increasing global history lengths. The *provider* is
//! the hitting component with the longest history; the *alternate
//! prediction* is what would have been predicted on a provider miss.
//! Entries are allocated only on mispredictions, on up to four
//! non-consecutive tables above the provider, guarded by single useful
//! bits with a global reset driven by an 8-bit allocation monitor.
//!
//! [`Tage`] owns its three parts directly — the [`Base`] table, the
//! [`TaggedBank`] and the [`Chooser`] that arbitrates between provider
//! and alternate — plus the shared speculative state (global and path
//! history, access stats). The spec grammar picks the base and chooser
//! policies (`tage(base=...)`, `tage(chooser=...)`); the paper's choices
//! (bimodal base, `USE_ALT_ON_NA`) are the defaults.
//!
//! Bank interleaving (§4.3) is not TAGE state: the stack's one
//! [`BankSelector`](crate::banking::BankSelector) picks a bank per
//! prediction and hands it to `Tage::predict_in_bank`, which indexes the
//! base and every tagged table with it.

use crate::banking::interleaved_index;
use crate::base::{Base, BaseChoice, BaseRead};
use crate::chooser::{Chooser, ChooserChoice, ChooserView};
use crate::config::{TageConfig, MAX_TAGGED};
use crate::tagged::TaggedBank;
use simkit::history::{GlobalHistory, PathHistory};
use simkit::predictor::{BranchInfo, Predictor, UpdateScenario};
use simkit::stats::AccessStats;

/// The TAGE predictor.
#[derive(Clone, Debug)]
pub struct Tage {
    cfg: TageConfig,
    base: Base,
    bank: TaggedBank,
    chooser: Chooser,
    ghist: GlobalHistory,
    path: PathHistory,
    stats: AccessStats,
}

/// Everything TAGE reads at prediction time; carried with the in-flight
/// branch (§4's scenarios \[B\]/\[C\] compute the retire-time update from
/// these values instead of re-reading the tables).
///
/// Only what retire reads is carried: the per-table keys (re-read,
/// training and allocation address the same entries), the useful-bit
/// mask (the allocation guard) and the provider and alternate counters.
/// Keeping the flight small keeps every copy of it an inline move.
#[derive(Clone, Copy, Debug)]
pub struct TageFlight {
    /// Base predictor read.
    pub base: BaseRead,
    /// Per-table index used.
    pub indices: [u32; MAX_TAGGED],
    /// Per-table tag computed.
    pub tags: [u16; MAX_TAGGED],
    /// Useful bits read, one per tagged table (bit `t` = table `t`).
    pub us: u16,
    /// Provider component (tagged table number, 0-based), if any.
    pub provider: Option<u8>,
    /// Alternate provider (tagged table), `None` = the base predictor.
    pub alt: Option<u8>,
    /// The provider's counter value (0 when the base provides).
    pub provider_ctr: i8,
    /// The alternate's counter value (0 when the base is the alternate).
    pub alt_ctr: i8,
    /// Provider component's prediction.
    pub provider_pred: bool,
    /// Alternate prediction.
    pub alt_pred: bool,
    /// Final TAGE prediction (after the chooser).
    pub tage_pred: bool,
    /// Whether the provider counter was weak.
    pub weak: bool,
}

impl TageFlight {
    /// Identity of the entry that provided the prediction, as
    /// (component, index); component 0 is the base predictor. This is
    /// what the IUM records (§5.1).
    pub fn provider_entry(&self) -> (u8, u32) {
        match self.provider {
            Some(t) => (t + 1, self.indices[t as usize]),
            None => (0, self.base.index),
        }
    }

    /// The centered counter value of the providing component, scaled as
    /// the statistical corrector consumes it (§5.3: "eight times the
    /// (centered) output of the hitting bank").
    pub fn provider_centered(&self) -> i32 {
        match self.provider {
            Some(_) => tagged_centered(self.provider_ctr),
            None => base_centered(self.base),
        }
    }
}

/// A tagged counter value on the centered scale (§5.3): `2c + 1`.
#[inline]
fn tagged_centered(ctr: i8) -> i32 {
    2 * i32::from(ctr) + 1
}

/// The base predictor's 2-bit state mapped onto the 3-bit centered scale.
#[inline]
fn base_centered(base: BaseRead) -> i32 {
    let c = (base.pred as i32) * 2 + base.hyst as i32;
    [-7, -1, 1, 7][c as usize]
}

/// The provider (longest hitting table) and the alternate (next longest)
/// of a tag-hit mask, found by bit scan. `None` = no hit.
#[inline]
pub(crate) fn provider_alt(hits: u16) -> (Option<u8>, Option<u8>) {
    if hits == 0 {
        return (None, None);
    }
    let provider = 15 - hits.leading_zeros() as u8;
    let rest = hits ^ (1 << provider);
    let alt = (rest != 0).then(|| 15 - rest.leading_zeros() as u8);
    (Some(provider), alt)
}

/// Values the retire-time update works from: either the flight snapshot
/// (scenario \[B\], correct-prediction \[C\]) or a fresh re-read.
struct UpdateView {
    base: BaseRead,
    us: u16,
    provider: Option<u8>,
    alt: Option<u8>,
    provider_ctr: i8,
    alt_ctr: i8,
    provider_pred: bool,
    alt_pred: bool,
    weak: bool,
}

impl UpdateView {
    /// The view a flight captured at prediction time.
    fn snapshot(f: &TageFlight) -> Self {
        Self {
            base: f.base,
            us: f.us,
            provider: f.provider,
            alt: f.alt,
            provider_ctr: f.provider_ctr,
            alt_ctr: f.alt_ctr,
            provider_pred: f.provider_pred,
            alt_pred: f.alt_pred,
            weak: f.weak,
        }
    }

    /// The chooser's digest of this view: provider/alternate candidates
    /// with their centered-counter strengths. `pc` is the branch address
    /// (per-PC policies index by it).
    fn chooser_view(&self, pc: u64) -> ChooserView {
        let base = base_centered(self.base).abs();
        let strength = |t: Option<u8>, ctr: i8| match t {
            Some(_) => tagged_centered(ctr).abs(),
            None => base,
        };
        ChooserView {
            pc,
            has_provider: self.provider.is_some(),
            provider_pred: self.provider_pred,
            alt_pred: self.alt_pred,
            provider_weak: self.weak,
            provider_strength: strength(self.provider, self.provider_ctr),
            alt_strength: strength(self.alt, self.alt_ctr),
        }
    }
}

impl Tage {
    /// Builds the paper's TAGE predictor from a configuration (bimodal
    /// base, `USE_ALT_ON_NA` chooser).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TageConfig::validate`].
    pub fn new(cfg: TageConfig) -> Self {
        Self::with_choices(cfg, BaseChoice::default(), ChooserChoice::default())
    }

    /// Builds a TAGE predictor with spec-selected base-predictor and
    /// chooser policies (the §3-level provider ablations).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TageConfig::validate`].
    pub fn with_choices(cfg: TageConfig, base: BaseChoice, chooser: ChooserChoice) -> Self {
        cfg.validate();
        Self {
            base: Base::new(base, &cfg),
            bank: TaggedBank::new(&cfg),
            chooser: Chooser::new(chooser),
            ghist: GlobalHistory::new(),
            path: PathHistory::new(cfg.path_bits),
            cfg,
            stats: AccessStats::default(),
        }
    }

    /// The §3.4 reference 64 KB predictor.
    pub fn reference_64kb() -> Self {
        Self::new(TageConfig::reference_64kb())
    }

    /// Configuration in use.
    pub fn config(&self) -> &TageConfig {
        &self.cfg
    }

    /// The provider/alternate chooser (diagnostics: [`Chooser::bias`]).
    pub fn chooser(&self) -> &Chooser {
        &self.chooser
    }

    /// Fraction of useful bits currently set, per table (diagnostics).
    pub fn useful_fractions(&self) -> Vec<f64> {
        self.bank.useful_fractions()
    }

    /// Storage budget per part. Sums to [`Predictor::storage_bits`]; the
    /// chooser row reports table storage only (see `crate::chooser` — the
    /// 4-bit `USE_ALT_ON_NA` counter is control state, excluded like the
    /// allocation tick).
    pub fn budget(&self) -> [(&'static str, u64); 3] {
        [
            ("tage.base", self.base.storage_bits()),
            ("tage.tagged", self.bank.storage_bits()),
            ("tage.chooser", self.chooser.storage_bits()),
        ]
    }

    /// The spec-grammar decoration for non-default base and chooser
    /// policies: the canonical `(base=...,chooser=...)` production, or
    /// `""` for the paper's predictor. [`Predictor::name`] and the stack
    /// label append it.
    pub fn decoration(&self) -> String {
        crate::spec::provider_params(self.base.choice(), self.chooser.choice())
    }

    /// Reads the tagged bank at `indices`/`tags` and derives the
    /// provider/alternate fields: bit scans of the hit mask, then the two
    /// counters they name.
    #[inline]
    fn read_view(
        &self,
        base: BaseRead,
        indices: &[u32; MAX_TAGGED],
        tags: &[u16; MAX_TAGGED],
    ) -> UpdateView {
        let bank = &self.bank;
        let (hits, us) = bank.read(indices, tags);
        let (provider, alt) = provider_alt(hits);
        let ctr = |t: Option<u8>| t.map_or(0, |t| bank.ctr(t as usize, indices[t as usize]));
        let (provider_ctr, alt_ctr) = (ctr(provider), ctr(alt));
        let alt_pred = if alt.is_some() { alt_ctr >= 0 } else { base.pred };
        let (provider_pred, weak) = if provider.is_some() {
            (provider_ctr >= 0, provider_ctr == 0 || provider_ctr == -1)
        } else {
            (base.pred, false)
        };
        UpdateView { base, us, provider, alt, provider_ctr, alt_ctr, provider_pred, alt_pred, weak }
    }

    /// Builds an [`UpdateView`] by re-reading the tables at the flight's
    /// indices (retire-time re-read, scenarios \[I\]/\[A\] and
    /// mispredicted \[C\]).
    fn reread_view(&self, flight: &TageFlight) -> UpdateView {
        let base = self.base.read_index(flight.base.index as usize);
        self.read_view(base, &flight.indices, &flight.tags)
    }

    /// Predicts `b`. With `bank` set, the tables are 4-way
    /// bank-interleaved single-ported arrays (§4.3): the base and every
    /// tagged index carry the bank in their top two bits, so one (PC,
    /// history) pair may reach up to four entries. Retire reuses the
    /// flight's indices, so the bank is not carried.
    pub(crate) fn predict_in_bank(
        &mut self,
        b: &BranchInfo,
        bank: Option<u8>,
    ) -> (bool, TageFlight) {
        self.stats.predict_reads += 1;
        let base = match bank {
            Some(bk) => {
                let idx = interleaved_index(self.base.index(b.pc), bk, self.base.size_bits());
                self.base.read_index(idx)
            }
            None => self.base.read(b.pc),
        };
        let mut indices = [0; MAX_TAGGED];
        let mut tags = [0; MAX_TAGGED];
        self.bank.compute_keys(b.pc, &self.path, bank, &mut indices, &mut tags);
        let view = self.read_view(base, &indices, &tags);
        let tage_pred = self.chooser.choose(&view.chooser_view(b.pc));
        let flight = TageFlight {
            base,
            indices,
            tags,
            us: view.us,
            provider: view.provider,
            alt: view.alt,
            provider_ctr: view.provider_ctr,
            alt_ctr: view.alt_ctr,
            provider_pred: view.provider_pred,
            alt_pred: view.alt_pred,
            tage_pred,
            weak: view.weak,
        };
        (tage_pred, flight)
    }
}

impl Predictor for Tage {
    type Flight = TageFlight;

    fn name(&self) -> String {
        format!(
            "tage-{}c-{}Kbit{}",
            self.cfg.num_tagged + 1,
            (self.storage_bits() + 512) / 1024,
            self.decoration()
        )
    }

    fn storage_bits(&self) -> u64 {
        self.budget().iter().map(|(_, b)| b).sum()
    }

    fn predict(&mut self, b: &BranchInfo) -> (bool, TageFlight) {
        self.predict_in_bank(b, None)
    }

    fn fetch_commit(&mut self, b: &BranchInfo, outcome: bool, _flight: &mut TageFlight) {
        self.ghist.push(outcome);
        self.bank.update_history(&self.ghist);
        self.base.update_history(&self.ghist);
        self.path.push(b.pc);
    }

    fn retire(
        &mut self,
        b: &BranchInfo,
        outcome: bool,
        predicted: bool,
        flight: TageFlight,
        scenario: UpdateScenario,
    ) {
        let mispredicted = predicted != outcome;
        if scenario.counts_retire_read(mispredicted) {
            self.stats.retire_reads += 1;
        }
        let view = if scenario.reread_at_retire(mispredicted) {
            self.reread_view(&flight)
        } else {
            UpdateView::snapshot(&flight)
        };

        match view.provider {
            Some(p) => {
                let p = p as usize;
                let idx = flight.indices[p] as usize;
                // Provider entry update: counter always moves toward the
                // outcome (§3.2); the useful bit is set when the provider
                // was correct and the alternate was not.
                let set_u = view.provider_pred != view.alt_pred && view.provider_pred == outcome;
                self.bank.train_provider(
                    p,
                    idx,
                    view.provider_ctr,
                    outcome,
                    set_u,
                    &mut self.stats,
                );
                // Train the base when it was the effective alternate of a
                // weak provider (keeps the default prediction fresh).
                if view.weak && view.alt.is_none() {
                    self.base.update(view.base, outcome, &mut self.stats);
                }
            }
            None => {
                self.base.update(view.base, outcome, &mut self.stats);
            }
        }
        // The chooser learns from every retire-time view (the policies
        // gate themselves; `USE_ALT_ON_NA` trains only on discriminating
        // weak-provider cases, §3.1).
        self.chooser.update(&view.chooser_view(b.pc), outcome);

        // Allocation on TAGE mispredictions (§3.2.1). The trigger is the
        // *fetch-time* TAGE prediction: that is what steered the pipeline.
        if flight.tage_pred != outcome {
            let first = match view.provider {
                Some(p) => p as usize + 1,
                None => 0,
            };
            self.bank.allocate(
                &flight.indices,
                &flight.tags,
                view.us,
                first,
                outcome,
                &mut self.stats,
            );
        }
    }

    fn note_uncond(&mut self, b: &BranchInfo) {
        self.path.push(b.pc);
    }

    fn stats(&self) -> AccessStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TageConfig;

    fn small_cfg() -> TageConfig {
        TageConfig {
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
        }
    }

    fn small() -> Tage {
        Tage::new(small_cfg())
    }

    fn drive(p: &mut Tage, pc: u64, outcome: bool) -> bool {
        let b = BranchInfo::conditional(pc);
        let (pred, mut f) = p.predict(&b);
        p.fetch_commit(&b, outcome, &mut f);
        p.retire(&b, outcome, pred, f, UpdateScenario::Immediate);
        pred
    }

    /// The walk the bit scan replaced: tables from the longest history
    /// down, first hit the provider, second the alternate.
    fn provider_alt_by_walk(hits: u16, num_tagged: usize) -> (Option<u8>, Option<u8>) {
        let mut provider = None;
        let mut alt = None;
        for t in (0..num_tagged).rev() {
            if hits & (1 << t) != 0 {
                if provider.is_none() {
                    provider = Some(t as u8);
                } else {
                    alt = Some(t as u8);
                    break;
                }
            }
        }
        (provider, alt)
    }

    #[test]
    fn bit_scan_matches_the_table_walk_for_every_hit_mask() {
        for num_tagged in 2..=MAX_TAGGED {
            for hits in 0..(1u32 << num_tagged) {
                let hits = hits as u16;
                assert_eq!(
                    provider_alt(hits),
                    provider_alt_by_walk(hits, num_tagged),
                    "hits {hits:#b} over {num_tagged} tables"
                );
            }
        }
    }

    #[test]
    fn learns_bias() {
        let mut p = small();
        let mut wrong = 0;
        for i in 0..500 {
            if !drive(&mut p, 0x400, true) && i > 20 {
                wrong += 1;
            }
        }
        assert!(wrong < 5, "wrong={wrong}");
    }

    #[test]
    fn learns_alternation_beyond_bimodal() {
        let mut p = small();
        let mut wrong = 0;
        for i in 0..2000 {
            let out = i % 2 == 0;
            if drive(&mut p, 0x400, out) != out && i > 500 {
                wrong += 1;
            }
        }
        assert!(wrong < 20, "TAGE should learn alternation, wrong={wrong}");
    }

    #[test]
    fn learns_medium_period_pattern() {
        // Period-20 pattern, quiet context: needs tagged tables with
        // history ≥ 20 — beyond bimodal, easy for TAGE.
        let mut rng = simkit::rng::Xoshiro256::seed_from(11);
        let pattern: Vec<bool> = (0..20).map(|_| rng.gen_bool(0.5)).collect();
        let mut p = small();
        let mut wrong = 0;
        let mut total = 0;
        for i in 0..8000 {
            let out = pattern[i % 20];
            if drive(&mut p, 0x800, out) != out && i > 4000 {
                wrong += 1;
            }
            if i > 4000 {
                total += 1;
            }
        }
        let rate = wrong as f64 / total as f64;
        assert!(rate < 0.05, "pattern misprediction rate {rate}");
    }

    #[test]
    fn allocation_promotes_to_longer_tables() {
        let mut p = small();
        // Alternation forces mispredictions on the bimodal, triggering
        // allocation into tagged tables.
        for i in 0..200 {
            drive(&mut p, 0x400, i % 2 == 0);
        }
        let b = BranchInfo::conditional(0x400);
        let (_, f) = p.predict(&b);
        assert!(f.provider.is_some(), "tagged provider expected after training");
    }

    #[test]
    fn storage_matches_config() {
        let p = Tage::reference_64kb();
        assert_eq!(p.storage_bits(), 65_408 * 8);
        assert!(p.name().contains("13c"));
    }

    #[test]
    fn default_budget_matches_the_fused_accounting() {
        let cfg = TageConfig::reference_64kb();
        let p = Tage::new(cfg.clone());
        // The per-part split reproduces the paper's §3.4 arithmetic:
        // 40,960 bimodal bits + 482,304 tagged bits = 65,408 bytes.
        assert_eq!(
            p.budget(),
            [("tage.base", 40_960), ("tage.tagged", 482_304), ("tage.chooser", 0)]
        );
        assert_eq!(p.storage_bits(), cfg.storage_bits());
        assert_eq!(p.decoration(), "");
    }

    #[test]
    fn non_default_choices_decorate_and_rebudget() {
        let cfg = TageConfig::reference_64kb();
        let p = Tage::with_choices(cfg.clone(), BaseChoice::Gshare, ChooserChoice::Confidence);
        assert_eq!(p.decoration(), "(base=gshare,chooser=conf)");
        // The gshare base has private hysteresis: 2 bits per entry.
        assert_eq!(p.budget()[0], ("tage.base", 2 << cfg.bimodal_bits));
        let two_bit =
            Tage::with_choices(cfg.clone(), BaseChoice::TwoBit, ChooserChoice::default());
        assert_eq!(two_bit.decoration(), "(base=2bc)");
        let chooser_only =
            Tage::with_choices(cfg.clone(), BaseChoice::default(), ChooserChoice::AlwaysProvider);
        assert_eq!(chooser_only.decoration(), "(chooser=always)");
        assert_eq!(chooser_only.storage_bits(), cfg.storage_bits());
        // The per-PC chooser table is the one policy with real storage:
        // its bits land on the chooser row and in the total.
        let table = Tage::with_choices(cfg.clone(), BaseChoice::default(), ChooserChoice::Table);
        assert_eq!(table.decoration(), "(chooser=table)");
        assert_eq!(table.budget()[2], ("tage.chooser", 2048));
        assert_eq!(table.storage_bits(), cfg.storage_bits() + 2048);
    }

    #[test]
    fn silent_updates_dominate_on_predictable_stream() {
        let mut p = small();
        for i in 0..5000 {
            drive(&mut p, 0x600, i % 4 != 3); // pattern 1110
        }
        let s = p.stats();
        assert!(
            s.silent_fraction() > 0.5,
            "most updates should be silent on a learned stream: {:?}",
            s
        );
    }

    #[test]
    fn scenario_b_counter_advances_once_per_snapshot() {
        let mut p = small();
        // Train a tagged provider first.
        for i in 0..400 {
            drive(&mut p, 0x400, i % 2 == 0);
        }
        let b = BranchInfo::conditional(0x400);
        let (pred, f) = p.predict(&b);
        let prov = f.provider.expect("provider");
        let before = f.provider_ctr;
        // Two retires from the same snapshot (two in-flight occurrences).
        p.retire(&b, true, pred, f, UpdateScenario::FetchOnly);
        p.retire(&b, true, pred, f, UpdateScenario::FetchOnly);
        let (_, f2) = p.predict(&b);
        if f2.provider == Some(prov) && f2.indices[prov as usize] == f.indices[prov as usize] {
            let after = f2.provider_ctr;
            assert!(
                after - before <= 1,
                "counter advanced {} under stale snapshots",
                after - before
            );
        }
    }

    #[test]
    fn u_bits_eventually_reset_under_pressure() {
        let mut p = small();
        let mut rng = simkit::rng::Xoshiro256::seed_from(12);
        // Random outcomes over many PCs: constant allocation pressure.
        for _ in 0..60_000 {
            let pc = 0x1000 + (rng.gen_range(512) << 4);
            drive(&mut p, pc, rng.gen_bool(0.5));
        }
        // After heavy churn the useful fractions must be sane (< 1.0,
        // i.e. resets happened and the predictor did not lock up).
        for f in p.useful_fractions() {
            assert!(f < 0.9, "useful bits saturated: {f}");
        }
    }

    #[test]
    fn provider_entry_identity() {
        let mut p = small();
        for i in 0..400 {
            drive(&mut p, 0x400, i % 2 == 0);
        }
        let b = BranchInfo::conditional(0x400);
        let (_, f) = p.predict(&b);
        let (comp, idx) = f.provider_entry();
        if let Some(t) = f.provider {
            assert_eq!(comp, t + 1);
            assert_eq!(idx, f.indices[t as usize]);
        } else {
            assert_eq!(comp, 0);
        }
    }

    #[test]
    fn provider_centered_is_odd_and_signed() {
        let mut p = small();
        for _ in 0..50 {
            drive(&mut p, 0x700, true);
        }
        let b = BranchInfo::conditional(0x700);
        let (pred, f) = p.predict(&b);
        let c = f.provider_centered();
        assert_eq!(c >= 0, pred);
        assert_eq!(c.rem_euclid(2), 1, "centered value must be odd: {c}");
    }

    #[test]
    fn chooser_policies_still_learn_the_stream() {
        // Every chooser policy must leave the core learning machinery
        // intact: a biased branch trains to near-perfect prediction.
        for chooser in [
            ChooserChoice::AltOnWeak,
            ChooserChoice::AlwaysProvider,
            ChooserChoice::Confidence,
            ChooserChoice::Table,
        ] {
            let mut p = Tage::with_choices(small_cfg(), BaseChoice::default(), chooser);
            let mut wrong = 0;
            for i in 0..2000 {
                let out = i % 2 == 0;
                if drive(&mut p, 0x400, out) != out && i > 500 {
                    wrong += 1;
                }
            }
            assert!(wrong < 40, "{chooser:?}: wrong={wrong}");
        }
    }

    #[test]
    fn base_ablations_still_learn_the_stream() {
        for base in [BaseChoice::Bimodal, BaseChoice::TwoBit, BaseChoice::Gshare] {
            let mut p = Tage::with_choices(small_cfg(), base, ChooserChoice::default());
            let mut wrong = 0;
            for i in 0..500 {
                if !drive(&mut p, 0x400, true) && i > 50 {
                    wrong += 1;
                }
            }
            assert!(wrong < 10, "{base:?}: wrong={wrong}");
        }
    }

    #[test]
    fn decomposed_names_decorate_only_non_defaults() {
        assert_eq!(Tage::reference_64kb().name(), "tage-13c-511Kbit");
        let ablated = Tage::with_choices(
            TageConfig::reference_64kb(),
            BaseChoice::Gshare,
            ChooserChoice::AlwaysProvider,
        );
        // gshare base: 2 bits × 32K entries = 65,536 base bits
        // (+ 482,304 tagged = 547,840 total → 535 Kbit rounded).
        assert_eq!(ablated.name(), "tage-13c-535Kbit(base=gshare,chooser=always)");
    }

    #[test]
    fn always_provider_never_consults_the_alternate() {
        // With the always-provider chooser, a weak provider's prediction
        // must be used verbatim — flight.tage_pred == provider_pred.
        let mut p = Tage::with_choices(
            small_cfg(),
            BaseChoice::default(),
            ChooserChoice::AlwaysProvider,
        );
        let mut rng = simkit::rng::Xoshiro256::seed_from(13);
        for _ in 0..3000 {
            let pc = 0x400 + (rng.gen_range(64) << 2);
            let b = BranchInfo::conditional(pc);
            let (pred, mut f) = p.predict(&b);
            assert_eq!(pred, f.provider_pred);
            let out = rng.gen_bool(0.5);
            p.fetch_commit(&b, out, &mut f);
            p.retire(&b, out, pred, f, UpdateScenario::Immediate);
        }
        assert_eq!(p.chooser().bias(0x400), None, "stateless chooser has no counter");
    }
}
