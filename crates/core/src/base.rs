//! The base-predictor slot (component T0) under the tagged bank.
//!
//! The reference configuration is the paper's bimodal table with
//! EV8-style shared hysteresis: 4 prediction bits share one hysteresis
//! bit (§3.4: "32K prediction bits + 8K hysteresis bits"). The slot is
//! open, though: [`BaseSlot`] hosts any base predictor whose per-entry
//! state is the 2-bit `(pred, hyst)` pair — today the shared-hysteresis
//! bimodal, a private-hysteresis 2-bit-counter table, and a
//! gshare-indexed table — selected from the spec grammar
//! (`tage(base=...)`) for the §3-level base-predictor ablations.

use crate::config::TageConfig;
use simkit::history::{FoldedHistory, GlobalHistory};
use simkit::stats::AccessStats;

/// Bimodal table with shared hysteresis.
#[derive(Clone, Debug)]
pub struct BaseBimodal {
    pred: Vec<bool>,
    hyst: Vec<bool>,
    shift: u32,
}

/// Values read from the base predictor at fetch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BaseRead {
    /// Prediction-array index (`u32`: [`BaseBimodal::new`] bounds the
    /// table below 2^32 entries).
    pub index: u32,
    /// Prediction bit.
    pub pred: bool,
    /// Shared hysteresis bit.
    pub hyst: bool,
}

impl BaseBimodal {
    /// `2^pred_bits` prediction bits, `2^(pred_bits - shift)` hysteresis
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `shift > pred_bits` or `pred_bits >= 32`.
    pub fn new(pred_bits: u32, shift: u32) -> Self {
        assert!(shift <= pred_bits, "hysteresis shift exceeds table bits");
        assert!(pred_bits < 32, "base table of 2^{pred_bits} entries exceeds the carried index");
        Self {
            pred: vec![false; 1 << pred_bits],
            hyst: vec![true; 1 << (pred_bits - shift)], // weak state
            shift,
        }
    }

    /// Total storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.pred.len() as u64 + self.hyst.len() as u64
    }

    /// Index for `pc`.
    #[inline]
    pub fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.pred.len() - 1)
    }

    /// Reads prediction and hysteresis for `pc`.
    #[inline]
    pub fn read(&self, pc: u64) -> BaseRead {
        self.read_index(self.index(pc))
    }

    /// Reads using a known prediction-array index (retire-time re-read:
    /// the pipeline carries the index, not the PC hash).
    #[inline]
    pub fn read_index(&self, index: usize) -> BaseRead {
        BaseRead { index: index as u32, pred: self.pred[index], hyst: self.hyst[index >> self.shift] }
    }

    /// Updates from a (possibly stale) read value toward `outcome`,
    /// writing through to the arrays and accounting effective writes.
    ///
    /// The (pred, hyst) pair is a 2-bit counter: strong-NT (00), weak-NT
    /// (01), weak-T (11), strong-T (10) — i.e. value = pred*2 + (pred ?
    /// !hyst : hyst)... encoded here simply as counter c = pred*2 + hyst.
    pub fn update(&mut self, read: BaseRead, outcome: bool, stats: &mut AccessStats) {
        let c = (read.pred as u8) * 2 + read.hyst as u8;
        let new_c = if outcome { (c + 1).min(3) } else { c.saturating_sub(1) };
        let new_pred = new_c >= 2;
        let new_hyst = (new_c & 1) == 1;
        let index = read.index as usize;
        let hindex = index >> self.shift;
        // The prediction and hysteresis bits are written together: count
        // one (entry) write when either bit changes.
        let changed = self.pred[index] != new_pred || self.hyst[hindex] != new_hyst;
        if stats.record_write(changed) {
            self.pred[index] = new_pred;
            self.hyst[hindex] = new_hyst;
        }
    }
}

/// A gshare-indexed base table: per-entry 2-bit state addressed by
/// `PC ⊕ folded-global-history` — the classic McFarling hash, sized like
/// the bimodal it replaces. An ablation base for studying how much the
/// tagged bank relies on a history-free default prediction.
#[derive(Clone, Debug)]
pub struct BaseGshare {
    table: BaseBimodal,
    folded: FoldedHistory,
}

impl BaseGshare {
    /// `2^bits` entries with private hysteresis, hashed with a
    /// `bits`-long folded global history.
    pub fn new(bits: u32) -> Self {
        Self { table: BaseBimodal::new(bits, 0), folded: FoldedHistory::new(bits as usize, bits) }
    }

    /// Index for `pc` under the current history.
    #[inline]
    pub fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.folded.value()) as usize) & (self.table.pred.len() - 1)
    }

    /// Advances the folded history after a [`GlobalHistory::push`].
    #[inline]
    pub fn update_history(&mut self, gh: &GlobalHistory) {
        self.folded.update(gh);
    }
}

/// Which base predictor fills the slot — the spec-grammar form
/// (`tage(base=...)`), resolved against a [`TageConfig`] by
/// [`BaseChoice::build`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BaseChoice {
    /// The paper's shared-hysteresis bimodal (§3.4) — the default.
    #[default]
    Bimodal,
    /// Per-entry 2-bit counters (private hysteresis) at the same entry
    /// count: isolates the cost of hysteresis sharing.
    TwoBit,
    /// The gshare-indexed base (see [`BaseGshare`]).
    Gshare,
}

impl BaseChoice {
    /// The spec-grammar token.
    pub fn token(self) -> &'static str {
        match self {
            BaseChoice::Bimodal => "bimodal",
            BaseChoice::TwoBit => "2bc",
            BaseChoice::Gshare => "gshare",
        }
    }

    /// Parses a spec-grammar token.
    pub fn from_token(s: &str) -> Option<Self> {
        match s {
            "bimodal" => Some(BaseChoice::Bimodal),
            "2bc" => Some(BaseChoice::TwoBit),
            "gshare" => Some(BaseChoice::Gshare),
            _ => None,
        }
    }

    /// Builds the slot this choice describes, sized from `cfg` (all bases
    /// share the config's `bimodal_bits` entry count, so the Figure 9
    /// `:x` scale applies uniformly).
    pub fn build(self, cfg: &TageConfig) -> BaseSlot {
        match self {
            BaseChoice::Bimodal => {
                BaseSlot::Bimodal(BaseBimodal::new(cfg.bimodal_bits, cfg.hysteresis_shift))
            }
            BaseChoice::TwoBit => BaseSlot::TwoBit(BaseBimodal::new(cfg.bimodal_bits, 0)),
            BaseChoice::Gshare => BaseSlot::Gshare(BaseGshare::new(cfg.bimodal_bits)),
        }
    }
}

/// The instantiated base-predictor sub-stage. Every variant exposes the
/// same contract: a fetch-time read producing a [`BaseRead`] (a 2-bit
/// `(pred, hyst)` state plus the index the pipeline carries to retire),
/// an index-addressed re-read, and an update from a possibly stale read.
#[derive(Clone, Debug)]
pub enum BaseSlot {
    /// See [`BaseChoice::Bimodal`].
    Bimodal(BaseBimodal),
    /// See [`BaseChoice::TwoBit`].
    TwoBit(BaseBimodal),
    /// See [`BaseChoice::Gshare`].
    Gshare(BaseGshare),
}

impl BaseSlot {
    /// Which choice built this slot.
    pub fn choice(&self) -> BaseChoice {
        match self {
            BaseSlot::Bimodal(_) => BaseChoice::Bimodal,
            BaseSlot::TwoBit(_) => BaseChoice::TwoBit,
            BaseSlot::Gshare(_) => BaseChoice::Gshare,
        }
    }

    fn table(&self) -> &BaseBimodal {
        match self {
            BaseSlot::Bimodal(b) | BaseSlot::TwoBit(b) => b,
            BaseSlot::Gshare(g) => &g.table,
        }
    }

    /// Prediction-array index for `pc` (gshare folds history in).
    #[inline]
    pub fn index(&self, pc: u64) -> usize {
        match self {
            BaseSlot::Bimodal(b) | BaseSlot::TwoBit(b) => b.index(pc),
            BaseSlot::Gshare(g) => g.index(pc),
        }
    }

    /// Fetch-time read for `pc`.
    #[inline]
    pub fn read(&self, pc: u64) -> BaseRead {
        self.read_index(self.index(pc))
    }

    /// Re-read by carried index (retire-time path).
    #[inline]
    pub fn read_index(&self, index: usize) -> BaseRead {
        self.table().read_index(index)
    }

    /// Update from a (possibly stale) read toward `outcome`.
    pub fn update(&mut self, read: BaseRead, outcome: bool, stats: &mut AccessStats) {
        match self {
            BaseSlot::Bimodal(b) | BaseSlot::TwoBit(b) => b.update(read, outcome, stats),
            BaseSlot::Gshare(g) => g.table.update(read, outcome, stats),
        }
    }

    /// Advances any internal history after a [`GlobalHistory::push`]
    /// (no-op for the history-free bases).
    #[inline]
    pub fn update_history(&mut self, gh: &GlobalHistory) {
        if let BaseSlot::Gshare(g) = self {
            g.update_history(gh);
        }
    }

    /// log2 of the prediction-array entry count (the bank-interleaving
    /// index width).
    pub fn size_bits(&self) -> u32 {
        (usize::BITS - 1) - self.table().pred.len().leading_zeros()
    }

    /// Total storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.table().storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_matches_reference_shape() {
        let b = BaseBimodal::new(15, 2);
        assert_eq!(b.storage_bits(), 32 * 1024 + 8 * 1024);
    }

    #[test]
    fn trains_to_strong_taken() {
        let mut b = BaseBimodal::new(10, 2);
        let mut stats = AccessStats::default();
        for _ in 0..4 {
            let r = b.read(0x40);
            b.update(r, true, &mut stats);
        }
        let r = b.read(0x40);
        assert!(r.pred);
        // Strong taken: c = 3? c = pred*2+hyst: strongest is 3 (pred=1,hyst=1).
        assert!(r.hyst);
    }

    #[test]
    fn trains_to_strong_not_taken() {
        let mut b = BaseBimodal::new(10, 2);
        let mut stats = AccessStats::default();
        for _ in 0..4 {
            let r = b.read(0x40);
            b.update(r, false, &mut stats);
        }
        let r = b.read(0x40);
        assert!(!r.pred);
        assert!(!r.hyst);
    }

    #[test]
    fn hysteresis_is_shared_between_neighbours() {
        let mut b = BaseBimodal::new(10, 2);
        let mut stats = AccessStats::default();
        // PCs 0x40>>2=0x10 and 0x44>>2=0x11 share hysteresis index 0x10>>2=4.
        for _ in 0..4 {
            let r = b.read(0x40);
            b.update(r, false, &mut stats);
        }
        let before = b.read(0x44).hyst;
        // Driving the neighbour taken flips the shared hysteresis bit.
        for _ in 0..4 {
            let r = b.read(0x44);
            b.update(r, true, &mut stats);
        }
        let after = b.read(0x40).hyst; // shared bit seen from the first PC
        assert!(!before && after, "hysteresis bit should be shared");
    }

    #[test]
    fn silent_writes_are_counted() {
        let mut b = BaseBimodal::new(10, 2);
        let mut stats = AccessStats::default();
        for _ in 0..10 {
            let r = b.read(0x80);
            b.update(r, true, &mut stats);
        }
        // After saturation (2 effective updates from weak-NT to strong-T
        // plus hysteresis moves), the remaining updates are silent.
        assert!(stats.silent_writes_avoided >= 6, "{stats:?}");
        assert!(stats.effective_writes <= 4, "{stats:?}");
    }

    #[test]
    fn base_slot_default_is_bit_identical_to_raw_bimodal() {
        let cfg = TageConfig::reference_64kb();
        let mut slot = BaseChoice::default().build(&cfg);
        let mut raw = BaseBimodal::new(cfg.bimodal_bits, cfg.hysteresis_shift);
        let mut s1 = AccessStats::default();
        let mut s2 = AccessStats::default();
        let mut rng = simkit::rng::Xoshiro256::seed_from(7);
        for _ in 0..2000 {
            let pc = 0x400 + (rng.gen_range(256) << 2);
            let outcome = rng.gen_bool(0.6);
            let a = slot.read(pc);
            let b = raw.read(pc);
            assert_eq!(a, b);
            slot.update(a, outcome, &mut s1);
            raw.update(b, outcome, &mut s2);
        }
        assert_eq!(s1, s2);
        assert_eq!(slot.storage_bits(), raw.storage_bits());
        assert_eq!(slot.size_bits(), cfg.bimodal_bits);
    }

    #[test]
    fn base_choices_round_trip_tokens_and_budget() {
        let cfg = TageConfig::reference_64kb();
        for choice in [BaseChoice::Bimodal, BaseChoice::TwoBit, BaseChoice::Gshare] {
            assert_eq!(BaseChoice::from_token(choice.token()), Some(choice));
            let slot = choice.build(&cfg);
            assert_eq!(slot.choice(), choice);
            assert_eq!(slot.size_bits(), cfg.bimodal_bits);
            assert!(slot.storage_bits() > 0);
        }
        assert_eq!(BaseChoice::from_token("bogus"), None);
        // Private hysteresis doubles the hysteresis array; gshare matches 2bc.
        let bimodal = BaseChoice::Bimodal.build(&cfg).storage_bits();
        let two_bit = BaseChoice::TwoBit.build(&cfg).storage_bits();
        let gshare = BaseChoice::Gshare.build(&cfg).storage_bits();
        assert!(two_bit > bimodal);
        assert_eq!(two_bit, gshare);
        assert_eq!(two_bit, 2 << cfg.bimodal_bits);
    }

    #[test]
    fn gshare_base_spreads_one_pc_across_histories() {
        let mut g = BaseGshare::new(10);
        let mut gh = GlobalHistory::new();
        let mut rng = simkit::rng::Xoshiro256::seed_from(8);
        let mut indices = std::collections::HashSet::new();
        for _ in 0..64 {
            gh.push(rng.gen_bool(0.5));
            g.update_history(&gh);
            indices.insert(g.index(0x40_0040));
        }
        assert!(indices.len() > 20, "poor history spread: {}", indices.len());
        // History-free bases map one PC to one index, always.
        let b = BaseSlot::TwoBit(BaseBimodal::new(10, 0));
        assert_eq!(b.index(0x40_0040), b.index(0x40_0040));
    }

    #[test]
    fn stale_update_is_idempotent() {
        // Two updates from the same stale read write the same value — the
        // Figure 3 mechanism at the bit level.
        let mut b = BaseBimodal::new(10, 2);
        let mut stats = AccessStats::default();
        let r = b.read(0xC0);
        b.update(r, true, &mut stats);
        let v1 = (b.read(0xC0).pred, b.read(0xC0).hyst);
        b.update(r, true, &mut stats);
        let v2 = (b.read(0xC0).pred, b.read(0xC0).hyst);
        assert_eq!(v1, v2);
    }
}
