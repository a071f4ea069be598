//! The base predictor (component T0) under the tagged bank.
//!
//! The reference configuration is the paper's bimodal table with
//! EV8-style shared hysteresis: 4 prediction bits share one hysteresis
//! bit (§3.4: "32K prediction bits + 8K hysteresis bits"). [`Base`] is
//! one table type for every [`BaseChoice`] the spec grammar selects
//! (`tage(base=...)`, the §3-level base-predictor ablations): each entry
//! is the 2-bit `(pred, hyst)` state, `2^shift` neighbours share a
//! hysteresis bit, and only the gshare base folds global history into
//! the index.

use crate::config::TageConfig;
use simkit::history::{FoldedHistory, GlobalHistory};
use simkit::stats::AccessStats;

/// Which base predictor sits under the tagged bank — the spec-grammar
/// form (`tage(base=...)`), sized from a [`TageConfig`] by [`Base::new`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BaseChoice {
    /// The paper's shared-hysteresis bimodal (§3.4) — the default.
    #[default]
    Bimodal,
    /// Per-entry 2-bit counters (private hysteresis) at the same entry
    /// count: isolates the cost of hysteresis sharing.
    TwoBit,
    /// A gshare-indexed table: `PC ⊕ folded-global-history`, the classic
    /// McFarling hash, with private hysteresis. Studies how much the
    /// tagged bank relies on a history-free default prediction.
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
}

/// Values read from the base predictor at fetch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BaseRead {
    /// Prediction-array index (`u32`: [`Base::new`] bounds the table
    /// below 2^32 entries).
    pub index: u32,
    /// Prediction bit.
    pub pred: bool,
    /// Hysteresis bit (shared with `2^shift - 1` neighbours).
    pub hyst: bool,
}

/// The base-predictor table.
#[derive(Clone, Debug)]
pub struct Base {
    choice: BaseChoice,
    pred: Vec<bool>,
    hyst: Vec<bool>,
    shift: u32,
    /// The gshare base's folded global history; `None` for the
    /// history-free bases.
    folded: Option<FoldedHistory>,
}

impl Base {
    /// The base `choice` describes, with `2^cfg.bimodal_bits` prediction
    /// bits (every choice shares that entry count, so the Figure 9 `:x`
    /// scale applies uniformly). Only the bimodal shares hysteresis, over
    /// `2^cfg.hysteresis_shift` neighbours; `2bc` and `gshare` keep one
    /// hysteresis bit per entry.
    ///
    /// # Panics
    ///
    /// Panics if the hysteresis shift exceeds `cfg.bimodal_bits` or
    /// `cfg.bimodal_bits >= 32`.
    pub fn new(choice: BaseChoice, cfg: &TageConfig) -> Self {
        let bits = cfg.bimodal_bits;
        let shift = if choice == BaseChoice::Bimodal { cfg.hysteresis_shift } else { 0 };
        assert!(shift <= bits, "hysteresis shift exceeds table bits");
        assert!(bits < 32, "base table of 2^{bits} entries exceeds the carried index");
        Self {
            choice,
            pred: vec![false; 1 << bits],
            hyst: vec![true; 1 << (bits - shift)], // weak state
            shift,
            folded: (choice == BaseChoice::Gshare).then(|| FoldedHistory::new(bits as usize, bits)),
        }
    }

    /// Which choice built this base.
    pub fn choice(&self) -> BaseChoice {
        self.choice
    }

    /// Prediction-array index for `pc`: `((pc >> 2) ^ fold) & mask`,
    /// where `fold` is 0 for the history-free bases.
    #[inline]
    pub fn index(&self, pc: u64) -> usize {
        let fold = self.folded.as_ref().map_or(0, FoldedHistory::value);
        (((pc >> 2) ^ fold) as usize) & (self.pred.len() - 1)
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
    /// The (pred, hyst) pair is the 2-bit counter `c = pred*2 + hyst`:
    /// strong-NT (00), weak-NT (01), weak-T (10), strong-T (11).
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

    /// Advances the gshare base's folded history after a
    /// [`GlobalHistory::push`] (no-op for the history-free bases).
    #[inline]
    pub fn update_history(&mut self, gh: &GlobalHistory) {
        if let Some(folded) = &mut self.folded {
            folded.update(gh);
        }
    }

    /// log2 of the prediction-array entry count (the bank-interleaving
    /// index width).
    pub fn size_bits(&self) -> u32 {
        self.pred.len().trailing_zeros()
    }

    /// Total storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.pred.len() as u64 + self.hyst.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `2^10`-entry base of `choice`, the bimodal sharing hysteresis
    /// over four neighbours.
    fn small(choice: BaseChoice) -> Base {
        let cfg =
            TageConfig { bimodal_bits: 10, hysteresis_shift: 2, ..TageConfig::reference_64kb() };
        Base::new(choice, &cfg)
    }

    #[test]
    fn storage_matches_reference_shape() {
        let b = Base::new(BaseChoice::Bimodal, &TageConfig::reference_64kb());
        assert_eq!(b.storage_bits(), 32 * 1024 + 8 * 1024);
    }

    #[test]
    fn trains_to_strong_taken() {
        let mut b = small(BaseChoice::Bimodal);
        let mut stats = AccessStats::default();
        for _ in 0..4 {
            let r = b.read(0x40);
            b.update(r, true, &mut stats);
        }
        let r = b.read(0x40);
        // Strong taken is c = pred*2 + hyst = 3.
        assert!(r.pred);
        assert!(r.hyst);
    }

    #[test]
    fn trains_to_strong_not_taken() {
        let mut b = small(BaseChoice::Bimodal);
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
        let mut b = small(BaseChoice::Bimodal);
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
        let mut b = small(BaseChoice::Bimodal);
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
    fn base_choices_round_trip_tokens_and_budget() {
        let cfg = TageConfig::reference_64kb();
        for choice in [BaseChoice::Bimodal, BaseChoice::TwoBit, BaseChoice::Gshare] {
            assert_eq!(BaseChoice::from_token(choice.token()), Some(choice));
            let base = Base::new(choice, &cfg);
            assert_eq!(base.choice(), choice);
            assert_eq!(base.size_bits(), cfg.bimodal_bits);
            assert!(base.storage_bits() > 0);
        }
        assert_eq!(BaseChoice::from_token("bogus"), None);
        // Private hysteresis doubles the hysteresis array; gshare matches 2bc.
        let bimodal = Base::new(BaseChoice::Bimodal, &cfg).storage_bits();
        let two_bit = Base::new(BaseChoice::TwoBit, &cfg).storage_bits();
        let gshare = Base::new(BaseChoice::Gshare, &cfg).storage_bits();
        assert!(two_bit > bimodal);
        assert_eq!(two_bit, gshare);
        assert_eq!(two_bit, 2 << cfg.bimodal_bits);
    }

    #[test]
    fn gshare_base_spreads_one_pc_across_histories() {
        let mut g = small(BaseChoice::Gshare);
        let mut b = small(BaseChoice::TwoBit);
        let mut gh = GlobalHistory::new();
        let mut rng = simkit::rng::Xoshiro256::seed_from(8);
        let mut indices = std::collections::HashSet::new();
        let fixed = b.index(0x40_0040);
        for _ in 0..64 {
            gh.push(rng.gen_bool(0.5));
            g.update_history(&gh);
            b.update_history(&gh);
            indices.insert(g.index(0x40_0040));
            // History-free bases map one PC to one index, always.
            assert_eq!(b.index(0x40_0040), fixed);
        }
        assert!(indices.len() > 20, "poor history spread: {}", indices.len());
    }

    #[test]
    fn stale_update_is_idempotent() {
        // Two updates from the same stale read write the same value — the
        // Figure 3 mechanism at the bit level.
        let mut b = small(BaseChoice::Bimodal);
        let mut stats = AccessStats::default();
        let r = b.read(0xC0);
        b.update(r, true, &mut stats);
        let v1 = (b.read(0xC0).pred, b.read(0xC0).hyst);
        b.update(r, true, &mut stats);
        let v2 = (b.read(0xC0).pred, b.read(0xC0).hyst);
        assert_eq!(v1, v2);
    }
}
