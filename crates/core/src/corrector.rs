//! The Statistical Corrector predictor (§5.3) and its local-history
//! variant, LSC (§6).
//!
//! TAGE is excellent on strongly history-correlated branches but performs
//! *worse than a wide PC-indexed counter* on branches that are merely
//! statistically biased. The Statistical Corrector watches (address,
//! history, TAGE prediction) tuples through a small GEHL-like adder tree
//! and **reverts** the TAGE prediction when it disagrees with sufficient
//! magnitude (a dynamic threshold adapted so reverting stays beneficial,
//! like the agree predictor crossed with GEHL's adaptive training).
//!
//! [`CorrectorTables`] is the shared adder-tree core; [`Gsc`] indexes it
//! with global history (the ISL-TAGE corrector: 4 tables × 1K × 6-bit,
//! history lengths 0/6/10/17), [`Lsc`] with per-branch local history (the
//! TAGE-LSC corrector: 5 tables × 1K × 6-bit, local lengths 0/4/10/17/31,
//! plus a 32-entry local history table, §6.1).
//!
//! In a bank-interleaved stack, [`Lsc::predict`] takes the bank the
//! stack's one selector chose (§7.1 interleaves every TAGE-LSC table).

use crate::banking::interleaved_index;
use simkit::bits::mask;
use simkit::counter::SignedCounter;
use simkit::history::{FoldedHistory, GlobalHistory, LocalHistories};
use simkit::stats::AccessStats;
use simkit::threshold::AdaptiveThreshold;

/// Maximum corrector table count (fixed-size snapshots).
pub const MAX_SC_TABLES: usize = 8;

/// In-flight snapshot of one corrector read.
#[derive(Clone, Copy, Debug, Default)]
pub struct CorrectorFlight {
    /// Per-table entry indices.
    pub indices: [u16; MAX_SC_TABLES],
    /// Per-table counter values read at fetch (the counters are at most
    /// 8 bits wide, see [`CorrectorTables::new`]).
    pub ctrs: [i8; MAX_SC_TABLES],
    /// Adder-tree sum (incl. the 8× centered TAGE counter term).
    pub sum: i32,
    /// The corrector's own prediction (sign of `sum`).
    pub sc_pred: bool,
    /// The incoming (TAGE-side) prediction the corrector judged.
    pub tage_pred: bool,
    /// Whether the corrector reverts the prediction.
    pub revert: bool,
}

/// The shared adder-tree core of both statistical correctors.
#[derive(Clone, Debug)]
pub struct CorrectorTables {
    tables: Vec<Vec<SignedCounter>>,
    index_bits: u32,
    index_mask: u64,
    ctr_bits: u8,
    revert_th: AdaptiveThreshold,
    update_th: AdaptiveThreshold,
    reverts: u64,
}

impl CorrectorTables {
    /// `num_tables` tables of `2^index_bits` counters of `ctr_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `num_tables` is 0 or exceeds [`MAX_SC_TABLES`], or if
    /// `ctr_bits` exceeds the 8-bit flight snapshot.
    pub fn new(num_tables: usize, index_bits: u32, ctr_bits: u8) -> Self {
        assert!((1..=MAX_SC_TABLES).contains(&num_tables));
        assert!(ctr_bits <= 8, "corrector counter width {ctr_bits} exceeds the flight snapshot");
        Self {
            tables: vec![vec![SignedCounter::new(ctr_bits); 1 << index_bits]; num_tables],
            index_bits,
            index_mask: mask(index_bits),
            ctr_bits,
            // Reverting needs clear margin; training fires more freely.
            revert_th: AdaptiveThreshold::new(12, 4, 255),
            update_th: AdaptiveThreshold::new(18, 4, 255),
            reverts: 0,
        }
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Index mask.
    #[inline]
    pub fn index_mask(&self) -> u64 {
        self.index_mask
    }

    /// Reads the tables at the given indices and makes the revert
    /// decision for the incoming prediction.
    pub fn read(
        &mut self,
        indices: &[u16; MAX_SC_TABLES],
        tage_pred: bool,
        tage_centered: i32,
    ) -> CorrectorFlight {
        let mut f = CorrectorFlight {
            indices: *indices,
            ctrs: [0; MAX_SC_TABLES],
            sum: 8 * tage_centered,
            sc_pred: tage_pred,
            tage_pred,
            revert: false,
        };
        for (t, table) in self.tables.iter().enumerate() {
            let c = table[indices[t] as usize];
            f.ctrs[t] = c.get() as i8;
            f.sum += c.centered();
        }
        f.sc_pred = f.sum >= 0;
        f.revert = f.sc_pred != tage_pred && f.sum.abs() > self.revert_th.value();
        if f.revert {
            self.reverts += 1;
        }
        f
    }

    /// Retire-time update: adapts both thresholds and trains the tables
    /// GEHL-style (update on corrector error or low confidence), from the
    /// snapshot values or fresh ones per the §4 scenario.
    pub fn update(
        &mut self,
        flight: &CorrectorFlight,
        outcome: bool,
        reread: bool,
        stats: &mut AccessStats,
    ) {
        // Revert-threshold adaptation (§5.3: "adjusted at run-time in
        // order to ensure that the use of the SC predictor is beneficial"):
        // only disagreement events are informative.
        if flight.sc_pred != flight.tage_pred {
            self.revert_th.on_event(flight.sc_pred != outcome, flight.sc_pred == outcome);
        }
        let low_conf = flight.sum.abs() <= self.update_th.value();
        let sc_wrong = flight.sc_pred != outcome;
        self.update_th.on_event(sc_wrong, low_conf);
        if !(sc_wrong || low_conf) {
            return;
        }
        for t in 0..self.tables.len() {
            let idx = flight.indices[t] as usize;
            let mut c = if reread {
                self.tables[t][idx]
            } else {
                SignedCounter::with_value(self.ctr_bits, i16::from(flight.ctrs[t]))
            };
            c.update(outcome);
            let changed = self.tables[t][idx] != c;
            if stats.record_write(changed) {
                self.tables[t][idx] = c;
            }
        }
    }

    /// Times the corrector reverted a prediction so far.
    pub fn revert_count(&self) -> u64 {
        self.reverts
    }

    /// Storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.tables.len() as u64 * (1u64 << self.index_bits) * u64::from(self.ctr_bits)
    }
}

/// The global-history Statistical Corrector of ISL-TAGE (§5.3).
#[derive(Clone, Debug)]
pub struct Gsc {
    core: CorrectorTables,
    lengths: Vec<usize>,
    ghist: GlobalHistory,
    folded: Vec<FoldedHistory>,
}

impl Gsc {
    /// A GSC with the given table index width and history lengths.
    pub fn new(index_bits: u32, lengths: &[usize]) -> Self {
        let folded = lengths
            .iter()
            .map(|&l| FoldedHistory::new(l.max(1), index_bits.saturating_sub(1).max(1)))
            .collect();
        Self {
            core: CorrectorTables::new(lengths.len(), index_bits, 6),
            lengths: lengths.to_vec(),
            ghist: GlobalHistory::new(),
            folded,
        }
    }

    /// The paper's 24 Kbit configuration: 4 tables × 1K × 6-bit, history
    /// lengths (0, 6, 10, 17) — the same shortest lengths as TAGE.
    pub fn cbp_24kbit() -> Self {
        Self::new(10, &[0, 6, 10, 17])
    }

    /// Scales table sizes by `2^log2_delta` (Figure 9 sweeps).
    pub fn scaled(&self, log2_delta: i32) -> Self {
        let bits = (10 + log2_delta).clamp(6, 20) as u32;
        Self::new(bits, &self.lengths)
    }

    /// Fetch-time read + revert decision.
    pub fn predict(&mut self, pc: u64, tage_pred: bool, tage_centered: i32) -> CorrectorFlight {
        let mut indices = [0u16; MAX_SC_TABLES];
        let m = self.core.index_mask();
        for (t, &l) in self.lengths.iter().enumerate() {
            let h = if l == 0 { 0 } else { self.folded[t].value() };
            let base = (pc >> 2) ^ (pc >> 9) ^ (h << 2) ^ (h >> 3);
            indices[t] = (((base << 1) | tage_pred as u64) & m) as u16;
        }
        self.core.read(&indices, tage_pred, tage_centered)
    }

    /// Speculative history insertion (call once per conditional branch).
    pub fn on_branch(&mut self, outcome: bool) {
        self.ghist.push(outcome);
        for f in &mut self.folded {
            f.update(&self.ghist);
        }
    }

    /// Retire-time update (see [`CorrectorTables::update`]).
    pub fn update(
        &mut self,
        flight: &CorrectorFlight,
        outcome: bool,
        reread: bool,
        stats: &mut AccessStats,
    ) {
        self.core.update(flight, outcome, reread, stats);
    }

    /// Times the corrector reverted a prediction.
    pub fn revert_count(&self) -> u64 {
        self.core.revert_count()
    }

    /// Storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.core.storage_bits()
    }
}

/// The local-history Statistical Corrector of TAGE-LSC (§6).
#[derive(Clone, Debug)]
pub struct Lsc {
    core: CorrectorTables,
    lengths: Vec<u32>,
    /// `mask(length)` per table (0 for the history-free table).
    length_masks: Vec<u64>,
    lhist: LocalHistories,
}

impl Lsc {
    /// An LSC with the given table index width, local history lengths and
    /// local history table entries.
    pub fn new(index_bits: u32, lengths: &[u32], lht_entries: usize) -> Self {
        let max_len = lengths.iter().copied().max().unwrap_or(1).max(1);
        Self {
            core: CorrectorTables::new(lengths.len(), index_bits, 6),
            lengths: lengths.to_vec(),
            length_masks: lengths.iter().map(|&l| mask(l)).collect(),
            lhist: LocalHistories::new(lht_entries, max_len),
        }
    }

    /// [`Lsc::cbp_30kbit`] with a doubled (64-entry) local history
    /// table: §7.1 pairs it with bank interleaving, under which the local
    /// components lose more (more entries to train per branch).
    pub fn cbp_30kbit_2lht() -> Self {
        Self::new(10, &[0, 4, 10, 17, 31], 64)
    }

    /// The paper's ~31 Kbit configuration (§6.1): 5 tables × 1K × 6-bit
    /// with local history lengths (0, 4, 10, 17, 31) and a 32-entry
    /// direct-mapped local history table.
    pub fn cbp_30kbit() -> Self {
        Self::new(10, &[0, 4, 10, 17, 31], 32)
    }

    /// Scales table and local-history-table sizes by `2^log2_delta`
    /// (Figure 9 sweeps; §7.1 doubles the local components for
    /// bank-interleaving).
    pub fn scaled(&self, log2_delta: i32) -> Self {
        let bits = (10 + log2_delta).clamp(6, 20) as u32;
        let lht = if log2_delta >= 0 {
            self.lhist.entries() << log2_delta
        } else {
            (self.lhist.entries() >> (-log2_delta)).max(16)
        };
        Self::new(bits, &self.lengths, lht)
    }

    /// Fetch-time read + revert decision, using the speculative local
    /// history of `pc`. With `bank` set, every table index carries the
    /// bank in its top two bits (§4.3).
    pub fn predict(
        &mut self,
        pc: u64,
        tage_pred: bool,
        tage_centered: i32,
        bank: Option<u8>,
    ) -> CorrectorFlight {
        let mut indices = [0u16; MAX_SC_TABLES];
        let m = self.core.index_mask();
        let lh = self.lhist.history(pc);
        for (t, &m_len) in self.length_masks.iter().enumerate() {
            let h = lh & m_len;
            let mixed = h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            let base = (pc >> 2) ^ (pc >> 8) ^ mixed;
            let mut idx = (((base << 1) | tage_pred as u64) & m) as usize;
            if let Some(bk) = bank {
                idx = interleaved_index(idx, bk, self.core.index_bits);
            }
            indices[t] = idx as u16;
        }
        self.core.read(&indices, tage_pred, tage_centered)
    }

    /// Speculative local history insertion (call once per conditional
    /// branch, fetch order). Exact on the correct path because in-flight
    /// local histories are repaired on mispredictions (§6.1's Speculative
    /// Local History Manager).
    pub fn spec_update(&mut self, pc: u64, outcome: bool) {
        self.lhist.update(pc, outcome);
    }

    /// Retire-time update (see [`CorrectorTables::update`]).
    pub fn update(
        &mut self,
        flight: &CorrectorFlight,
        outcome: bool,
        reread: bool,
        stats: &mut AccessStats,
    ) {
        self.core.update(flight, outcome, reread, stats);
    }

    /// Times the corrector reverted a prediction.
    pub fn revert_count(&self) -> u64 {
        self.core.revert_count()
    }

    /// Storage in bits (tables + local history table; the speculative
    /// manager is one entry per in-flight branch, counted like the IUM).
    pub fn storage_bits(&self) -> u64 {
        self.core.storage_bits() + self.lhist.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gsc_storage_matches_paper() {
        // 4 × 1K × 6 bits = 24 Kbit.
        assert_eq!(Gsc::cbp_24kbit().storage_bits(), 24 * 1024);
    }

    #[test]
    fn lsc_storage_matches_paper() {
        // 5 × 1K × 6 = 30 Kbit tables + 32 × 31 local history bits.
        assert_eq!(Lsc::cbp_30kbit().storage_bits(), 30 * 1024 + 32 * 31);
    }

    #[test]
    fn corrector_learns_statistical_bias() {
        // A branch with 0.8 taken bias that TAGE keeps predicting
        // not-taken: the corrector must learn to revert most of the time.
        let mut gsc = Gsc::cbp_24kbit();
        let mut stats = AccessStats::default();
        let mut rng = simkit::rng::Xoshiro256::seed_from(7);
        let mut reverts_late = 0;
        let mut total_late = 0;
        for i in 0..20_000 {
            let outcome = rng.gen_bool(0.8);
            // TAGE (wrongly) predicts not-taken with a weak counter.
            let f = gsc.predict(0x400, false, -1);
            gsc.on_branch(outcome);
            gsc.update(&f, outcome, true, &mut stats);
            if i > 10_000 {
                total_late += 1;
                if f.revert {
                    reverts_late += 1;
                }
            }
        }
        let rate = reverts_late as f64 / total_late as f64;
        assert!(rate > 0.5, "corrector should revert a biased branch, rate={rate}");
    }

    #[test]
    fn corrector_agrees_with_good_predictions() {
        // When TAGE is right with strong counters, reverts must be rare.
        let mut gsc = Gsc::cbp_24kbit();
        let mut stats = AccessStats::default();
        let mut rng = simkit::rng::Xoshiro256::seed_from(8);
        let mut reverts = 0;
        for _ in 0..10_000 {
            let outcome = rng.gen_bool(0.97);
            let f = gsc.predict(0x500, true, 7);
            gsc.on_branch(outcome);
            gsc.update(&f, outcome, true, &mut stats);
            if f.revert {
                reverts += 1;
            }
        }
        assert!(reverts < 500, "spurious reverts: {reverts}");
    }

    #[test]
    fn lsc_learns_local_pattern() {
        // Period-5 local pattern under a *wrong* incoming prediction: the
        // LSC should learn to fix the mispredicted phases.
        let pattern = [true, true, false, true, false];
        let mut lsc = Lsc::cbp_30kbit();
        let mut stats = AccessStats::default();
        let mut wrong = 0;
        let mut total = 0;
        for i in 0..30_000 {
            let outcome = pattern[i % 5];
            // Incoming prediction: always taken with medium confidence.
            let f = lsc.predict(0x600, true, 3, None);
            let final_pred = if f.revert { f.sc_pred } else { true };
            lsc.spec_update(0x600, outcome);
            lsc.update(&f, outcome, true, &mut stats);
            if i > 15_000 {
                total += 1;
                if final_pred != outcome {
                    wrong += 1;
                }
            }
        }
        let rate = wrong as f64 / total as f64;
        // The pattern is 60% taken; blind "taken" would be 40% wrong.
        assert!(rate < 0.15, "LSC should correct the pattern, rate={rate}");
    }

    #[test]
    fn scenario_snapshot_vs_reread() {
        let mut gsc = Gsc::cbp_24kbit();
        let mut stats = AccessStats::default();
        // Two updates from the same stale snapshot only advance once.
        let f1 = gsc.predict(0x700, true, 1);
        gsc.update(&f1, true, false, &mut stats);
        gsc.update(&f1, true, false, &mut stats);
        let f2 = gsc.predict(0x700, true, 1);
        for t in 0..4 {
            assert!(f2.ctrs[t] - f1.ctrs[t] <= 1, "stale snapshot advanced twice");
        }
    }

    #[test]
    fn scaling_changes_storage() {
        let g = Gsc::cbp_24kbit();
        assert_eq!(g.scaled(2).storage_bits(), g.storage_bits() * 4);
        let l = Lsc::cbp_30kbit();
        assert!(l.scaled(1).storage_bits() > l.storage_bits());
        assert!(l.scaled(-1).storage_bits() < l.storage_bits());
    }
}
