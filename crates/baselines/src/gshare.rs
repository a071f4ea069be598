//! McFarling's gshare predictor — the paper's first-generation
//! representative (512 Kbit configuration in §4).
//!
//! A single table of 2-bit counters indexed by `PC ⊕ global history`.
//! Because *one* counter carries the whole prediction, gshare is the
//! predictor most damaged by computing updates from stale fetch-time
//! values (scenario \[B\]: 944 → 1292 MPPKI in the paper).
//!
//! The table stores each 2-bit counter in one byte (0..=3, taken from 2
//! up, starting weakly not-taken at 1), and the at most 26 history bits
//! the index reads live in one `u64` shift register, newest outcome in
//! bit 0.

use simkit::predictor::{BranchInfo, Predictor, UpdateScenario};
use simkit::stats::AccessStats;

/// Initial counter state: weakly not-taken.
const WEAK_NOT_TAKEN: u8 = 1;
/// Saturated taken state of a 2-bit counter.
const STRONG_TAKEN: u8 = 3;

/// A gshare predictor with `2^index_bits` two-bit counters and a global
/// history of `index_bits` bits.
#[derive(Clone, Debug)]
pub struct Gshare {
    table: Vec<u8>,
    index_bits: u32,
    hist_bits: u32,
    /// The last `hist_bits` outcomes, newest in bit 0.
    ghist: u64,
    stats: AccessStats,
}

/// In-flight snapshot for [`Gshare`].
#[derive(Clone, Copy, Debug)]
pub struct GshareFlight {
    index: usize,
    ctr: u8,
}

impl Gshare {
    /// Creates a gshare table of `2^index_bits` entries with a history
    /// length equal to the index width (the classic configuration).
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 26.
    pub fn new(index_bits: u32) -> Self {
        Self::with_history(index_bits, index_bits)
    }

    /// Creates a gshare table of `2^index_bits` entries hashing in
    /// `hist_bits` of global history. Shorter-than-index histories train
    /// faster on noisy code at the cost of correlation reach — the usual
    /// practical tuning.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 26, or
    /// `hist_bits > index_bits`.
    pub fn with_history(index_bits: u32, hist_bits: u32) -> Self {
        assert!((1..=26).contains(&index_bits), "gshare index bits {index_bits} out of range");
        assert!(hist_bits <= index_bits, "gshare history exceeds index width");
        Self {
            table: vec![WEAK_NOT_TAKEN; 1 << index_bits],
            index_bits,
            hist_bits,
            ghist: 0,
            stats: AccessStats::default(),
        }
    }

    /// The paper's 512 Kbit configuration: 256K × 2-bit counters (history
    /// tuned to the suite, as any deployed gshare would be).
    pub fn cbp_512k() -> Self {
        Self::with_history(18, 12)
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ (pc >> 13) ^ (self.ghist << (self.index_bits - self.hist_bits))) as usize)
            & (self.table.len() - 1)
    }
}

impl Predictor for Gshare {
    type Flight = GshareFlight;

    fn name(&self) -> String {
        format!("gshare-{}Kbit", (self.storage_bits() + 512) / 1024)
    }

    fn storage_bits(&self) -> u64 {
        self.table.len() as u64 * 2
    }

    fn predict(&mut self, b: &BranchInfo) -> (bool, GshareFlight) {
        self.stats.predict_reads += 1;
        let index = self.index(b.pc);
        let ctr = self.table[index];
        (ctr > WEAK_NOT_TAKEN, GshareFlight { index, ctr })
    }

    fn fetch_commit(&mut self, _b: &BranchInfo, outcome: bool, _flight: &mut GshareFlight) {
        self.ghist = ((self.ghist << 1) | u64::from(outcome)) & ((1 << self.hist_bits) - 1);
    }

    fn retire(
        &mut self,
        _b: &BranchInfo,
        outcome: bool,
        predicted: bool,
        flight: GshareFlight,
        scenario: UpdateScenario,
    ) {
        let mispredicted = predicted != outcome;
        if scenario.counts_retire_read(mispredicted) {
            self.stats.retire_reads += 1;
        }
        let c = if scenario.reread_at_retire(mispredicted) {
            self.table[flight.index]
        } else {
            flight.ctr
        };
        let c = if outcome { (c + 1).min(STRONG_TAKEN) } else { c.saturating_sub(1) };
        let changed = self.table[flight.index] != c;
        if self.stats.record_write(changed) {
            self.table[flight.index] = c;
        }
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
    use simkit::counter::UnsignedCounter;
    use simkit::history::GlobalHistory;

    fn drive(p: &mut Gshare, pc: u64, outcome: bool) -> bool {
        let b = BranchInfo::conditional(pc);
        let (pred, mut f) = p.predict(&b);
        p.fetch_commit(&b, outcome, &mut f);
        p.retire(&b, outcome, pred, f, UpdateScenario::Immediate);
        pred
    }

    #[test]
    fn learns_history_correlation() {
        // Branch B equals the previous branch's outcome: gshare learns via
        // history indexing. Feed alternating source branch.
        let mut p = Gshare::new(12);
        let mut wrong = 0;
        let mut prev = false;
        for i in 0..2000 {
            let src = i % 2 == 0;
            drive(&mut p, 0x100, src);
            let correct = drive(&mut p, 0x200, prev) == prev;
            if !correct && i > 100 {
                wrong += 1;
            }
            prev = src;
        }
        assert!(wrong < 20, "gshare should learn short correlation, wrong={wrong}");
    }

    #[test]
    fn learns_short_pattern() {
        let pattern = [true, true, false];
        let mut p = Gshare::new(12);
        let mut wrong = 0;
        for i in 0..3000 {
            let out = pattern[i % 3];
            if drive(&mut p, 0x400, out) != out && i > 200 {
                wrong += 1;
            }
        }
        assert!(wrong < 30, "wrong={wrong}");
    }

    #[test]
    fn cbp_config_is_512kbit() {
        assert_eq!(Gshare::cbp_512k().storage_bits(), 512 * 1024);
    }

    #[test]
    fn distinct_histories_use_distinct_entries() {
        let mut p = Gshare::new(10);
        let b = BranchInfo::conditional(0x40);
        let (_, f1) = p.predict(&b);
        p.fetch_commit(&b, true, &mut { f1 });
        let (_, f2) = p.predict(&b);
        // History changed by one bit, index should usually differ.
        assert_ne!(f1.index, f2.index);
    }

    #[test]
    fn name_mentions_size() {
        assert!(Gshare::cbp_512k().name().contains("512"));
    }

    /// The formulation the byte table and history register replaced, kept
    /// as the oracle: `UnsignedCounter` entries indexed through the byte
    /// ring's `GlobalHistory::low_bits`.
    struct Reference {
        table: Vec<UnsignedCounter>,
        index_bits: u32,
        hist_bits: u32,
        ghist: GlobalHistory,
        stats: AccessStats,
    }

    impl Reference {
        fn new(index_bits: u32, hist_bits: u32) -> Self {
            Self {
                table: vec![UnsignedCounter::new(2); 1 << index_bits],
                index_bits,
                hist_bits,
                ghist: GlobalHistory::new(),
                stats: AccessStats::default(),
            }
        }

        fn predict(&mut self, pc: u64) -> (bool, usize, u16) {
            self.stats.predict_reads += 1;
            let hist = self.ghist.low_bits(self.hist_bits) << (self.index_bits - self.hist_bits);
            let index = (((pc >> 2) ^ (pc >> 13) ^ hist) as usize) & (self.table.len() - 1);
            let c = self.table[index];
            (c.is_taken(), index, c.get())
        }

        fn retire(&mut self, outcome: bool, predicted: bool, at: (usize, u16), s: UpdateScenario) {
            let mispredicted = predicted != outcome;
            if s.counts_retire_read(mispredicted) {
                self.stats.retire_reads += 1;
            }
            let mut c = if s.reread_at_retire(mispredicted) {
                self.table[at.0]
            } else {
                UnsignedCounter::with_value(2, at.1)
            };
            c.update(outcome);
            let changed = self.table[at.0] != c;
            if self.stats.record_write(changed) {
                self.table[at.0] = c;
            }
        }
    }

    #[test]
    fn matches_the_unsigned_counter_and_low_bits_formulation() {
        use simkit::rng::Xoshiro256;
        use std::collections::VecDeque;
        // Random streams over a few hundred sites with biased, history-
        // correlated outcomes, retired through an in-flight window of
        // random depth so [A], [B] and [C] read stale and fresh counters.
        for (index_bits, hist_bits) in [(18, 12), (12, 12), (10, 0), (6, 3), (4, 4)] {
            for scenario in UpdateScenario::ALL {
                let mut rng = Xoshiro256::seed_from(u64::from(index_bits * 31 + hist_bits));
                let mut fast = Gshare::with_history(index_bits, hist_bits);
                let mut oracle = Reference::new(index_bits, hist_bits);
                let mut window: VecDeque<(BranchInfo, bool, bool, GshareFlight)> = VecDeque::new();
                let mut last = false;
                for step in 0..20_000u32 {
                    let pc = 0x40_0000 + 4 * rng.gen_range(300) + (rng.gen_range(4) << 13);
                    let outcome = if pc.is_multiple_of(3) { last } else { rng.gen_bool(0.7) };
                    last = outcome;
                    let b = BranchInfo::conditional(pc);
                    let (pred, mut f) = fast.predict(&b);
                    let (want_pred, want_index, want_ctr) = oracle.predict(pc);
                    assert_eq!(
                        (pred, f.index, u16::from(f.ctr)),
                        (want_pred, want_index, want_ctr),
                        "step {step} {scenario}"
                    );
                    fast.fetch_commit(&b, outcome, &mut f);
                    oracle.ghist.push(outcome);
                    window.push_back((b, outcome, pred, f));
                    let depth = rng.gen_range(24) as usize;
                    while window.len() > depth {
                        let Some((b, outcome, pred, f)) = window.pop_front() else { break };
                        oracle.retire(outcome, pred, (f.index, u16::from(f.ctr)), scenario);
                        fast.retire(&b, outcome, pred, f, scenario);
                    }
                }
                for (b, outcome, pred, f) in window {
                    oracle.retire(outcome, pred, (f.index, u16::from(f.ctr)), scenario);
                    fast.retire(&b, outcome, pred, f, scenario);
                }
                assert_eq!(fast.stats(), oracle.stats, "{index_bits}/{hist_bits} {scenario}");
                let states: Vec<u16> = oracle.table.iter().map(|c| c.get()).collect();
                let fast_states: Vec<u16> = fast.table.iter().map(|&c| u16::from(c)).collect();
                let cell = format!("{index_bits}/{hist_bits} {scenario}");
                assert!(fast_states == states, "{cell}: tables differ");
            }
        }
    }

    #[test]
    fn table_is_one_byte_per_counter() {
        // 256K two-bit counters in 256 KiB; the budget still counts 2 bits
        // per entry.
        let g = Gshare::cbp_512k();
        assert_eq!(g.table.len() * std::mem::size_of_val(&g.table[0]), 256 * 1024);
        assert_eq!(g.storage_bits(), 512 * 1024);
    }
}
