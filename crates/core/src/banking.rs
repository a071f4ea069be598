//! 4-way bank interleaving with the §4.3 bank-selection algorithm.
//!
//! §4.3 splits every table into four single-ported banks and picks, per
//! prediction, a bank neither of the two previous predictions used, so
//! every bank is free for updates at least two cycles out of three; §7.1
//! applies the choice to every TAGE-LSC table. An interleaved (`ilv`)
//! [`PredictorStack`](crate::PredictorStack) owns the one
//! [`BankSelector`] and indexes every table through [`interleaved_index`].

/// Number of banks per table (the paper evaluates 4-way interleaving).
pub const BANKS: u8 = 4;

/// The §4.3 bank selector: the predicted branch never accesses a bank
/// used by either of the two previous predictions.
///
/// ```text
/// if (Z is unconditional) b(Z) = -1; /* no access */
/// else { b(Z) = Z & 3;
///        while (b(Z) == b(X) || b(Z) == b(Y)) b(Z) = (b(Z)+1) & 3; }
/// ```
///
/// # Example
///
/// ```
/// use tage::banking::BankSelector;
///
/// let mut sel = BankSelector::new();
/// let b1 = sel.bank(0x1000);
/// let b2 = sel.bank(0x1000);
/// let b3 = sel.bank(0x1000);
/// assert_ne!(b1, b2);
/// assert_ne!(b2, b3);
/// assert_ne!(b1, b3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BankSelector {
    /// Banks of the two previous predictions, newest first; `-1` marks an
    /// unconditional branch.
    last: [i8; 2],
}

impl BankSelector {
    /// A fresh selector. It starts as if the two previous predictions
    /// both read bank 0, the start state every interleaved golden table
    /// was produced with.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the bank for the next predicted branch.
    pub fn bank(&mut self, pc: u64) -> u8 {
        let mut b = ((pc >> 2) & 3) as i8;
        while b == self.last[0] || b == self.last[1] {
            b = (b + 1) & 3;
        }
        self.last[1] = self.last[0];
        self.last[0] = b;
        b as u8
    }

    /// Notes an unconditional branch (no predictor access, `b(Z) = -1`).
    pub fn note_uncond(&mut self) {
        self.last[1] = self.last[0];
        self.last[0] = -1;
    }
}

/// Maps a monolithic table index onto a 4-bank interleaved layout:
/// the top two index bits are replaced by the bank number. The entry
/// count is unchanged, but the same (PC, history) pair now reaches a
/// different entry depending on the bank — up to four entries must be
/// trained per branch context (§4.3's accuracy cost).
///
/// # Panics
///
/// Panics if `size_bits < 2` or `bank >= 4`.
///
/// # Example
///
/// ```
/// let i = tage::banking::interleaved_index(0x3FF, 2, 10);
/// assert_eq!(i >> 8, 2); // bank in the top two bits
/// ```
#[inline]
pub fn interleaved_index(index: usize, bank: u8, size_bits: u32) -> usize {
    assert!(size_bits >= 2, "table too small to interleave");
    assert!(bank < BANKS, "bank out of range");
    let inner = index & ((1usize << (size_bits - 2)) - 1);
    ((bank as usize) << (size_bits - 2)) | inner
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_consecutive_banks_differ() {
        let mut sel = BankSelector::new();
        let mut rng = simkit::rng::Xoshiro256::seed_from(1);
        let mut prev2: Vec<u8> = vec![];
        for _ in 0..10_000 {
            let b = sel.bank(rng.next_u64());
            if prev2.len() == 2 {
                assert_ne!(b, prev2[0]);
                assert_ne!(b, prev2[1]);
                prev2.remove(0);
            }
            prev2.push(b);
        }
    }

    #[test]
    fn unconditional_frees_a_slot() {
        let mut sel = BankSelector::new();
        let b1 = sel.bank(0x0);
        sel.note_uncond();
        // Only b1 is excluded now.
        let b2 = sel.bank(0x0);
        assert_ne!(b1, b2);
    }

    #[test]
    fn bank_distribution_is_balanced() {
        let mut sel = BankSelector::new();
        let mut rng = simkit::rng::Xoshiro256::seed_from(2);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[sel.bank(rng.next_u64()) as usize] += 1;
        }
        for &c in &counts {
            assert!((8000..12000).contains(&c), "bank imbalance: {counts:?}");
        }
    }

    #[test]
    fn interleaved_index_preserves_range() {
        for bank in 0..4u8 {
            for idx in [0usize, 1, 511, 1023] {
                let m = interleaved_index(idx, bank, 10);
                assert!(m < 1024);
                assert_eq!(m >> 8, bank as usize);
            }
        }
    }

    #[test]
    #[should_panic]
    fn interleaving_rejects_tiny_tables() {
        let _ = interleaved_index(0, 0, 1);
    }
}
