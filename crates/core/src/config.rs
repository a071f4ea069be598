//! TAGE configuration and storage accounting.
//!
//! The reference predictor of §3.4 (64 KB CBP-3 budget):
//!
//! * 13 components: a bimodal base (32K prediction bits + 8K hysteresis
//!   bits) and 12 tagged tables;
//! * geometric history lengths (6, 2000):
//!   6, 10, 17, 29, 50, 84, 143, 242, 410, 696, 1179, 2000;
//! * table sizes: T1 2K; T2–T7 4K; T8–T9 2K; T10–T12 1K entries;
//! * tag widths `min(5+i, 15)` — the paper's prose says "max (6+i, 15)",
//!   which as written would be constantly 15; `min(5+i, 15)` is the unique
//!   assignment that reproduces the paper's own total of **65,408 bytes**
//!   (= 40,960 bimodal + 482,304 tagged bits);
//! * 3-bit prediction counters, 1 useful bit, up to 4 allocations on
//!   non-consecutive tables, one 4-bit `USE_ALT_ON_NA` counter, one 8-bit
//!   allocation-monitoring counter for global u-bit resets.

use simkit::history::HISTORY_CAPACITY;

/// Maximum number of tagged tables supported (fixed-size flight arrays).
pub const MAX_TAGGED: usize = 16;

/// log2 entries [`TageConfig::scaled`] keeps every table within.
const MIN_TABLE_BITS: i64 = 6;
const MAX_TABLE_BITS: i64 = 24;

/// Complete static configuration of a TAGE predictor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TageConfig {
    /// Number of tagged components (the predictor has `num_tagged + 1`
    /// components including the bimodal base).
    pub num_tagged: usize,
    /// Shortest tagged history length (6 in the reference).
    pub l1: usize,
    /// Longest tagged history length (2000 in the reference).
    pub lmax: usize,
    /// log2 of bimodal prediction entries (15 = 32K in the reference).
    pub bimodal_bits: u32,
    /// Hysteresis sharing shift: `2` means 4 prediction bits share one
    /// hysteresis bit (32K pred + 8K hyst in the reference).
    pub hysteresis_shift: u32,
    /// log2 entries of each tagged table, `T1..`.
    pub table_size_bits: Vec<u32>,
    /// Partial tag width of each tagged table.
    pub tag_widths: Vec<u8>,
    /// Prediction counter width (3 in the reference).
    pub ctr_bits: u8,
    /// Maximum entries allocated per misprediction (§3.2.1; up to 4).
    pub max_alloc: usize,
    /// Path history width used in index hashing.
    pub path_bits: u32,
}

impl TageConfig {
    /// The §3.4 reference predictor: 13 components, 65,408 bytes.
    pub fn reference_64kb() -> Self {
        let table_size_bits = vec![11, 12, 12, 12, 12, 12, 12, 11, 11, 10, 10, 10];
        let tag_widths = (1..=12).map(|i| (5 + i).min(15) as u8).collect();
        Self {
            num_tagged: 12,
            l1: 6,
            lmax: 2000,
            bimodal_bits: 15,
            hysteresis_shift: 2,
            table_size_bits,
            tag_widths,
            ctr_bits: 3,
            max_alloc: 4,
            path_bits: 16,
        }
    }

    /// The TAGE core of the 512 Kbit TAGE-LSC (§6.1): the reference
    /// predictor with table T7 reduced to 2K entries to make room for the
    /// LSC components.
    pub fn tage_lsc_core() -> Self {
        let mut cfg = Self::reference_64kb();
        cfg.table_size_bits[6] = 11; // T7: 4K → 2K entries
        cfg
    }

    /// A balanced configuration with `num_tagged` tables and (l1, lmax)
    /// geometric histories, sized so total tagged entries roughly match the
    /// reference predictor (for the §6.2 table-count ablation).
    pub fn balanced(num_tagged: usize, l1: usize, lmax: usize) -> Self {
        assert!((2..=MAX_TAGGED).contains(&num_tagged), "tagged table count out of range");
        let reference_entries: u64 = Self::reference_64kb()
            .table_size_bits
            .iter()
            .map(|&b| 1u64 << b)
            .sum();
        let per_table = (reference_entries / num_tagged as u64).max(64);
        // Round down to a power of two so the budget never exceeds ~2x.
        let size_bits = (63 - per_table.leading_zeros()).max(6);
        Self {
            num_tagged,
            l1,
            lmax,
            bimodal_bits: 15,
            hysteresis_shift: 2,
            table_size_bits: vec![size_bits; num_tagged],
            tag_widths: (1..=num_tagged)
                .map(|i| (5 + (i * 12).div_ceil(num_tagged)).min(15) as u8)
                .collect(),
            ctr_bits: 3,
            max_alloc: 4,
            path_bits: 16,
        }
    }

    /// Scales every table (bimodal and tagged) by `2^log2_delta` entries,
    /// clamping each to 2^6..=2^24 entries — the Figure 9 size sweep.
    /// Specs stay inside [`TageConfig::scale_range`], where nothing clamps.
    pub fn scaled(&self, log2_delta: i32) -> Self {
        let mut cfg = self.clone();
        let adj = |bits: u32| -> u32 {
            (bits as i64 + i64::from(log2_delta)).clamp(MIN_TABLE_BITS, MAX_TABLE_BITS) as u32
        };
        cfg.bimodal_bits = adj(self.bimodal_bits);
        for b in &mut cfg.table_size_bits {
            *b = adj(*b);
        }
        cfg
    }

    /// The `log2_delta`s under which [`TageConfig::scaled`] clamps no
    /// table, bimodal or tagged: −4..=9 for the reference predictor, whose
    /// tables span 2^10..=2^15 entries.
    pub fn scale_range(&self) -> std::ops::RangeInclusive<i32> {
        let bits = || {
            self.table_size_bits.iter().chain([&self.bimodal_bits]).map(|&b| i64::from(b))
        };
        let smallest = bits().min().unwrap_or(MIN_TABLE_BITS);
        let largest = bits().max().unwrap_or(MAX_TABLE_BITS);
        (MIN_TABLE_BITS - smallest) as i32..=(MAX_TABLE_BITS - largest) as i32
    }

    /// Replaces the geometric history bounds (the §6.2 history ablation).
    pub fn with_history(mut self, l1: usize, lmax: usize) -> Self {
        self.l1 = l1;
        self.lmax = lmax;
        self
    }

    /// The geometric history length of tagged table `i` (0-based).
    pub fn history_lengths(&self) -> Vec<usize> {
        baseline_series(self.num_tagged, self.l1, self.lmax)
    }

    /// Total predictor storage in bits.
    pub fn storage_bits(&self) -> u64 {
        let bimodal = (1u64 << self.bimodal_bits)
            + (1u64 << (self.bimodal_bits - self.hysteresis_shift));
        let tagged: u64 = self
            .table_size_bits
            .iter()
            .zip(&self.tag_widths)
            .map(|(&sz, &tag)| (1u64 << sz) * (u64::from(self.ctr_bits) + 1 + u64::from(tag)))
            .sum();
        bimodal + tagged
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the table lists disagree with `num_tagged`, the counter
    /// width is out of range, or the history series is degenerate or
    /// reaches past the global history's capacity.
    pub fn validate(&self) {
        assert!((1..=MAX_TAGGED).contains(&self.num_tagged));
        assert_eq!(self.table_size_bits.len(), self.num_tagged, "table size list length");
        assert_eq!(self.tag_widths.len(), self.num_tagged, "tag width list length");
        assert!((2..=8).contains(&self.ctr_bits), "counter width");
        assert!(self.l1 >= 1 && self.lmax > self.l1, "history bounds");
        assert!(self.lmax < HISTORY_CAPACITY, "history length {} past the global history", self.lmax);
        assert!(self.bimodal_bits >= self.hysteresis_shift);
        assert!((1..=8).contains(&self.max_alloc), "allocation count");
        for &t in &self.tag_widths {
            assert!((4..=16).contains(&t), "tag width {t} out of range");
        }
    }
}

impl Default for TageConfig {
    fn default() -> Self {
        Self::reference_64kb()
    }
}

/// Geometric series helper (duplicated from `baselines` to keep the core
/// crate dependency-free of the baselines crate).
fn baseline_series(count: usize, l1: usize, lmax: usize) -> Vec<usize> {
    assert!(count >= 2 && l1 >= 1 && lmax > l1);
    let alpha = (lmax as f64 / l1 as f64).powf(1.0 / (count as f64 - 1.0));
    (0..count).map(|i| ((l1 as f64 * alpha.powi(i as i32) + 0.5).floor() as usize).max(1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_paper_byte_total() {
        let cfg = TageConfig::reference_64kb();
        cfg.validate();
        // §3.4: "a total of 65,408 bytes of storage".
        assert_eq!(cfg.storage_bits(), 65_408 * 8);
    }

    #[test]
    fn reference_history_series_matches_paper() {
        let cfg = TageConfig::reference_64kb();
        assert_eq!(
            cfg.history_lengths(),
            vec![6, 10, 17, 29, 50, 84, 143, 242, 410, 696, 1179, 2000]
        );
    }

    #[test]
    fn reference_tag_widths() {
        let cfg = TageConfig::reference_64kb();
        assert_eq!(cfg.tag_widths, vec![6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 15, 15]);
    }

    #[test]
    fn lsc_core_saves_t7_bits() {
        let r = TageConfig::reference_64kb();
        let c = TageConfig::tage_lsc_core();
        // T7 entry = 3 + 1 + 12 = 16 bits; halving 4K → 2K saves 32K bits
        // (the paper rounds this to "34K storage bits").
        assert_eq!(r.storage_bits() - c.storage_bits(), 2048 * 16);
    }

    #[test]
    fn scaling_moves_budget_by_powers_of_two() {
        let cfg = TageConfig::reference_64kb();
        let up = cfg.scaled(1);
        assert_eq!(up.storage_bits(), cfg.storage_bits() * 2);
        let down = cfg.scaled(-2);
        // 1K tables clamp nowhere at -2 (min 64 entries = 6 bits; 10-2=8 ok).
        assert_eq!(down.storage_bits(), cfg.storage_bits() / 4);
    }

    #[test]
    fn scaling_clamps_at_64_entries() {
        let cfg = TageConfig::reference_64kb().scaled(-5);
        assert!(cfg.table_size_bits.iter().all(|&b| b >= 6));
    }

    #[test]
    fn balanced_configs_validate() {
        for (n, l1, lmax) in [(8, 6, 1000), (5, 6, 500), (12, 3, 300), (12, 4, 1000), (12, 8, 5000)] {
            let cfg = TageConfig::balanced(n, l1, lmax);
            cfg.validate();
            assert_eq!(cfg.history_lengths().len(), n);
            assert_eq!(*cfg.history_lengths().last().unwrap(), lmax);
        }
    }

    #[test]
    fn balanced_budget_in_reference_class() {
        // The ablation configs should stay within ~2x of the reference
        // budget so §6.2 comparisons are fair.
        let r = TageConfig::reference_64kb().storage_bits() as f64;
        for n in [5, 8, 12] {
            let b = TageConfig::balanced(n, 6, 1000).storage_bits() as f64;
            assert!((0.5..2.0).contains(&(b / r)), "budget ratio {}", b / r);
        }
    }

    #[test]
    #[should_panic]
    fn validate_rejects_mismatched_lists() {
        let mut cfg = TageConfig::reference_64kb();
        cfg.table_size_bits.pop();
        cfg.validate();
    }
}
