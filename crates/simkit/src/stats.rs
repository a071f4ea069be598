//! Predictor-table access accounting.
//!
//! Section 4 of the paper argues the TAGE predictor's hardware cost case in
//! units of *predictor accesses per retired branch*:
//!
//! * a **read** is one parallel lookup of all predictor tables (what the
//!   fetch stage does once per prediction, and what the retire stage may do
//!   again to recompute the update);
//! * a **write** is one *effective* (non-silent) entry write — the paper
//!   eliminates silent updates, i.e. writes that would store the value the
//!   entry already holds.
//!
//! [`AccessStats`] tracks both, plus the silent writes avoided, so the
//! harness can reproduce §4.1.1 ("2.17 effective writes per misprediction")
//! and §4.2 ("1.13 accesses per retired branch").

/// Running predictor access counters.
///
/// # Example
///
/// ```
/// use simkit::stats::AccessStats;
///
/// let mut s = AccessStats::default();
/// s.predict_reads += 1;
/// s.effective_writes += 2;
/// s.silent_writes_avoided += 5;
/// assert_eq!(s.total_accesses(), 3);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Full-predictor reads performed at prediction (fetch) time.
    pub predict_reads: u64,
    /// Full-predictor reads performed at retire time (scenario [A] always,
    /// scenario [C] only on mispredictions, scenario [B] never).
    pub retire_reads: u64,
    /// Entry writes that changed the stored value.
    pub effective_writes: u64,
    /// Entry writes skipped because the stored value was already equal
    /// (silent updates, §4.1.1).
    pub silent_writes_avoided: u64,
}

impl AccessStats {
    /// All memory-array accesses actually performed.
    #[inline]
    pub fn total_accesses(&self) -> u64 {
        self.predict_reads + self.retire_reads + self.effective_writes
    }

    /// Total writes had silent updates not been eliminated.
    #[inline]
    pub fn raw_writes(&self) -> u64 {
        self.effective_writes + self.silent_writes_avoided
    }

    /// Fraction of writes that were silent (eliminated), in `[0, 1]`.
    /// Returns 0 when no write was attempted.
    pub fn silent_fraction(&self) -> f64 {
        let raw = self.raw_writes();
        if raw == 0 {
            0.0
        } else {
            self.silent_writes_avoided as f64 / raw as f64
        }
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &AccessStats) {
        self.predict_reads += other.predict_reads;
        self.retire_reads += other.retire_reads;
        self.effective_writes += other.effective_writes;
        self.silent_writes_avoided += other.silent_writes_avoided;
    }

    /// Records an entry write, counting it as effective only when the value
    /// changed. Returns true when the write was effective.
    #[inline]
    pub fn record_write(&mut self, changed: bool) -> bool {
        if changed {
            self.effective_writes += 1;
        } else {
            self.silent_writes_avoided += 1;
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let s = AccessStats {
            predict_reads: 100,
            retire_reads: 4,
            effective_writes: 9,
            silent_writes_avoided: 91,
        };
        assert_eq!(s.total_accesses(), 113);
        assert_eq!(s.raw_writes(), 100);
        assert!((s.silent_fraction() - 0.91).abs() < 1e-12);
    }

    #[test]
    fn silent_fraction_no_writes() {
        assert_eq!(AccessStats::default().silent_fraction(), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = AccessStats { predict_reads: 1, retire_reads: 2, effective_writes: 3, silent_writes_avoided: 4 };
        let b = AccessStats { predict_reads: 10, retire_reads: 20, effective_writes: 30, silent_writes_avoided: 40 };
        a.merge(&b);
        assert_eq!(a.predict_reads, 11);
        assert_eq!(a.retire_reads, 22);
        assert_eq!(a.effective_writes, 33);
        assert_eq!(a.silent_writes_avoided, 44);
    }

    #[test]
    fn record_write_classifies() {
        let mut s = AccessStats::default();
        assert!(s.record_write(true));
        assert!(!s.record_write(false));
        assert_eq!(s.effective_writes, 1);
        assert_eq!(s.silent_writes_avoided, 1);
    }
}
