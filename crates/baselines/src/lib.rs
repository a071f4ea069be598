//! Baseline branch predictors the paper compares TAGE against.
//!
//! * [`bimodal`] — PC-indexed 2-bit counters; the Figure 3 running example
//!   and the minimum-viable predictor.
//! * [`gshare`] — McFarling's gshare, the paper's "first generation"
//!   representative (512 Kbit in §4).
//! * [`gehl`] — the GEHL adder-tree predictor, the paper's "neural
//!   inspired" representative (520 Kbit, 13 tables × 8K × 5-bit, (6,2000)
//!   geometric histories, §4.1.1).
//! * [`snap`] — a scaled piecewise-linear neural predictor standing in for
//!   OH-SNAP (3rd CBP, §6.3).
//! * [`ftl`] — a fused global+local GEHL standing in for FTL++ (3rd CBP,
//!   §6.3).
//!
//! All predictors implement [`simkit::Predictor`], including full support
//! for the §4.1.2 delayed-update scenarios `[I]/[A]/[B]/[C]` and access
//! accounting with silent-update elimination.

#![forbid(unsafe_code)]

pub mod bimodal;
pub mod ftl;
pub mod gehl;
pub mod gshare;
pub mod snap;

pub use bimodal::Bimodal;
pub use ftl::Ftl;
pub use gehl::Gehl;
pub use gshare::Gshare;
pub use snap::Snap;

/// Geometric history length series `L(i) = round(L1 * α^(i-1))` with
/// `L(count) = lmax`, as introduced for O-GEHL and reused by TAGE (§3).
///
/// Returns `count` lengths, the first equal to `l1`, the last to `lmax`.
///
/// # Panics
///
/// Panics if `count < 2`, `l1 == 0`, or `lmax <= l1`.
///
/// # Example
///
/// ```
/// let l = baselines::geometric_series(12, 6, 2000);
/// assert_eq!(l, vec![6, 10, 17, 29, 50, 84, 143, 242, 410, 696, 1179, 2000]);
/// ```
pub fn geometric_series(count: usize, l1: usize, lmax: usize) -> Vec<usize> {
    assert!(count >= 2, "geometric series needs at least 2 lengths");
    assert!(l1 >= 1 && lmax > l1, "invalid geometric series bounds");
    let alpha = (lmax as f64 / l1 as f64).powf(1.0 / (count as f64 - 1.0));
    (0..count)
        .map(|i| {
            let v = (l1 as f64 * alpha.powi(i as i32) + 0.5).floor() as usize;
            v.max(1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_series_endpoints() {
        for (n, l1, lmax) in [(12, 6, 2000), (8, 6, 1000), (5, 6, 500), (12, 3, 300), (12, 8, 5000)] {
            let s = geometric_series(n, l1, lmax);
            assert_eq!(s.len(), n);
            assert_eq!(s[0], l1);
            assert_eq!(*s.last().unwrap(), lmax);
            for w in s.windows(2) {
                assert!(w[1] > w[0], "series not strictly increasing: {s:?}");
            }
        }
    }

    #[test]
    fn geometric_series_matches_paper_sc_lengths() {
        // §5.3: the SC uses "the 4 shortest history lengths (0, 6, 10, 17)
        // as the main TAGE predictor" — i.e. the first three tagged
        // lengths of the (6,2000) series are 6, 10, 17.
        let s = geometric_series(12, 6, 2000);
        assert_eq!(&s[..3], &[6, 10, 17]);
    }

    #[test]
    #[should_panic]
    fn geometric_series_rejects_tiny() {
        let _ = geometric_series(1, 6, 2000);
    }
}
