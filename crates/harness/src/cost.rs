//! Analytical silicon area and access-energy model — the CACTI 6.5
//! substitute (see DESIGN.md §1) that E04 and E13 print under their
//! tables.
//!
//! The paper uses CACTI only for ratios: "for the range of memory array
//! sizes used in branch predictors (1KB to 64KB) and for equal capacity
//! the area of a 3-port memory array is 3–4 times larger than a
//! single-ported memory array, while the energy dissipated per access is
//! about 25–30 % higher" (§4), and bank-interleaving "allows to reduce
//! the silicon area by approximately a factor 3.3 and to approximately
//! halve the power consumption per predictor read access" (§7.1).
//!
//! This model is calibrated to those published ratios:
//!
//! * cell area grows quadratically with port count (each port adds a
//!   wordline and a bitline pair): `area ∝ bits · (0.7 + 0.3·p²)`
//!   normalized so 1 port = 1.0 — giving 3-port ≈ 3.4×;
//! * a banked array pays ~5 % area overhead for decoders/sense-amp
//!   duplication but activates only one bank per access;
//! * energy per access ∝ `sqrt(active_bits)` (bitline+wordline length)
//!   times a port factor of `1 + 0.14·(p-1)` — giving 3-port ≈ 1.28×.

/// Relative area of an array of `bits` cells with `ports` ports
/// (arbitrary units: 1.0 per bit at one port).
///
/// # Panics
///
/// Panics if `ports` is 0.
pub fn array_area(bits: u64, ports: u32) -> f64 {
    assert!(ports >= 1, "a memory array needs at least one port");
    let port_factor = 0.7 + 0.3 * (ports as f64) * (ports as f64);
    bits as f64 * port_factor
}

/// Relative area of the same capacity split into `banks` single-ported
/// banks (5 % overhead per extra bank for duplicated periphery).
pub fn banked_area(bits: u64, banks: u32) -> f64 {
    assert!(banks >= 1);
    // ~5 % periphery duplication overhead spread across the extra banks.
    array_area(bits, 1) * (1.0 + 0.05 * (banks.saturating_sub(1)) as f64 / banks as f64)
}

/// Relative energy of one access to an array of `bits` cells with
/// `ports` ports.
///
/// # Panics
///
/// Panics if `ports` is 0.
pub fn access_energy(bits: u64, ports: u32) -> f64 {
    assert!(ports >= 1);
    (bits as f64).sqrt() * (1.0 + 0.14 * (ports as f64 - 1.0))
}

/// Relative energy of one access to the same capacity banked `banks`
/// ways (only one bank's bitlines are activated).
pub fn banked_access_energy(bits: u64, banks: u32) -> f64 {
    assert!(banks >= 1);
    access_energy(bits / u64::from(banks).max(1), 1) * 1.15 // bank routing overhead
}

/// Side-by-side comparison of a 3-ported monolithic implementation and a
/// 4-way banked single-ported one, for a predictor of `bits` total.
#[derive(Clone, Copy, Debug)]
pub struct CostComparison {
    /// Predictor storage in bits.
    pub bits: u64,
    /// Area of the 3-port monolithic arrays.
    pub area_3port: f64,
    /// Area of the 4-way banked single-port arrays.
    pub area_banked: f64,
    /// Energy per access, 3-port.
    pub energy_3port: f64,
    /// Energy per access, banked.
    pub energy_banked: f64,
}

impl CostComparison {
    /// Builds the comparison for a predictor of `bits` storage.
    pub fn for_predictor(bits: u64) -> Self {
        Self {
            bits,
            area_3port: array_area(bits, 3),
            area_banked: banked_area(bits, 4),
            energy_3port: access_energy(bits, 3),
            energy_banked: banked_access_energy(bits, 4),
        }
    }

    /// Area reduction factor from banking (§7.1 reports ≈ 3.3×).
    pub fn area_reduction(&self) -> f64 {
        self.area_3port / self.area_banked
    }

    /// Energy reduction factor per read access (§7.1 reports ≈ 2×).
    pub fn energy_reduction(&self) -> f64 {
        self.energy_3port / self.energy_banked
    }

    /// The line E04 and E13 print under their tables.
    pub fn summary(&self) -> String {
        format!(
            "area reduction {:.1}x (paper ~3.3x) | read energy reduction {:.1}x (paper ~2x)",
            self.area_reduction(),
            self.energy_reduction()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_port_area_in_paper_band() {
        // §4: 3-port is 3–4× the area of single-port at equal capacity.
        let ratio = array_area(1 << 19, 3) / array_area(1 << 19, 1);
        assert!((3.0..4.0).contains(&ratio), "ratio {ratio}");
        assert!((3.3..3.5).contains(&ratio), "calibrated to ~3.4: {ratio}");
    }

    #[test]
    fn three_port_energy_in_paper_band() {
        // §4: ~25–30 % more energy per access.
        let ratio = access_energy(1 << 19, 3) / access_energy(1 << 19, 1);
        assert!((1.25..1.30).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn banking_area_reduction_near_3_3() {
        let c = CostComparison::for_predictor(512 * 1024);
        let r = c.area_reduction();
        assert!((3.0..3.7).contains(&r), "area reduction {r}");
    }

    #[test]
    fn banking_halves_read_energy() {
        let c = CostComparison::for_predictor(512 * 1024);
        let r = c.energy_reduction();
        assert!((1.8..2.6).contains(&r), "energy reduction {r}");
    }

    #[test]
    fn area_scales_linearly_with_bits() {
        assert!((array_area(2000, 1) / array_area(1000, 1) - 2.0).abs() < 1e-9);
    }
}
