//! Order statistics for the benchmark's reported figures. (The
//! run-to-run quartile spread is computed by `spread.py`, with the same
//! `statistics.quantiles` rule the acceptance check uses.)

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. Returns 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `p` percentile.
pub fn beyond(values: &[f64], p: f64) -> usize {
    let cut = percentile(values, p);
    values.iter().filter(|&&x| x > cut).count()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Rank ceil(0.95 * 21) = 20: the 20th smallest, not interpolated.
        let w: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&w, 95.0), 20.0);
    }

    #[test]
    fn two_hundred_samples_leave_ten_beyond_p95() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(beyond(&v, 95.0), 10);
        // 199 samples leave only 9: the serving workload needs >= 200.
        assert_eq!(beyond(&v[..199], 95.0), 9);
    }

    #[test]
    fn ties_at_the_cut_are_not_beyond() {
        assert_eq!(beyond(&[1.0, 2.0, 2.0, 2.0], 50.0), 0);
    }
}
