//! SimPoint-style phase sampling: representative slices combined into a
//! whole-trace estimate.
//!
//! Full simulation at CBP trace lengths (30M–1B branches) is the wrong
//! default: the standard technique is to simulate a handful of
//! skip/warmup/measure windows ([`crate::engine::SimWindow`]) placed
//! across the trace and combine their per-slice [`SimReport`]s into an
//! estimate of the full-run MPPKI/MPKI. The first (and so far only)
//! selector is [`fixed_interval`]: every k-th window of length
//! `warmup + measure`, with seeded deterministic jitter so slice starts
//! do not systematically align with program periodicity.
//!
//! Every slice of [`fixed_interval`] stands for the same number of trace
//! events, so the estimate is the ratio of *summed* slice counters: one
//! [`SampledResult::combined_report`] gives both the printed MPPKI and
//! the artifact row. Counters stay integers, and a float appears only at
//! the final ratio.

use crate::report::SimReport;
use simkit::rng::Xoshiro256;

/// One sampling phase: a measurement slice anchored at an absolute event
/// position. Every phase of [`fixed_interval`] stands for the same number
/// of trace events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Absolute event position (in total trace events) where the slice's
    /// warmup begins.
    pub start: u64,
}

/// The fixed-interval phase selector: `n` slices of `warmup + measure`
/// events, one per `total / n` interval, each jittered to a
/// deterministic, seed-dependent offset within its interval's slack.
///
/// Guarantees, for any inputs:
/// * deterministic — same `(total, n, warmup, measure, seed)` gives the
///   same phases;
/// * every slice starts within the trace, and within `total - len` when
///   the trace is long enough to hold a whole slice;
/// * every phase stands for the same interval of the trace, so summed
///   slice counters estimate the whole trace.
///
/// Returns fewer than `n` phases only when the trace has fewer than `n`
/// events; returns none for an empty trace or `n == 0`.
pub fn fixed_interval(total: u64, n: u64, warmup: u64, measure: u64, seed: u64) -> Vec<Phase> {
    if total == 0 || n == 0 {
        return Vec::new();
    }
    let n = n.min(total);
    let interval = total / n;
    let len = warmup.saturating_add(measure);
    let last_start = total.saturating_sub(len);
    let mut rng = Xoshiro256::seed_from(seed);
    (0..n)
        .map(|i| {
            // Jitter within the interval's slack after the slice itself;
            // the RNG is drawn unconditionally so phase positions stay a
            // pure function of (seed, i) regardless of slack.
            let slack = interval.saturating_sub(len);
            let jitter = rng.gen_range(slack + 1);
            Phase { start: (i * interval + jitter).min(last_start) }
        })
        .collect()
}

/// One simulated slice: the phase that placed it and the per-slice
/// report the engine produced for its measure region.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleSlice {
    /// The phase this slice realizes.
    pub phase: Phase,
    /// The slice's measure-region report.
    pub report: SimReport,
}

/// The combined result of a sampled run: per-slice reports whose summed
/// counters estimate the whole trace. No derived float is stored; ratios
/// are computed on demand from the summed counters.
#[derive(Clone, Debug, PartialEq)]
pub struct SampledResult {
    /// The simulated slices, in phase order.
    pub slices: Vec<SampleSlice>,
    /// Total events in the underlying trace (the population the sample
    /// estimates).
    pub total_events: u64,
}

impl SampledResult {
    /// Pairs phases with their per-slice reports. The two must line up
    /// one-to-one and in the same order (the sample driver produces them
    /// together).
    ///
    /// # Panics
    ///
    /// Panics when `phases` and `reports` disagree in length.
    pub fn combine(phases: &[Phase], reports: Vec<SimReport>, total_events: u64) -> Self {
        assert_eq!(phases.len(), reports.len(), "one report per phase");
        let slices = phases
            .iter()
            .zip(reports)
            .map(|(phase, report)| SampleSlice { phase: *phase, report })
            .collect();
        Self { slices, total_events }
    }

    /// The sampled whole-trace MPPKI estimate, `Σ penalty · 1000 / Σ uops`
    /// (0 for an empty sample).
    pub fn mppki(&self) -> f64 {
        self.combined_report().map_or(0.0, |r| r.mppki())
    }

    /// The sampled whole-trace MPKI estimate (0 for an empty sample).
    pub fn mpki(&self) -> f64 {
        self.combined_report().map_or(0.0, |r| r.mpki())
    }

    /// Events fed to a predictor across all slices (`warmup + measure`
    /// per slice, capped by the trace) — the simulated-event cost of the
    /// sampled run, against `total_events` for the full run.
    pub fn simulated_events(&self, warmup: u64, measure: u64) -> u64 {
        let len = warmup.saturating_add(measure);
        self.slices
            .iter()
            .map(|s| len.min(self.total_events.saturating_sub(s.phase.start)))
            .sum()
    }

    /// One report with the slice counters summed — the whole-trace
    /// estimate, and the shape the `tage.run/1` artifact rows store.
    /// Identification fields come from the first slice.
    ///
    /// Returns `None` for an empty sample.
    pub fn combined_report(&self) -> Option<SimReport> {
        let first = self.slices.first()?;
        let mut out = first.report.clone();
        for s in &self.slices[1..] {
            out.uops += s.report.uops;
            out.conditionals += s.report.conditionals;
            out.mispredicts += s.report.mispredicts;
            out.penalty_cycles += s.report.penalty_cycles;
            out.stats.merge(&s.report.stats);
        }
        out.branches = None;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::predictor::UpdateScenario;
    use simkit::stats::AccessStats;

    fn report(uops: u64, mispredicts: u64, penalty: u64) -> SimReport {
        SimReport {
            trace: "T".into(),
            category: "TEST".into(),
            predictor: "p".into(),
            scenario: UpdateScenario::RereadAtRetire,
            uops,
            conditionals: uops / 4,
            mispredicts,
            penalty_cycles: penalty,
            stats: AccessStats::default(),
            branches: None,
        }
    }

    #[test]
    fn fixed_interval_is_deterministic_and_in_bounds() {
        let a = fixed_interval(1_000_000, 10, 1000, 4000, 42);
        let b = fixed_interval(1_000_000, 10, 1000, 4000, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        for (i, p) in a.iter().enumerate() {
            assert!(p.start >= i as u64 * 100_000, "phase {i} before its interval");
            assert!(p.start < (i as u64 + 1) * 100_000, "phase {i} past its interval");
            assert!(p.start + 5000 <= 1_000_000, "phase {i} overruns the trace");
        }
        // A different seed moves the jitter but keeps the interval grid.
        let c = fixed_interval(1_000_000, 10, 1000, 4000, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn degenerate_selectors_are_safe() {
        assert!(fixed_interval(0, 10, 1, 1, 0).is_empty());
        assert!(fixed_interval(100, 0, 1, 1, 0).is_empty());
        // More phases than events: clamped, still in bounds.
        let p = fixed_interval(3, 10, 0, 1, 7);
        assert_eq!(p.len(), 3);
        assert!(p.iter().all(|p| p.start < 3));
        // Slice longer than the trace: anchored at 0.
        let p = fixed_interval(10, 2, 100, 100, 7);
        assert!(p.iter().all(|p| p.start == 0));
    }

    #[test]
    fn equal_weights_collapse_to_summed_counters() {
        let phases = [Phase { start: 0 }, Phase { start: 100 }];
        let s = SampledResult::combine(
            &phases,
            vec![report(1000, 10, 300), report(3000, 50, 1500)],
            200,
        );
        // The estimate is the ratio of the summed slice counters.
        let summed = s.combined_report().unwrap();
        assert_eq!(summed.uops, 4000);
        assert_eq!(summed.mispredicts, 60);
        assert_eq!(summed.penalty_cycles, 1800);
        assert_eq!(s.mppki(), 1800.0 * 1000.0 / 4000.0);
        assert_eq!(s.mpki(), 60.0 * 1000.0 / 4000.0);
    }

    #[test]
    fn empty_sample_has_no_combined_report() {
        let s = SampledResult::combine(&[], Vec::new(), 100);
        assert!(s.combined_report().is_none());
        assert_eq!(s.mppki(), 0.0);
    }
}
