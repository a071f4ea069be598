//! Branch behaviour models.
//!
//! Each static branch in a synthetic program owns a [`Behavior`] that
//! produces its next outcome. The behaviours map one-to-one onto the branch
//! classes the paper's predictor components target:
//!
//! | Behaviour | Paper section | Who captures it |
//! |---|---|---|
//! | [`Behavior::Bias`] | §5.3 | statistical corrector (wide counters) |
//! | [`Behavior::Pattern`] | §3, §6 | TAGE via global history when neighbours are quiet; **LSC via local history when neighbours are noisy** |
//! | [`Behavior::SparseCorr`] | §6.3 | neural predictors (OH-SNAP/FTL++-style); hostile to pure table lookup in noise |
//! | [`Behavior::HugePeriodic`] | Fig. 9 (CLIENT02) | only multi-megabit predictors |
//! | [`Behavior::Random`] | — | nobody (noise floor) |
//!
//! Loop-exit behaviour is produced structurally by
//! [`crate::program::Node::Loop`], not by a `Behavior`.

use simkit::rng::Xoshiro256;

/// Why a `0`/`1` pattern string failed to parse (see
/// [`Behavior::try_pattern_str`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatternError {
    /// The pattern string was empty.
    Empty,
    /// A character other than `'0'`/`'1'`.
    BadChar {
        /// The offending character.
        ch: char,
    },
}

impl std::fmt::Display for PatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatternError::Empty => write!(f, "pattern must not be empty"),
            PatternError::BadChar { ch } => {
                write!(f, "invalid pattern character {ch:?} (expected '0' or '1')")
            }
        }
    }
}

impl std::error::Error for PatternError {}

/// Number of recent conditional outcomes the generation context remembers
/// (for correlated behaviours). Must be a power of two.
const RING_BITS: usize = 2048;

/// Shared generation context: the RNG stream and the recent-outcome ring
/// that correlated behaviours read.
#[derive(Clone, Debug)]
pub struct GenCtx {
    /// Deterministic random stream for this trace.
    pub rng: Xoshiro256,
    ring: Vec<u64>,
    head: usize,
}

impl GenCtx {
    /// Creates a context seeded for one trace.
    pub fn new(seed: u64) -> Self {
        Self { rng: Xoshiro256::seed_from(seed), ring: vec![0; RING_BITS / 64], head: 0 }
    }

    /// Records a conditional outcome (newest first).
    #[inline]
    pub fn push_outcome(&mut self, taken: bool) {
        self.head = (self.head + RING_BITS - 1) % RING_BITS;
        let w = self.head / 64;
        let b = self.head % 64;
        if taken {
            self.ring[w] |= 1 << b;
        } else {
            self.ring[w] &= !(1 << b);
        }
    }

    /// Outcome of the conditional branch executed `lag` branches ago
    /// (`lag = 1` is the immediately preceding branch).
    ///
    /// # Panics
    ///
    /// Panics if `lag` is 0 or exceeds the ring capacity.
    #[inline]
    pub fn outcome_at(&self, lag: usize) -> bool {
        assert!((1..=RING_BITS).contains(&lag), "lag {lag} out of range");
        let pos = (self.head + lag - 1) % RING_BITS;
        (self.ring[pos / 64] >> (pos % 64)) & 1 == 1
    }
}

/// The outcome model of one static branch.
#[derive(Clone, Debug)]
pub enum Behavior {
    /// Independent Bernoulli draw: taken with probability `p`.
    /// Uncorrelated with any history — exactly the class the statistical
    /// corrector (§5.3) exists for.
    Bias {
        /// Probability of taken, in `[0, 1]`.
        p: f64,
    },
    /// Deterministic periodic pattern, repeated forever. With quiet
    /// neighbours its phase is visible in global history; with noisy
    /// neighbours it is only visible in *local* history (§6).
    Pattern {
        /// The repeating outcome sequence (period = `pattern.len()`).
        pattern: Vec<bool>,
        /// Current position.
        pos: usize,
    },
    /// Outcome equals the outcome of the branch executed `lag` branches
    /// ago, XOR `invert`, flipped with probability `noise`. A *sparse
    /// linear* correlation: perceptron-family predictors learn it through
    /// arbitrary interleaved noise, table-based predictors must memorize
    /// every noise combination (§6.3's "correlations not captured by
    /// TAGE-LSC").
    SparseCorr {
        /// How far back the correlated source branch is.
        lag: usize,
        /// Whether the correlation is inverted.
        invert: bool,
        /// Probability the deterministic outcome is flipped.
        noise: f64,
    },
    /// A pseudo-random but exactly repeating sequence with a very long
    /// period. Below the storage cliff no predictor captures it; with
    /// enough capacity TAGE memorizes the whole period (CLIENT02 in
    /// Figure 9 becomes predictable between 2 and 8 Mbits).
    HugePeriodic {
        /// The repeating sequence (tens of thousands of outcomes).
        pattern: Vec<bool>,
        /// Current position.
        pos: usize,
    },
    /// Fair coin — unpredictable noise floor.
    Random,
    /// A bias that *flips* every `phase` executions: taken with
    /// probability `p` for one phase, `1-p` for the next. Forces constant
    /// counter retraining — the dominant source of accuracy loss when
    /// updates are computed from stale fetch-time values (§4.1.2's
    /// scenario \[B\]).
    PhasedBias {
        /// Taken probability during even phases.
        p: f64,
        /// Executions per phase.
        phase: usize,
        /// Executions so far in the current phase.
        count: usize,
        /// Whether the bias is currently flipped.
        flipped: bool,
    },
}

impl Behavior {
    /// A huge periodic behaviour with `period` outcomes generated from
    /// `seed`.
    pub fn huge_periodic(period: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256::seed_from(seed);
        let pattern = (0..period).map(|_| rng.gen_bool(0.5)).collect();
        Behavior::HugePeriodic { pattern, pos: 0 }
    }

    /// A periodic pattern behaviour from a `0`/`1` string, e.g. `"1101"`,
    /// rejecting malformed inputs with a typed error (hand-authored
    /// recipes and external tooling route through this).
    ///
    /// # Errors
    ///
    /// Returns [`PatternError`] when `s` is empty or contains characters
    /// other than `'0'`/`'1'`.
    pub fn try_pattern_str(s: &str) -> Result<Self, PatternError> {
        if s.is_empty() {
            return Err(PatternError::Empty);
        }
        let pattern = s
            .chars()
            .map(|c| match c {
                '0' => Ok(false),
                '1' => Ok(true),
                other => Err(PatternError::BadChar { ch: other }),
            })
            .collect::<Result<Vec<bool>, PatternError>>()?;
        Ok(Behavior::Pattern { pattern, pos: 0 })
    }

    /// A periodic pattern behaviour from a compile-time-constant `0`/`1`
    /// string (the suite recipes use this).
    ///
    /// # Panics
    ///
    /// Panics if `s` is empty or contains characters other than '0'/'1';
    /// use [`Behavior::try_pattern_str`] for runtime inputs.
    pub fn pattern_str(s: &str) -> Self {
        // INVARIANT: callers pass literal recipe patterns; a malformed one
        // is a suite bug the first generation run fails loudly on.
        Self::try_pattern_str(s).unwrap_or_else(|e| panic!("pattern {s:?}: {e}"))
    }

    /// Produces the next outcome for this branch.
    pub fn next(&mut self, ctx: &mut GenCtx) -> bool {
        match self {
            Behavior::Bias { p } => ctx.rng.gen_bool(*p),
            Behavior::Pattern { pattern, pos } => {
                let out = pattern[*pos];
                *pos = (*pos + 1) % pattern.len();
                out
            }
            Behavior::SparseCorr { lag, invert, noise } => {
                let base = ctx.outcome_at(*lag) ^ *invert;
                if *noise > 0.0 && ctx.rng.gen_bool(*noise) {
                    !base
                } else {
                    base
                }
            }
            Behavior::HugePeriodic { pattern, pos } => {
                let out = pattern[*pos];
                *pos = (*pos + 1) % pattern.len();
                out
            }
            Behavior::Random => ctx.rng.gen_bool(0.5),
            Behavior::PhasedBias { p, phase, count, flipped } => {
                let eff = if *flipped { 1.0 - *p } else { *p };
                *count += 1;
                if *count >= *phase {
                    *count = 0;
                    *flipped = !*flipped;
                }
                ctx.rng.gen_bool(eff)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_records_and_reads() {
        let mut ctx = GenCtx::new(1);
        ctx.push_outcome(true);
        ctx.push_outcome(false);
        ctx.push_outcome(true);
        assert!(ctx.outcome_at(1)); // newest
        assert!(!ctx.outcome_at(2));
        assert!(ctx.outcome_at(3));
    }

    #[test]
    fn ring_wraps_around() {
        let mut ctx = GenCtx::new(2);
        for i in 0..RING_BITS + 5 {
            ctx.push_outcome(i % 2 == 0);
        }
        // Last pushed i = RING_BITS+4 (even => true).
        assert!(ctx.outcome_at(1));
        assert!(!ctx.outcome_at(2));
    }

    #[test]
    fn pattern_cycles() {
        let mut b = Behavior::pattern_str("110");
        let mut ctx = GenCtx::new(3);
        let outs: Vec<bool> = (0..6).map(|_| b.next(&mut ctx)).collect();
        assert_eq!(outs, [true, true, false, true, true, false]);
    }

    #[test]
    #[should_panic]
    fn pattern_rejects_bad_chars() {
        let _ = Behavior::pattern_str("10x");
    }

    #[test]
    fn try_pattern_returns_typed_errors() {
        assert_eq!(Behavior::try_pattern_str("").unwrap_err(), PatternError::Empty);
        assert_eq!(
            Behavior::try_pattern_str("10x").unwrap_err(),
            PatternError::BadChar { ch: 'x' }
        );
        // The first offending character wins.
        assert_eq!(
            Behavior::try_pattern_str("102").unwrap_err(),
            PatternError::BadChar { ch: '2' }
        );
        assert!(matches!(
            Behavior::try_pattern_str("0110"),
            Ok(Behavior::Pattern { ref pattern, pos: 0 }) if pattern == &[false, true, true, false]
        ));
        assert_eq!(
            PatternError::BadChar { ch: 'x' }.to_string(),
            "invalid pattern character 'x' (expected '0' or '1')"
        );
    }

    #[test]
    fn bias_calibration() {
        let mut b = Behavior::Bias { p: 0.8 };
        let mut ctx = GenCtx::new(4);
        let taken = (0..50_000).filter(|_| b.next(&mut ctx)).count();
        let frac = taken as f64 / 50_000.0;
        assert!((frac - 0.8).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn sparse_corr_follows_source_exactly_without_noise() {
        let mut ctx = GenCtx::new(5);
        let mut src = Behavior::Random;
        let mut dst = Behavior::SparseCorr { lag: 1, invert: false, noise: 0.0 };
        for _ in 0..1000 {
            let s = src.next(&mut ctx);
            ctx.push_outcome(s);
            let d = dst.next(&mut ctx);
            assert_eq!(d, s);
            ctx.push_outcome(d);
        }
    }

    #[test]
    fn sparse_corr_inverts() {
        let mut ctx = GenCtx::new(6);
        ctx.push_outcome(true);
        let mut b = Behavior::SparseCorr { lag: 1, invert: true, noise: 0.0 };
        assert!(!b.next(&mut ctx));
    }

    #[test]
    fn huge_periodic_repeats_exactly() {
        let mut b = Behavior::huge_periodic(1000, 42);
        let mut ctx = GenCtx::new(7);
        let first: Vec<bool> = (0..1000).map(|_| b.next(&mut ctx)).collect();
        let second: Vec<bool> = (0..1000).map(|_| b.next(&mut ctx)).collect();
        assert_eq!(first, second);
        // And it is not trivially constant.
        assert!(first.iter().any(|&x| x) && first.iter().any(|&x| !x));
    }

    #[test]
    fn phased_bias_flips_direction() {
        let mut b = Behavior::PhasedBias { p: 0.95, phase: 100, count: 0, flipped: false };
        let mut ctx = GenCtx::new(10);
        let first: usize = (0..100).filter(|_| b.next(&mut ctx)).count();
        let second: usize = (0..100).filter(|_| b.next(&mut ctx)).count();
        assert!(first > 80, "first phase should be taken-biased: {first}");
        assert!(second < 20, "second phase should be not-taken-biased: {second}");
    }

    #[test]
    fn deterministic_across_contexts() {
        let run = || {
            let mut ctx = GenCtx::new(99);
            let mut b = Behavior::Bias { p: 0.5 };
            (0..64).map(|_| b.next(&mut ctx)).collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }
}
