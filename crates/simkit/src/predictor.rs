//! The predictor lifecycle trait shared by every predictor in the workspace.
//!
//! A hardware branch predictor interacts with the pipeline at three points,
//! and §4 of the paper is entirely about what state flows between them:
//!
//! 1. **fetch** — the predictor is *read* and produces a direction; the
//!    speculative global history is extended (and repaired on a
//!    misprediction, so on the correct path it is always exact — the paper
//!    leans on this in §5.1);
//! 2. **execute** — the branch outcome becomes known to the hardware (the
//!    IUM consumes this event);
//! 3. **retire** — the predictor tables are *updated*; depending on the
//!    update scenario the update is computed from a fresh read ([A]), from
//!    the values read at fetch and carried with the branch ([B]), or from a
//!    fresh read only after mispredictions ([C]).
//!
//! The [`Predictor`] trait mirrors exactly this lifecycle. The associated
//! [`Predictor::Flight`] type is the bundle of information a real pipeline
//! would propagate with each in-flight branch (indices, tags read, counter
//! values read, side-predictor decisions).

use crate::stats::AccessStats;

/// Classification of a control-flow instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch — the only kind that is *predicted* here.
    Conditional,
    /// Unconditional direct jump.
    DirectJump,
    /// Indirect jump.
    IndirectJump,
    /// Function call.
    Call,
    /// Function return.
    Return,
}

impl BranchKind {
    /// True for the conditional direct branches the predictors predict.
    #[inline]
    pub fn is_conditional(self) -> bool {
        matches!(self, BranchKind::Conditional)
    }
}

/// Static information about a branch presented to the predictor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchInfo {
    /// Instruction address.
    pub pc: u64,
    /// Branch class.
    pub kind: BranchKind,
    /// Branch target (used only for path-style hashing).
    pub target: u64,
}

impl BranchInfo {
    /// Convenience constructor for a conditional branch.
    pub fn conditional(pc: u64) -> Self {
        Self { pc, kind: BranchKind::Conditional, target: 0 }
    }
}

/// The four predictor-update scenarios of §4.1.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UpdateScenario {
    /// `[I]` — oracle immediate update at fetch time (upper bound).
    Immediate,
    /// `[A]` — tables re-read at retire and the update recomputed from
    /// fresh values: 3 accesses per branch (read, read, write).
    RereadAtRetire,
    /// `[B]` — tables read only at fetch; the update is computed from the
    /// (possibly stale) values carried with the branch: at most 1 read + 1
    /// write per branch.
    FetchOnly,
    /// `[C]` — like `[B]`, but mispredicted branches re-read the tables at
    /// retire: 2 reads only on mispredictions.
    RereadOnMispredict,
}

impl UpdateScenario {
    /// All four scenarios in paper order `[I] [A] [B] [C]`.
    pub const ALL: [UpdateScenario; 4] = [
        UpdateScenario::Immediate,
        UpdateScenario::RereadAtRetire,
        UpdateScenario::FetchOnly,
        UpdateScenario::RereadOnMispredict,
    ];

    /// Should the retire-time update use freshly re-read table values
    /// (true) or the values captured at prediction time (false)?
    ///
    /// `Immediate` answers true: the pipeline invokes retire with zero
    /// delay, so "fresh" values are exactly the immediate-update values.
    #[inline]
    pub fn reread_at_retire(self, mispredicted: bool) -> bool {
        match self {
            UpdateScenario::Immediate | UpdateScenario::RereadAtRetire => true,
            UpdateScenario::FetchOnly => false,
            UpdateScenario::RereadOnMispredict => mispredicted,
        }
    }

    /// Does the retire-time update cost a *retire read* predictor access?
    /// (`Immediate` is an oracle — it does not model extra accesses.)
    #[inline]
    pub fn counts_retire_read(self, mispredicted: bool) -> bool {
        match self {
            UpdateScenario::Immediate => false,
            UpdateScenario::RereadAtRetire => true,
            UpdateScenario::FetchOnly => false,
            UpdateScenario::RereadOnMispredict => mispredicted,
        }
    }

    /// Short paper label: `I`, `A`, `B` or `C`.
    pub fn label(self) -> &'static str {
        match self {
            UpdateScenario::Immediate => "I",
            UpdateScenario::RereadAtRetire => "A",
            UpdateScenario::FetchOnly => "B",
            UpdateScenario::RereadOnMispredict => "C",
        }
    }
}

impl std::fmt::Display for UpdateScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}]", self.label())
    }
}

/// The predictor lifecycle.
///
/// The simulation engine (`pipeline` crate) drives implementations through
/// `predict → fetch_commit → execute → retire`, with `execute` and `retire`
/// delayed by the in-flight window, reproducing the delayed-update behaviour
/// the paper studies. A functional (no-pipeline) simulation simply calls the
/// four methods back-to-back with [`UpdateScenario::Immediate`].
///
/// # Example
///
/// Driving any predictor functionally:
///
/// ```
/// use simkit::{BranchInfo, Predictor, UpdateScenario};
///
/// fn run<P: Predictor>(p: &mut P, stream: &[(u64, bool)]) -> u64 {
///     let mut mispredicts = 0;
///     for &(pc, outcome) in stream {
///         let b = BranchInfo::conditional(pc);
///         let (pred, mut flight) = p.predict(&b);
///         if pred != outcome { mispredicts += 1; }
///         p.fetch_commit(&b, outcome, &mut flight);
///         p.execute(&b, outcome, &mut flight);
///         p.retire(&b, outcome, pred, flight, UpdateScenario::Immediate);
///     }
///     mispredicts
/// }
/// ```
pub trait Predictor {
    /// Per-in-flight-branch state: everything read at prediction time that
    /// a real pipeline would carry with the branch to retire.
    type Flight;

    /// Human-readable name including the configuration (for reports).
    fn name(&self) -> String;

    /// Total predictor storage in bits (tables + side structures), the
    /// budget axis of Figure 9.
    fn storage_bits(&self) -> u64;

    /// Fetch-time prediction of a conditional branch. Reads the tables
    /// (one `predict_read`) and returns the predicted direction plus the
    /// in-flight snapshot.
    fn predict(&mut self, b: &BranchInfo) -> (bool, Self::Flight);

    /// Called immediately after [`Predictor::predict`] with the resolved
    /// outcome: extends the speculative histories (global, path, local,
    /// loop iteration, IUM). Because trace-driven simulation only ever
    /// follows the correct path and the paper repairs histories immediately
    /// on mispredictions (§5.1), updating speculative history with the
    /// actual outcome is exact, not an approximation.
    fn fetch_commit(&mut self, b: &BranchInfo, outcome: bool, flight: &mut Self::Flight);

    /// The branch has executed: its outcome is now known to the hardware.
    /// Default: no-op. The IUM overrides this.
    fn execute(&mut self, b: &BranchInfo, outcome: bool, flight: &mut Self::Flight) {
        let _ = (b, outcome, flight);
    }

    /// The branch retires: update the predictor tables according to
    /// `scenario`. `predicted` is the direction produced at fetch time
    /// (after any side-predictor overrides), so the implementation can tell
    /// whether this branch was mispredicted.
    fn retire(
        &mut self,
        b: &BranchInfo,
        outcome: bool,
        predicted: bool,
        flight: Self::Flight,
        scenario: UpdateScenario,
    );

    /// A non-conditional control-flow instruction passed the front-end:
    /// predictors may fold it into path history. Default: no-op.
    fn note_uncond(&mut self, b: &BranchInfo) {
        let _ = b;
    }

    /// Access counters accumulated so far.
    fn stats(&self) -> AccessStats;

    /// Clears the access counters (e.g. after warm-up).
    fn reset_stats(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_reread_rules() {
        use UpdateScenario::*;
        for m in [false, true] {
            assert!(Immediate.reread_at_retire(m));
            assert!(RereadAtRetire.reread_at_retire(m));
            assert!(!FetchOnly.reread_at_retire(m));
        }
        assert!(!RereadOnMispredict.reread_at_retire(false));
        assert!(RereadOnMispredict.reread_at_retire(true));
    }

    #[test]
    fn scenario_read_accounting_rules() {
        use UpdateScenario::*;
        for m in [false, true] {
            assert!(!Immediate.counts_retire_read(m));
            assert!(RereadAtRetire.counts_retire_read(m));
            assert!(!FetchOnly.counts_retire_read(m));
        }
        assert!(!RereadOnMispredict.counts_retire_read(false));
        assert!(RereadOnMispredict.counts_retire_read(true));
    }

    #[test]
    fn scenario_labels() {
        let labels: Vec<&str> = UpdateScenario::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["I", "A", "B", "C"]);
        assert_eq!(format!("{}", UpdateScenario::FetchOnly), "[B]");
    }

    #[test]
    fn branch_info_conditional() {
        let b = BranchInfo::conditional(0x40_0000);
        assert!(b.kind.is_conditional());
        assert_eq!(b.pc, 0x40_0000);
    }

    #[test]
    fn branch_kind_classes() {
        assert!(BranchKind::Conditional.is_conditional());
        for k in [BranchKind::DirectJump, BranchKind::IndirectJump, BranchKind::Call, BranchKind::Return] {
            assert!(!k.is_conditional());
        }
    }
}
