//! The chooser: TAGE's arbitration between provider and alternate.
//!
//! A TAGE lookup produces *two* candidate directions: the prediction of
//! the longest hitting component (the *provider*) and the prediction
//! that would have been used on a provider miss (the *alternate* — the
//! next hitting component, or the base predictor). Which one steers the
//! pipeline is a policy (§3.1). The paper's policy is `USE_ALT_ON_NA`: a
//! single 4-bit counter learning whether weak ("possibly newly
//! allocated") provider entries should defer to their alternates.
//! [`Chooser`] implements it plus three ablation policies selectable
//! from the spec grammar (`tage(chooser=...)`):
//!
//! | token     | policy |
//! |-----------|--------|
//! | `altweak` | §3.1 `USE_ALT_ON_NA` (default) |
//! | `always`  | always trust the provider (the no-chooser baseline) |
//! | `conf`    | confidence-weighted: trust whichever source counter is stronger |
//! | `table`   | per-PC 2-bit counter table — `USE_ALT_ON_NA` selected by branch address (ISL-TAGE keeps several such counters) |
//!
//! `altweak` and `table` apply the same rule to different counter sets:
//! one global counter, or 1,024 counters selected by a folded PC.
//!
//! Two rules keep the policies honest: [`Chooser::choose`] is a **pure
//! read** (the predictor calls it at fetch), and [`Chooser::update`]
//! learns from the *retire-time* view (possibly re-read under scenarios
//! \[I\]/\[A\]/mispredicted \[C\]), as the paper's counter does.
//!
//! Choosers report **table** storage only: the paper's 4-bit
//! `USE_ALT_ON_NA` counter is control state (like the allocation tick
//! counter and the LFSR), excluded from §3.4's 65,408-byte figure — so
//! `altweak`, `always` and `conf` budget at 0 bits. `table` is the
//! exception: its per-PC counter array is real indexed storage and
//! budgets like any other table ([`Chooser::TABLE_STORAGE_BITS`]).

use simkit::counter::SignedCounter;

/// Everything a chooser may consult: the provider/alternate reads of one
/// lookup, pre-digested so policies stay table-layout agnostic.
#[derive(Clone, Copy, Debug)]
pub struct ChooserView {
    /// The branch's instruction address — the index for per-PC policies
    /// (ISL-TAGE keeps several `USE_ALT_ON_NA` counters selected by PC).
    pub pc: u64,
    /// Whether a tagged component hit (false: the base predictor provides,
    /// and `provider_pred == alt_pred`).
    pub has_provider: bool,
    /// The providing component's prediction.
    pub provider_pred: bool,
    /// The alternate prediction.
    pub alt_pred: bool,
    /// Whether the providing counter is weak (±0 on the centered scale) —
    /// the paper's "newly allocated" signal.
    pub provider_weak: bool,
    /// |centered counter| of the providing component (odd, ≥ 1).
    pub provider_strength: i32,
    /// |centered counter| of the alternate's source (odd, ≥ 1).
    pub alt_strength: i32,
}

/// Which chooser policy arbitrates — the spec-grammar form
/// (`tage(chooser=...)`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ChooserChoice {
    /// §3.1 `USE_ALT_ON_NA`: defer to the alternate when the provider
    /// counter is weak and one global 4-bit counter says alternates have
    /// been winning — the default.
    #[default]
    AltOnWeak,
    /// The provider's prediction, unconditionally.
    AlwaysProvider,
    /// Trust whichever candidate's source counter sits further from its
    /// weak point. Stateless.
    Confidence,
    /// `USE_ALT_ON_NA` with a table of 2-bit counters selected by branch
    /// address: the paper's single counter assumes one weak-provider
    /// policy fits every branch; ISL-TAGE observes it does not.
    Table,
}

impl ChooserChoice {
    /// The spec-grammar token.
    pub fn token(self) -> &'static str {
        match self {
            ChooserChoice::AltOnWeak => "altweak",
            ChooserChoice::AlwaysProvider => "always",
            ChooserChoice::Confidence => "conf",
            ChooserChoice::Table => "table",
        }
    }

    /// Parses a spec-grammar token.
    pub fn from_token(s: &str) -> Option<Self> {
        match s {
            "altweak" => Some(ChooserChoice::AltOnWeak),
            "always" => Some(ChooserChoice::AlwaysProvider),
            "conf" => Some(ChooserChoice::Confidence),
            "table" => Some(ChooserChoice::Table),
            _ => None,
        }
    }
}

/// The provider/alternate chooser: one policy and its `USE_ALT_ON_NA`
/// counters.
#[derive(Clone, Debug)]
pub struct Chooser {
    choice: ChooserChoice,
    /// One 4-bit counter for `altweak`, 1,024 2-bit counters for
    /// `table`, none for the stateless policies. Every counter starts at
    /// 0 (trust the alternate).
    counters: Vec<SignedCounter>,
}

impl Chooser {
    /// Entries of the `table` policy (power of two; the index is a
    /// folded PC hash).
    const TABLE_ENTRIES: usize = 1024;

    /// Counter width of the `table` policy ("2bc": a 2-bit saturating
    /// counter).
    const TABLE_COUNTER_BITS: u8 = 2;

    /// The `table` policy's storage: `TABLE_ENTRIES` × 2-bit counters.
    pub const TABLE_STORAGE_BITS: u64 =
        (Self::TABLE_ENTRIES as u64) * (Self::TABLE_COUNTER_BITS as u64);

    /// A fresh chooser for `choice`.
    pub fn new(choice: ChooserChoice) -> Self {
        let counters = match choice {
            ChooserChoice::AltOnWeak => vec![SignedCounter::new(4)],
            ChooserChoice::Table => {
                vec![SignedCounter::new(Self::TABLE_COUNTER_BITS); Self::TABLE_ENTRIES]
            }
            ChooserChoice::AlwaysProvider | ChooserChoice::Confidence => Vec::new(),
        };
        Self { choice, counters }
    }

    /// Which choice built this chooser.
    pub fn choice(&self) -> ChooserChoice {
        self.choice
    }

    /// Table storage in bits (see the module docs).
    pub fn storage_bits(&self) -> u64 {
        if self.choice == ChooserChoice::Table {
            Self::TABLE_STORAGE_BITS
        } else {
            0
        }
    }

    /// The counter `pc` selects: index 0 of the single `altweak`
    /// counter, or a folded-PC entry of the `table` policy (branch
    /// addresses share low-bit alignment, so a higher slice is folded in
    /// before masking). Only called for the two policies with counters.
    #[inline]
    fn slot(&self, pc: u64) -> usize {
        (((pc >> 2) ^ (pc >> 12)) as usize) & (self.counters.len() - 1)
    }

    /// The `USE_ALT_ON_NA` counter `pc` selects, `None` for the
    /// stateless policies (diagnostics).
    pub fn bias(&self, pc: u64) -> Option<i16> {
        (!self.counters.is_empty()).then(|| self.counters[self.slot(pc)].get())
    }

    /// The arbitrated direction for this lookup. Never mutates state.
    #[inline]
    pub fn choose(&self, v: &ChooserView) -> bool {
        let use_alt = match self.choice {
            ChooserChoice::AltOnWeak | ChooserChoice::Table => {
                v.provider_weak && self.counters[self.slot(v.pc)].get() >= 0
            }
            ChooserChoice::AlwaysProvider => false,
            ChooserChoice::Confidence => v.alt_strength > v.provider_strength,
        };
        if v.has_provider && use_alt {
            v.alt_pred
        } else {
            v.provider_pred
        }
    }

    /// Retire-time learning from the resolved `outcome`.
    #[inline]
    pub fn update(&mut self, v: &ChooserView, outcome: bool) {
        match self.choice {
            ChooserChoice::AltOnWeak | ChooserChoice::Table => {
                // Learn only from discriminating weak-provider cases (§3.1).
                if v.has_provider && v.provider_weak && v.provider_pred != v.alt_pred {
                    let slot = self.slot(v.pc);
                    self.counters[slot].update(v.alt_pred == outcome);
                }
            }
            ChooserChoice::AlwaysProvider | ChooserChoice::Confidence => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(provider_pred: bool, alt_pred: bool, weak: bool) -> ChooserView {
        view_at(0x40, provider_pred, alt_pred, weak)
    }

    fn view_at(pc: u64, provider_pred: bool, alt_pred: bool, weak: bool) -> ChooserView {
        ChooserView {
            pc,
            has_provider: true,
            provider_pred,
            alt_pred,
            provider_weak: weak,
            provider_strength: if weak { 1 } else { 7 },
            alt_strength: 3,
        }
    }

    #[test]
    fn alt_on_weak_matches_fused_semantics() {
        let mut c = Chooser::new(ChooserChoice::AltOnWeak);
        // Counter starts at 0 (>= 0): weak providers defer to the alternate.
        assert!(!c.choose(&view(true, false, true)));
        assert!(c.choose(&view(true, false, false)));
        // Provider keeps beating the alternate on weak discriminating
        // cases: the counter goes negative and the provider wins.
        for _ in 0..5 {
            c.update(&view(true, false, true), true);
        }
        assert!(c.bias(0x40).unwrap() < 0);
        assert!(c.choose(&view(true, false, true)));
        // Non-discriminating and strong cases never train the counter.
        let bias = c.bias(0x40);
        c.update(&view(true, true, true), true);
        c.update(&view(true, false, false), false);
        assert_eq!(c.bias(0x40), bias);
        // One global counter: every PC reads the same one.
        assert_eq!(c.bias(0x1234_5678), bias);
    }

    #[test]
    fn always_provider_ignores_everything_else() {
        let c = Chooser::new(ChooserChoice::AlwaysProvider);
        assert!(c.choose(&view(true, false, true)));
        assert!(!c.choose(&view(false, true, true)));
    }

    #[test]
    fn confidence_weighted_follows_the_stronger_counter() {
        let c = Chooser::new(ChooserChoice::Confidence);
        // Weak provider (strength 1) vs alternate strength 3: alternate.
        assert!(!c.choose(&view(true, false, true)));
        // Strong provider (strength 7) wins.
        assert!(c.choose(&view(true, false, false)));
        // Without a provider both candidates agree anyway.
        let mut v = view(true, true, false);
        v.has_provider = false;
        assert!(c.choose(&v));
    }

    #[test]
    fn per_pc_table_learns_independent_policies_per_branch() {
        let mut c = Chooser::new(ChooserChoice::Table);
        let (hot, cold) = (0x1000u64, 0x2004u64);
        assert_ne!(c.slot(hot), c.slot(cold), "test PCs must not alias");
        // Fresh counters start at 0 (>= 0): weak providers defer to the
        // alternate, exactly like the paper's global counter.
        assert!(!c.choose(&view_at(hot, true, false, true)));
        // The hot branch's provider keeps winning its weak cases: only
        // that PC's policy flips.
        for _ in 0..4 {
            c.update(&view_at(hot, true, false, true), true);
        }
        assert!(c.bias(hot).unwrap() < 0);
        assert!(c.choose(&view_at(hot, true, false, true)), "hot PC trusts its provider");
        assert!(!c.choose(&view_at(cold, true, false, true)), "cold PC still defers");
        // Strong providers and non-discriminating cases never train.
        let bias = c.bias(hot);
        c.update(&view_at(hot, true, false, false), false);
        c.update(&view_at(hot, true, true, true), false);
        assert_eq!(c.bias(hot), bias);
        // A 2-bit counter saturates instead of wrapping.
        for _ in 0..40 {
            c.update(&view_at(hot, true, false, true), false);
        }
        assert_eq!(c.bias(hot), Some(1));
    }

    #[test]
    fn choices_round_trip_and_budget_tables_only() {
        for (choice, bits, bias) in [
            (ChooserChoice::AltOnWeak, 0, Some(0)),
            (ChooserChoice::AlwaysProvider, 0, None),
            (ChooserChoice::Confidence, 0, None),
            // The per-PC table is real indexed storage and budgets as such.
            (ChooserChoice::Table, 2048, Some(0)),
        ] {
            assert_eq!(ChooserChoice::from_token(choice.token()), Some(choice));
            let c = Chooser::new(choice);
            assert_eq!(c.choice(), choice);
            assert_eq!(c.storage_bits(), bits, "{choice:?}");
            assert_eq!(c.bias(0x40), bias, "{choice:?}");
        }
        assert_eq!(Chooser::TABLE_STORAGE_BITS, 2048);
        assert_eq!(ChooserChoice::from_token("sometimes"), None);
    }
}
