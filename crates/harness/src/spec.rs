//! `PredictorSpec` — the harness-level predictor grammar.
//!
//! [`tage::SystemSpec`] composes TAGE stacks; experiments also sweep the
//! paper's *comparison* predictors (gshare, GEHL, the neural stand-ins).
//! [`PredictorSpec`] is the union: a spec string either starts with
//! `tage` — and is a full [stack spec](tage::SystemSpec) — or names one
//! of the baseline predictors:
//!
//! ```text
//! gshare:512k | gshare:BITS      — McFarling gshare (§4's 512 Kbit rep)
//! gehl:520k                      — the GEHL adder tree (§4.1.1)
//! bimodal:ENTRIES,CTR_BITS       — PC-indexed counters (Figure 3)
//! snap:512k                      — OH-SNAP stand-in (§6.3)
//! ftl:512k                       — FTL++ stand-in (§6.3)
//! ```
//!
//! Chaining side stages onto a baseline (`gshare+ium`) is rejected with
//! the typed [`SpecError::StageRequiresTage`]: the IUM, correctors and
//! loop predictor all consume the TAGE provider's flight.
//!
//! The canonical [`Display`](std::fmt::Display) string doubles as the
//! suite-scheduler memo label (see [`crate::ctx::ExpContext::run_spec`]):
//! two experiment rows share a cached suite exactly when their specs
//! canonicalize identically. [`PredictorSpec::build_engine`] is the one
//! place a spec turns into a predictor: every caller — suite jobs,
//! external-trace cells, sampled slices, a served session, the budget
//! columns — gets the same boxed [`BlockSim`].

use baselines::{Bimodal, Ftl, Gehl, Gshare, Snap};
use pipeline::{BlockSim, PipelineConfig, WindowEngine};
use simkit::predictor::UpdateScenario;
use std::fmt;
use std::str::FromStr;
use tage::{SpecError, SystemSpec};

/// The paper's storage-budget figures per named preset, in bits — the
/// reference the `tage_exp budgets` audit (and its test) compares
/// [`tage::PredictorStack::budget`] accounting against:
///
/// * `tage` — §3.4 gives the reference predictor as exactly 65,408 bytes;
/// * `isl-tage` — the §5 side-predictor budgets on top of that: the IUM
///   (~2 Kbit: 64 in-flight records × 30 bits), the loop predictor
///   (~3 Kbit: 64 entries × 47 bits) and the 24 Kbit global SC;
/// * `tage-lsc` / `tage-lsc-ce` — §6.1/§7 present both against the
///   512 Kbit CBP budget.
pub const PAPER_BUDGET_BITS: &[(&str, u64)] = &[
    ("tage", 65_408 * 8),
    ("isl-tage", 65_408 * 8 + 64 * 30 + 64 * 47 + 24 * 1024),
    ("tage-lsc", 512 * 1024),
    ("tage-lsc-ce", 512 * 1024),
];

/// A predictor the harness can simulate: a TAGE stack or a baseline.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PredictorSpec {
    /// A composed TAGE stack (see [`SystemSpec`]).
    Stack(SystemSpec),
    /// McFarling gshare with `2^index_bits` 2-bit counters; `None` means
    /// the paper's tuned 512 Kbit configuration.
    Gshare {
        /// Table index width, `None` for the `cbp_512k` preset.
        index_bits: Option<u32>,
    },
    /// The 520 Kbit GEHL adder-tree predictor.
    Gehl520k,
    /// PC-indexed saturating counters.
    Bimodal {
        /// Table entries (power of two).
        entries: usize,
        /// Counter width in bits.
        ctr_bits: u8,
    },
    /// The OH-SNAP-style piecewise-linear neural stand-in.
    Snap512k,
    /// The FTL++-style fused global+local GEHL stand-in.
    Ftl512k,
}

impl PredictorSpec {
    /// Parses a spec string (see the module docs for the grammar).
    ///
    /// # Errors
    ///
    /// Returns a typed [`SpecError`] for unknown tokens, bad arguments,
    /// and ill-formed chains.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        s.parse()
    }

    /// Validates the spec without building it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PredictorSpec::parse`].
    pub fn validate(&self) -> Result<(), SpecError> {
        match self {
            PredictorSpec::Stack(spec) => spec.validate(),
            PredictorSpec::Gshare { index_bits: Some(bits) } => {
                // `Gshare::new` asserts at most 26 index bits.
                if !(4..=26).contains(bits) {
                    return Err(SpecError::BadArg {
                        token: "gshare".into(),
                        reason: "index bits must be in 4..=26",
                    });
                }
                Ok(())
            }
            PredictorSpec::Bimodal { entries, ctr_bits } => {
                // Capped like gshare's largest table, 2^26 counters.
                if !entries.is_power_of_two() || *entries > 1 << 26 || !(1..=8).contains(ctr_bits)
                {
                    return Err(SpecError::BadArg {
                        token: "bimodal".into(),
                        reason: "needs a power-of-two entry count up to 2^26 and 1..=8 counter bits",
                    });
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Builds the predictor inside a block-at-a-time [`WindowEngine`]:
    /// the only match over the spec arms that constructs a predictor. The
    /// returned [`BlockSim`] erases the predictor type once per *block*
    /// (`run_block`) while the window loop inside stays monomorphized per
    /// arm.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PredictorSpec::validate`].
    pub fn build_engine(
        &self,
        scenario: UpdateScenario,
        cfg: &PipelineConfig,
    ) -> Result<Box<dyn BlockSim>, SpecError> {
        self.validate()?;
        Ok(match self {
            PredictorSpec::Stack(spec) => {
                Box::new(WindowEngine::new(spec.build()?, scenario, cfg))
            }
            PredictorSpec::Gshare { index_bits: None } => {
                Box::new(WindowEngine::new(Gshare::cbp_512k(), scenario, cfg))
            }
            PredictorSpec::Gshare { index_bits: Some(bits) } => {
                Box::new(WindowEngine::new(Gshare::new(*bits), scenario, cfg))
            }
            PredictorSpec::Gehl520k => Box::new(WindowEngine::new(Gehl::cbp_520k(), scenario, cfg)),
            PredictorSpec::Bimodal { entries, ctr_bits } => {
                Box::new(WindowEngine::new(Bimodal::new(*entries, *ctr_bits), scenario, cfg))
            }
            PredictorSpec::Snap512k => Box::new(WindowEngine::new(Snap::cbp_512k(), scenario, cfg)),
            PredictorSpec::Ftl512k => Box::new(WindowEngine::new(Ftl::cbp_512k(), scenario, cfg)),
        })
    }

    /// Total storage of the built predictor, in bits.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PredictorSpec::validate`].
    pub fn storage_bits(&self) -> Result<u64, SpecError> {
        let engine = self.build_engine(UpdateScenario::Immediate, &PipelineConfig::default())?;
        Ok(engine.storage_bits())
    }

    /// The suite-scheduler memoization key: the canonical string with
    /// the display-only `as=` label stripped, so specs differing *only*
    /// in their report label share one cached suite (the label changes
    /// `Predictor::name`, never a simulated bit).
    pub fn sim_key(&self) -> String {
        match self {
            PredictorSpec::Stack(spec) if spec.label.is_some() => {
                let mut unlabeled = spec.clone();
                unlabeled.label = None;
                unlabeled.to_string()
            }
            other => other.to_string(),
        }
    }
}

impl fmt::Display for PredictorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictorSpec::Stack(spec) => spec.fmt(f),
            PredictorSpec::Gshare { index_bits: None } => write!(f, "gshare:512k"),
            PredictorSpec::Gshare { index_bits: Some(bits) } => write!(f, "gshare:{bits}"),
            PredictorSpec::Gehl520k => write!(f, "gehl:520k"),
            PredictorSpec::Bimodal { entries, ctr_bits } => {
                write!(f, "bimodal:{entries},{ctr_bits}")
            }
            PredictorSpec::Snap512k => write!(f, "snap:512k"),
            PredictorSpec::Ftl512k => write!(f, "ftl:512k"),
        }
    }
}

impl FromStr for PredictorSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(SpecError::Empty);
        }
        let head = s.split([':', '+', '/']).next().unwrap_or_default();
        if head == "tage"
            || head.starts_with("tage(")
            || ["ium", "sc", "lsc", "loop"].contains(&head)
        {
            // Everything stack-shaped — the bare provider, a provider
            // with internal `(base=...,chooser=...)` productions, and
            // the ill-formed stage-first chains (for their typed errors).
            return Ok(PredictorSpec::Stack(s.parse()?));
        }
        // Baselines take no chain stages and no flags.
        if let Some((provider, rest)) = s.split_once('+') {
            let stage = rest.split(['+', ':', '/']).next().unwrap_or_default();
            return Err(SpecError::StageRequiresTage {
                stage: stage.to_string(),
                provider: provider.to_string(),
            });
        }
        if s.contains('/') {
            return Err(SpecError::UnknownToken {
                token: format!("/{}", s.split_once('/').map_or("", |(_, f)| f)),
            });
        }
        let (head, args) = s.split_once(':').map_or((s, None), |(h, a)| (h, Some(a)));
        let spec = match (head, args) {
            ("gshare", Some("512k")) => PredictorSpec::Gshare { index_bits: None },
            ("gshare", Some(bits)) => PredictorSpec::Gshare {
                index_bits: Some(bits.parse().map_err(|_| SpecError::BadArg {
                    token: "gshare".into(),
                    reason: "expected '512k' or an index bit count",
                })?),
            },
            ("gehl", Some("520k")) => PredictorSpec::Gehl520k,
            ("snap", Some("512k")) => PredictorSpec::Snap512k,
            ("ftl", Some("512k")) => PredictorSpec::Ftl512k,
            ("bimodal", Some(args)) => {
                let (entries, ctr_bits) = parse_pair(args, "bimodal")?;
                // Range-check before narrowing: `257` must be rejected,
                // not silently aliased onto a 1-bit counter.
                let ctr_bits = u8::try_from(ctr_bits).map_err(|_| SpecError::BadArg {
                    token: "bimodal".into(),
                    reason: "needs a power-of-two entry count up to 2^26 and 1..=8 counter bits",
                })?;
                PredictorSpec::Bimodal { entries, ctr_bits }
            }
            ("gehl" | "snap" | "ftl" | "bimodal", None) => {
                return Err(SpecError::BadArg {
                    token: head.into(),
                    reason: "this predictor needs a configuration argument",
                })
            }
            ("gshare", None) => PredictorSpec::Gshare { index_bits: None },
            _ => return Err(SpecError::UnknownToken { token: head.to_string() }),
        };
        spec.validate()?;
        Ok(spec)
    }
}

fn parse_pair(s: &str, token: &'static str) -> Result<(usize, usize), SpecError> {
    let bad = || SpecError::BadArg {
        token: token.into(),
        reason: "expected two comma-separated unsigned integers",
    };
    let (a, b) = s.split_once(',').ok_or_else(bad)?;
    Ok((a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Predictor;

    #[test]
    fn baseline_specs_round_trip_and_build() {
        for s in [
            "gshare:512k",
            "gshare:14",
            "gehl:520k",
            "bimodal:4096,2",
            "snap:512k",
            "ftl:512k",
            "tage+ium+sc+loop/as=ISL-TAGE",
            "tage(chooser=always)",
            "tage(base=gshare,chooser=conf)+ium",
        ] {
            let spec = PredictorSpec::parse(s).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(spec.to_string(), s, "canonical form changed");
            assert!(spec.storage_bits().unwrap() > 0, "{s}");
        }
    }

    #[test]
    fn stage_on_baseline_is_typed_error() {
        assert_eq!(
            PredictorSpec::parse("gshare:512k+ium").unwrap_err(),
            SpecError::StageRequiresTage { stage: "ium".into(), provider: "gshare:512k".into() }
        );
        assert_eq!(
            PredictorSpec::parse("snap:512k+loop").unwrap_err(),
            SpecError::StageRequiresTage { stage: "loop".into(), provider: "snap:512k".into() }
        );
    }

    #[test]
    fn stack_errors_pass_through() {
        assert!(matches!(
            PredictorSpec::parse("ium+tage").unwrap_err(),
            SpecError::StackMustStartWithProvider { .. }
        ));
        assert!(matches!(
            PredictorSpec::parse("wibble").unwrap_err(),
            SpecError::UnknownToken { .. }
        ));
        // A well-formed argument does not rescue an unknown head.
        assert!(matches!(
            PredictorSpec::parse("perceptron:512,32").unwrap_err(),
            SpecError::UnknownToken { .. }
        ));
        assert!(matches!(
            PredictorSpec::parse("bimodal:4095,2").unwrap_err(),
            SpecError::BadArg { .. }
        ));
        // 257 must not alias onto a 1-bit counter through u8 narrowing.
        assert!(matches!(
            PredictorSpec::parse("bimodal:4096,257").unwrap_err(),
            SpecError::BadArg { .. }
        ));
        assert!(matches!(
            PredictorSpec::parse("gshare:512k/ilv").unwrap_err(),
            SpecError::UnknownToken { .. }
        ));
    }

    #[test]
    fn sim_key_strips_only_the_label() {
        let labeled = PredictorSpec::parse("tage:lsc+ium+lsc/as=TAGE-LSC").unwrap();
        let unlabeled = PredictorSpec::parse("tage:lsc+ium+lsc").unwrap();
        assert_eq!(labeled.sim_key(), unlabeled.sim_key());
        assert_ne!(labeled.to_string(), unlabeled.to_string());
        assert_eq!(unlabeled.sim_key(), unlabeled.to_string());
        // Everything that changes simulated bits stays in the key:
        // chain order, interleaving, the lsc-reread knob.
        assert_ne!(
            PredictorSpec::parse("tage+ium+loop+sc").unwrap().sim_key(),
            PredictorSpec::parse("tage+ium+sc+loop").unwrap().sim_key()
        );
        assert_ne!(
            PredictorSpec::parse("tage/ilv").unwrap().sim_key(),
            PredictorSpec::parse("tage").unwrap().sim_key()
        );
    }

    #[test]
    fn constructor_bounds_validate_and_one_step_past_is_bad_arg() {
        // Each pair is (the bound itself, one step past it). Past the
        // bound the predictor's constructor panics, overflows an
        // allocation or reads past the global history.
        for (at, past) in [
            ("gshare:4", "gshare:3"),
            ("gshare:26", "gshare:27"),
            ("bimodal:67108864,2", "bimodal:134217728,2"),
            ("tage+loop:65536,4", "tage+loop:131072,4"),
            ("tage+lsc:x-4", "tage+lsc:x-5"),
            ("tage+lsc:x10", "tage+lsc:x11"),
            ("tage:x-4", "tage:x-5"),
            ("tage:x9", "tage:x10"),
            ("tage:h4,8191", "tage:h4,8192"),
            ("tage:b12,4,8191", "tage:b12,4,8192"),
        ] {
            let spec = PredictorSpec::parse(at).unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(spec.to_string(), at);
            let err = PredictorSpec::parse(past).unwrap_err();
            assert!(matches!(err, SpecError::BadArg { .. }), "{past}: {err:?}");
        }
        for s in [
            "gshare:28",
            "bimodal:4611686018427387904,2",
            "tage+loop:4611686018427387904,4",
            "tage+lsc:x30",
            "tage:x40",
            "tage:h4,100000000",
        ] {
            let err = PredictorSpec::parse(s).unwrap_err();
            assert!(matches!(err, SpecError::BadArg { .. }), "{s}: {err:?}");
        }
    }

    /// Name and storage of `p` built directly, for comparison with the
    /// engine a spec builds.
    fn direct<P: Predictor>(p: P) -> (String, u64) {
        (p.name(), p.storage_bits())
    }

    #[test]
    fn built_names_match_direct_construction() {
        // One spec per PredictorSpec arm: the engine `build_engine`
        // returns must report the name and storage of the predictor the
        // arm stands for. `bimodal:N,M` and `gshare:N` are reached by no
        // golden table, so this is their pin.
        let cases: [(&str, (String, u64)); 8] = [
            ("tage:lsc+ium+lsc/as=TAGE-LSC", direct(tage::TageSystem::tage_lsc())),
            ("tage+ium", direct(tage::TageSystem::tage_ium())),
            ("gshare:512k", direct(Gshare::cbp_512k())),
            ("gshare:14", direct(Gshare::new(14))),
            ("gehl:520k", direct(Gehl::cbp_520k())),
            ("bimodal:4096,2", direct(Bimodal::new(4096, 2))),
            ("snap:512k", direct(Snap::cbp_512k())),
            ("ftl:512k", direct(Ftl::cbp_512k())),
        ];
        let cfg = PipelineConfig::default();
        for (s, (name, bits)) in cases {
            let spec = PredictorSpec::parse(s).unwrap();
            for scenario in UpdateScenario::ALL {
                let engine = spec.build_engine(scenario, &cfg).unwrap();
                assert_eq!(engine.predictor_name(), name, "{s}");
                assert_eq!(engine.storage_bits(), bits, "{s}");
            }
            assert_eq!(spec.storage_bits().unwrap(), bits, "{s}");
        }
    }
}
