//! `SystemSpec` — declarative, serializable predictor-stack composition.
//!
//! A [`SystemSpec`] is the *data* form of a [`PredictorStack`]: which
//! TAGE provider, which side stages in which chain order, which
//! stack-wide switches. Every named predictor of the paper is one spec
//! (see [`PRESETS`]), every §7 ablation row is one spec, and any
//! composition the paper never measured — loop without SC at 32 KB, a
//! corrector judging the loop output — is one spec away.
//!
//! # Grammar
//!
//! The serialized form is a compact one-line string:
//!
//! ```text
//! spec     := provider ( "+" stage )* ( "/" flag )*
//! provider := "tage" [ "(" param ( "," param )* ")" ]
//!                    [ ":lsc" | ":b" N "," L1 "," LMAX ]
//!                    [ ":h" L1 "," LMAX ] [ ":x" DELTA ]
//! param    := "base=" ( "bimodal" | "2bc" | "gshare" )
//!           | "chooser=" ( "altweak" | "always" | "conf" | "table" )
//! stage    := "ium" [ ":" CAPACITY ]
//!           | "sc"
//!           | "lsc" [ ":2lht" ] [ ":x" DELTA ]
//!           | "loop" [ ":" ENTRIES "," WAYS ]
//! flag     := "ilv" | "lsc-reread" | "as=" LABEL
//! ```
//!
//! * `tage` — the §3.4 reference 64 KB provider; `:lsc` swaps in the
//!   §6.1 TAGE-LSC core (T7 halved); `:bN,L1,LMAX` the §6.2 balanced
//!   N-table configuration; `:h` overrides the geometric history bounds;
//!   `:x` scales every table by `2^DELTA` (the Figure 9 sweep axis).
//! * the parenthesized provider-internal productions select the
//!   [`BaseChoice`] under the tagged bank and the [`ChooserChoice`]
//!   policy (§3.1's `USE_ALT_ON_NA` by default) — the §3-level provider
//!   ablations. Defaults (`base=bimodal`, `chooser=altweak`) are omitted
//!   from the canonical form, so `tage(base=bimodal,chooser=altweak)`
//!   canonicalizes to `tage` and shares its cached suite.
//! * stages run **in the order written** (the paper's canonical order is
//!   `ium+sc+lsc+loop`); `lsc:2lht` only doubles the local history table
//!   (§7.1 pairs it with `ilv`).
//! * `ilv` switches all tables to 4-way bank-interleaved single-ported
//!   arrays (§4.3/§7.1): the stack picks one bank per conditional
//!   prediction, advanced by unconditional branches, and the TAGE base,
//!   tagged and LSC tables all index with it; `lsc-reread` is the §7.2
//!   LSC-always-rereads knob; `as=` overrides the report label.
//!
//! Examples: `tage`, `tage+ium+sc+loop/as=ISL-TAGE`,
//! `tage:lsc:x-1+ium+lsc:x-1/as=TAGE-LSC`, `tage:x-1+ium+loop`.
//!
//! [`Display`](std::fmt::Display) emits the canonical form (defaults
//! omitted, `x0` dropped), [`FromStr`] parses it, and the two round-trip
//! (property-tested in the workspace test suite). The canonical string
//! doubles as the suite-scheduler memo label: two experiments share a
//! cached suite exactly when their specs canonicalize identically.
//!
//! Ill-formed chains are rejected with a typed [`SpecError`] — a stage
//! before any provider, a second provider, a duplicated stage, a
//! non-power-of-two IUM capacity, a size or history length past what
//! its constructor builds — at parse *and* at build, so
//! hand-constructed specs get the same checks as parsed ones.

use crate::base::BaseChoice;
use crate::chooser::ChooserChoice;
use crate::config::{TageConfig, MAX_TAGGED};
use crate::corrector::{Gsc, Lsc};
use crate::ium::Ium;
use crate::loop_pred::LoopPredictor;
use crate::stack::{PredictorStack, SideStage, StageKind, DEFAULT_IUM_CAPACITY};
use crate::tage::Tage;
use simkit::history::HISTORY_CAPACITY;
use std::fmt;
use std::str::FromStr;

/// The TAGE provider core a spec starts from.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TageBase {
    /// The §3.4 reference 64 KB configuration.
    Reference,
    /// The §6.1 TAGE-LSC core (T7 halved to 2K entries).
    LscCore,
    /// The §6.2 balanced configuration: `tables` tagged tables over a
    /// `(l1, lmax)` geometric series.
    Balanced {
        /// Tagged-table count.
        tables: usize,
        /// Shortest history length.
        l1: usize,
        /// Longest history length.
        lmax: usize,
    },
}

/// The provider (first) element of a spec chain.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ProviderSpec {
    /// Which TAGE core.
    pub base: TageBase,
    /// Geometric-history override `(l1, lmax)` (§6.2 history ablation).
    pub history: Option<(usize, usize)>,
    /// Budget scale: every table ×`2^scale` entries (Figure 9).
    pub scale: i32,
    /// The base predictor under the tagged bank (`tage(base=...)`).
    pub base_slot: BaseChoice,
    /// The provider/alternate chooser policy (`tage(chooser=...)`).
    pub chooser: ChooserChoice,
}

impl ProviderSpec {
    /// The reference provider, unscaled.
    pub fn reference() -> Self {
        Self {
            base: TageBase::Reference,
            history: None,
            scale: 0,
            base_slot: BaseChoice::default(),
            chooser: ChooserChoice::default(),
        }
    }

    /// Resolves to a concrete table configuration.
    pub fn to_config(&self) -> Result<TageConfig, SpecError> {
        let mut cfg = match self.base {
            TageBase::Reference => TageConfig::reference_64kb(),
            TageBase::LscCore => TageConfig::tage_lsc_core(),
            TageBase::Balanced { tables, l1, lmax } => {
                if !(2..=MAX_TAGGED).contains(&tables) {
                    return Err(SpecError::BadArg {
                        token: "tage:b".into(),
                        reason: "balanced table count must be in 2..=16",
                    });
                }
                check_history(l1, lmax, "tage:b")?;
                TageConfig::balanced(tables, l1, lmax)
            }
        };
        if let Some((l1, lmax)) = self.history {
            check_history(l1, lmax, "tage:h")?;
            cfg = cfg.with_history(l1, lmax);
        }
        if self.scale != 0 {
            if !cfg.scale_range().contains(&self.scale) {
                return Err(SpecError::BadArg {
                    token: "tage:x".into(),
                    reason: "scale would clamp a table outside 2^6..=2^24 entries (the reference TAGE takes -4..=9)",
                });
            }
            cfg = cfg.scaled(self.scale);
        }
        Ok(cfg)
    }
}

fn check_history(l1: usize, lmax: usize, token: &str) -> Result<(), SpecError> {
    // A fold of `lmax` bits reads history bit `lmax`.
    if l1 < 1 || lmax <= l1 || lmax >= HISTORY_CAPACITY {
        return Err(SpecError::BadArg {
            token: token.to_string(),
            reason: "history bounds need 1 <= l1 < lmax < 8192 (the global history capacity)",
        });
    }
    Ok(())
}

/// One declarative side stage.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum StageSpec {
    /// Immediate Update Mimicker with the given in-flight capacity.
    Ium {
        /// In-flight record capacity (power of two).
        capacity: usize,
    },
    /// The §5.3 global Statistical Corrector (24 Kbit configuration).
    Gsc,
    /// The §6.1 local Statistical Corrector (~31 Kbit configuration).
    Lsc {
        /// Double the local history table (§7.1 pairs it with `ilv`).
        double_lht: bool,
        /// Budget scale (Figure 9).
        scale: i32,
    },
    /// The §5.2 loop predictor.
    Loop {
        /// Total entries.
        entries: usize,
        /// Skewed ways.
        ways: usize,
    },
}

impl StageSpec {
    /// An IUM at the default (pipeline-window) capacity.
    pub fn ium() -> Self {
        StageSpec::Ium { capacity: DEFAULT_IUM_CAPACITY }
    }

    /// The default unscaled LSC.
    pub fn lsc() -> Self {
        StageSpec::Lsc { double_lht: false, scale: 0 }
    }

    /// The paper's 64-entry 4-way loop predictor.
    pub fn loop_pred() -> Self {
        StageSpec::Loop { entries: 64, ways: 4 }
    }

    /// This stage's kind.
    pub fn kind(&self) -> StageKind {
        match self {
            StageSpec::Ium { .. } => StageKind::Ium,
            StageSpec::Gsc => StageKind::Gsc,
            StageSpec::Lsc { .. } => StageKind::Lsc,
            StageSpec::Loop { .. } => StageKind::Loop,
        }
    }

    fn validate(&self) -> Result<(), SpecError> {
        match *self {
            StageSpec::Ium { capacity } => {
                if capacity == 0 || !capacity.is_power_of_two() || capacity > 1 << 16 {
                    return Err(SpecError::BadArg {
                        token: "ium".into(),
                        reason: "IUM capacity must be a power of two in 1..=65536",
                    });
                }
            }
            StageSpec::Gsc => {}
            StageSpec::Lsc { scale, .. } => {
                // `Lsc::scaled` clamps its table bits outside this range,
                // and above it the local history table grows without
                // bound.
                if !(-4..=10).contains(&scale) {
                    return Err(SpecError::BadArg {
                        token: "lsc:x".into(),
                        reason: "scale must be in -4..=10",
                    });
                }
            }
            StageSpec::Loop { entries, ways } => {
                if !(1..=4).contains(&ways)
                    || entries == 0
                    || entries > 1 << 16
                    || !entries.is_multiple_of(ways)
                    || !(entries / ways).is_power_of_two()
                {
                    return Err(SpecError::BadArg {
                        token: "loop".into(),
                        reason: "loop geometry needs at most 65536 entries and 1..=4 ways dividing them into a power-of-two set count",
                    });
                }
            }
        }
        Ok(())
    }

    fn build(&self) -> SideStage {
        match *self {
            StageSpec::Ium { capacity } => SideStage::Ium(Ium::new(capacity)),
            StageSpec::Gsc => SideStage::Gsc(Gsc::cbp_24kbit()),
            StageSpec::Lsc { double_lht, scale } => {
                let base = if double_lht { Lsc::cbp_30kbit_2lht() } else { Lsc::cbp_30kbit() };
                SideStage::Lsc(if scale != 0 { base.scaled(scale) } else { base })
            }
            StageSpec::Loop { entries, ways } => SideStage::Loop(LoopPredictor::new(entries, ways)),
        }
    }
}

/// A complete declarative predictor stack.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SystemSpec {
    /// The provider.
    pub provider: ProviderSpec,
    /// Side stages, in chain (evaluation) order.
    pub stages: Vec<StageSpec>,
    /// 4-way bank-interleave all tables (§4.3, §7.1).
    pub interleaved: bool,
    /// §7.2: the LSC always rereads at retire.
    pub lsc_always_reread: bool,
    /// Report-label override.
    pub label: Option<String>,
}

impl SystemSpec {
    /// A bare reference-TAGE spec.
    pub fn reference() -> Self {
        Self {
            provider: ProviderSpec::reference(),
            stages: Vec::new(),
            interleaved: false,
            lsc_always_reread: false,
            label: None,
        }
    }

    /// Validates the spec without building it.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] in chain order.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.provider.to_config()?;
        for (i, stage) in self.stages.iter().enumerate() {
            stage.validate()?;
            if self.stages[..i].iter().any(|s| s.kind() == stage.kind()) {
                return Err(SpecError::DuplicateStage { kind: stage.kind() });
            }
        }
        if let Some(label) = &self.label {
            if label.is_empty() || label.contains('/') {
                return Err(SpecError::BadArg {
                    token: "as=".into(),
                    reason: "label must be non-empty and must not contain '/'",
                });
            }
        }
        Ok(())
    }

    /// Assembles the stack this spec describes.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SpecError`] for ill-formed specs (duplicate
    /// stages, bad stage geometry, bad provider parameters).
    pub fn build(&self) -> Result<PredictorStack, SpecError> {
        self.validate()?;
        let tage = Tage::with_choices(
            self.provider.to_config()?,
            self.provider.base_slot,
            self.provider.chooser,
        );
        let stages = self.stages.iter().map(StageSpec::build).collect();
        let mut stack = PredictorStack::from_parts(tage, stages);
        if let Some(label) = &self.label {
            stack = stack.labeled(label);
        }
        if self.interleaved {
            stack = stack.interleaved();
        }
        if self.lsc_always_reread {
            stack = stack.lsc_always_reread();
        }
        Ok(stack)
    }

    /// Total storage of the assembled stack, in bits.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SystemSpec::build`].
    pub fn storage_bits(&self) -> Result<u64, SpecError> {
        use simkit::Predictor;
        Ok(self.build()?.storage_bits())
    }

    /// Looks up a named paper preset (see [`PRESETS`]).
    pub fn preset(name: &str) -> Option<SystemSpec> {
        PRESETS
            .iter()
            .find(|(n, _)| *n == name)
            // INVARIANT: PRESETS is a static table; every row's parse is
            // asserted by the preset round-trip tests.
            .map(|(_, spec)| spec.parse().expect("preset specs are valid"))
    }
}

/// The paper's named predictors, as `(name, spec)` pairs — the
/// composition table of §5–§7 *as data*. Every preset parses and builds;
/// budgets are audited against the paper's figures by `tage_exp budgets`.
pub const PRESETS: &[(&str, &str)] = &[
    // §3.4: the reference 64 KB TAGE.
    ("tage", "tage"),
    // §5.1: reference TAGE + Immediate Update Mimicker.
    ("tage-ium", "tage+ium"),
    // §2.2: L-TAGE, the CBP-2 winner (TAGE + loop predictor).
    ("l-tage", "tage+loop/as=L-TAGE"),
    // §5: ISL-TAGE = TAGE + IUM + loop + global SC.
    ("isl-tage", "tage+ium+sc+loop/as=ISL-TAGE"),
    // §6.1: TAGE-LSC — T7 halved, IUM, local SC (512 Kbit).
    ("tage-lsc", "tage:lsc+ium+lsc/as=TAGE-LSC"),
    // §6.1: the full five-component stack (555 MPPKI configuration).
    ("full-stack", "tage+ium+sc+lsc+loop"),
    // §7.1: cost-effective TAGE-LSC — interleaved, doubled local history.
    ("tage-lsc-ce", "tage:lsc+ium+lsc:2lht/ilv/as=TAGE-LSC-interleaved"),
];

/// Why a spec failed to parse or build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The spec string was empty.
    Empty,
    /// The chain must begin with a provider (`tage...`), not a side stage.
    StackMustStartWithProvider {
        /// The stage token found in the provider position.
        found: String,
    },
    /// A second provider appeared later in the chain.
    DuplicateProvider,
    /// The same side-stage kind appeared twice.
    DuplicateStage {
        /// The duplicated kind.
        kind: StageKind,
    },
    /// An unrecognized chain token or flag.
    UnknownToken {
        /// The offending token.
        token: String,
    },
    /// A side stage was chained onto a provider that cannot host it (the
    /// IUM, the correctors and the loop predictor all consume the TAGE
    /// provider's flight).
    StageRequiresTage {
        /// The side stage that was attached.
        stage: String,
        /// The provider it was attached to.
        provider: String,
    },
    /// A recognized token with invalid arguments.
    BadArg {
        /// The offending token.
        token: String,
        /// What the argument must satisfy.
        reason: &'static str,
    },
    /// An ill-formed `tage(key=value,...)` provider-internal production:
    /// an unknown key, a value from the wrong domain (e.g.
    /// `base=altweak`), a duplicated key, or a malformed group.
    BadProviderParam {
        /// The offending parameter (or group fragment).
        param: String,
        /// What the production must satisfy.
        reason: &'static str,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty => write!(f, "empty spec"),
            SpecError::StackMustStartWithProvider { found } => {
                write!(f, "stack must start with a provider (tage...), found stage '{found}'")
            }
            SpecError::DuplicateProvider => write!(f, "spec has more than one provider"),
            SpecError::DuplicateStage { kind } => {
                write!(f, "stage '{}' appears more than once", kind.token())
            }
            SpecError::UnknownToken { token } => write!(f, "unknown spec token '{token}'"),
            SpecError::StageRequiresTage { stage, provider } => {
                write!(f, "stage '{stage}' requires a tage provider, not '{provider}'")
            }
            SpecError::BadArg { token, reason } => write!(f, "bad '{token}' argument: {reason}"),
            SpecError::BadProviderParam { param, reason } => {
                write!(f, "bad provider parameter '{param}': {reason}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl fmt::Display for SystemSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tage{}", provider_params(self.provider.base_slot, self.provider.chooser))?;
        match self.provider.base {
            TageBase::Reference => {}
            TageBase::LscCore => write!(f, ":lsc")?,
            TageBase::Balanced { tables, l1, lmax } => write!(f, ":b{tables},{l1},{lmax}")?,
        }
        if let Some((l1, lmax)) = self.provider.history {
            write!(f, ":h{l1},{lmax}")?;
        }
        if self.provider.scale != 0 {
            write!(f, ":x{}", self.provider.scale)?;
        }
        for stage in &self.stages {
            match *stage {
                StageSpec::Ium { capacity } => {
                    if capacity == DEFAULT_IUM_CAPACITY {
                        write!(f, "+ium")?;
                    } else {
                        write!(f, "+ium:{capacity}")?;
                    }
                }
                StageSpec::Gsc => write!(f, "+sc")?,
                StageSpec::Lsc { double_lht, scale } => {
                    write!(f, "+lsc")?;
                    if double_lht {
                        write!(f, ":2lht")?;
                    }
                    if scale != 0 {
                        write!(f, ":x{scale}")?;
                    }
                }
                StageSpec::Loop { entries, ways } => {
                    if (entries, ways) == (64, 4) {
                        write!(f, "+loop")?;
                    } else {
                        write!(f, "+loop:{entries},{ways}")?;
                    }
                }
            }
        }
        if self.interleaved {
            write!(f, "/ilv")?;
        }
        if self.lsc_always_reread {
            write!(f, "/lsc-reread")?;
        }
        if let Some(label) = &self.label {
            write!(f, "/as={label}")?;
        }
        Ok(())
    }
}

impl FromStr for SystemSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(SpecError::Empty);
        }
        let mut parts = s.split('/');
        let chain = parts.next().unwrap_or_default();
        let mut segments = chain.split('+');

        let provider_seg = segments.next().unwrap_or_default();
        if provider_seg.is_empty() {
            return Err(SpecError::Empty);
        }
        let provider = parse_provider(provider_seg)?;

        let mut stages = Vec::new();
        for seg in segments {
            stages.push(parse_stage(seg)?);
        }

        let mut spec = SystemSpec {
            provider,
            stages,
            interleaved: false,
            lsc_always_reread: false,
            label: None,
        };
        for flag in parts {
            match flag {
                "ilv" => spec.interleaved = true,
                "lsc-reread" => spec.lsc_always_reread = true,
                _ if flag.starts_with("as=") => {
                    spec.label = Some(flag["as=".len()..].to_string());
                }
                // WILDCARD: open input domain — unknown user-written
                // flags map to a typed error, not to our own enums.
                _ => return Err(SpecError::UnknownToken { token: format!("/{flag}") }),
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// The canonical `(base=...,chooser=...)` production for non-default
/// base and chooser policies, `""` when both are the paper's (fixed
/// base-then-chooser order keeps the form canonical).
pub(crate) fn provider_params(base: BaseChoice, chooser: ChooserChoice) -> String {
    let base = (base != BaseChoice::default()).then(|| format!("base={}", base.token()));
    let chooser =
        (chooser != ChooserChoice::default()).then(|| format!("chooser={}", chooser.token()));
    let params: Vec<String> = base.into_iter().chain(chooser).collect();
    if params.is_empty() {
        String::new()
    } else {
        format!("({})", params.join(","))
    }
}

/// Parses the `(key=value,...)` provider-internal production.
fn parse_provider_params(inner: &str, provider: &mut ProviderSpec) -> Result<(), SpecError> {
    if inner.is_empty() {
        return Err(SpecError::BadProviderParam {
            param: "()".into(),
            reason: "empty parameter list (omit the parentheses for the defaults)",
        });
    }
    let (mut saw_base, mut saw_chooser) = (false, false);
    for kv in inner.split(',') {
        let Some((key, value)) = kv.split_once('=') else {
            return Err(SpecError::BadProviderParam {
                param: kv.to_string(),
                reason: "expected key=value",
            });
        };
        match key {
            "base" => {
                if saw_base {
                    return Err(SpecError::BadProviderParam {
                        param: kv.to_string(),
                        reason: "'base' given more than once",
                    });
                }
                saw_base = true;
                provider.base_slot = BaseChoice::from_token(value).ok_or_else(|| {
                    SpecError::BadProviderParam {
                        param: kv.to_string(),
                        reason: "base must be one of bimodal, 2bc, gshare",
                    }
                })?;
            }
            "chooser" => {
                if saw_chooser {
                    return Err(SpecError::BadProviderParam {
                        param: kv.to_string(),
                        reason: "'chooser' given more than once",
                    });
                }
                saw_chooser = true;
                provider.chooser = ChooserChoice::from_token(value).ok_or_else(|| {
                    SpecError::BadProviderParam {
                        param: kv.to_string(),
                        reason: "chooser must be one of altweak, always, conf, table",
                    }
                })?;
            }
            // WILDCARD: open input domain — unknown provider-param keys
            // become typed errors.
            _ => {
                return Err(SpecError::BadProviderParam {
                    param: kv.to_string(),
                    reason: "unknown key (expected base= or chooser=)",
                })
            }
        }
    }
    Ok(())
}

fn parse_provider(seg: &str) -> Result<ProviderSpec, SpecError> {
    let mut opts = seg.split(':');
    let head = opts.next().unwrap_or_default();
    // Split off a `(key=value,...)` provider-parameter group, if present.
    let (name, params) = match head.find('(') {
        Some(at) => {
            let inner = head[at + 1..].strip_suffix(')').ok_or_else(|| {
                SpecError::BadProviderParam {
                    param: head.to_string(),
                    reason: "provider parameters must be '(key=value,...)'",
                }
            })?;
            (&head[..at], Some(inner))
        }
        None => (head, None),
    };
    if name != "tage" {
        // A stage token in the provider position is the classic
        // ill-formed chain ("chooser before any provider"). `name` is
        // already colon- and paren-split, so exact matching is the right
        // test — anything else is just an unknown token.
        if ["ium", "sc", "lsc", "loop"].contains(&name) {
            return Err(SpecError::StackMustStartWithProvider { found: name.to_string() });
        }
        return Err(SpecError::UnknownToken { token: head.to_string() });
    }
    let mut provider = ProviderSpec::reference();
    if let Some(inner) = params {
        parse_provider_params(inner, &mut provider)?;
    }
    for opt in opts {
        if opt == "lsc" {
            if provider.base != TageBase::Reference {
                return Err(SpecError::BadArg {
                    token: "tage".into(),
                    reason: "only one provider core option is allowed",
                });
            }
            provider.base = TageBase::LscCore;
        } else if let Some(rest) = opt.strip_prefix('b') {
            if provider.base != TageBase::Reference {
                return Err(SpecError::BadArg {
                    token: "tage".into(),
                    reason: "only one provider core option is allowed",
                });
            }
            let (tables, l1, lmax) = parse_triple(rest, "tage:b")?;
            provider.base = TageBase::Balanced { tables, l1, lmax };
        } else if let Some(rest) = opt.strip_prefix('h') {
            let (l1, lmax) = parse_pair(rest, "tage:h")?;
            provider.history = Some((l1, lmax));
        } else if let Some(rest) = opt.strip_prefix('x') {
            provider.scale = rest.parse().map_err(|_| SpecError::BadArg {
                token: "tage:x".into(),
                reason: "scale must be a (signed) integer",
            })?;
        } else {
            return Err(SpecError::UnknownToken { token: format!("tage:{opt}") });
        }
    }
    Ok(provider)
}

fn parse_stage(seg: &str) -> Result<StageSpec, SpecError> {
    let mut opts = seg.split(':');
    let head = opts.next().unwrap_or_default();
    if head.starts_with("tage(") {
        // A parameterized provider in a stage position.
        return Err(SpecError::DuplicateProvider);
    }
    let stage = match head {
        "tage" => return Err(SpecError::DuplicateProvider),
        "ium" => {
            let capacity = match opts.next() {
                None => DEFAULT_IUM_CAPACITY,
                Some(v) => v.parse().map_err(|_| SpecError::BadArg {
                    token: "ium".into(),
                    reason: "capacity must be an unsigned integer",
                })?,
            };
            StageSpec::Ium { capacity }
        }
        "sc" => StageSpec::Gsc,
        "lsc" => {
            let mut double_lht = false;
            let mut scale = 0i32;
            for opt in opts.by_ref() {
                if opt == "2lht" {
                    double_lht = true;
                } else if let Some(rest) = opt.strip_prefix('x') {
                    scale = rest.parse().map_err(|_| SpecError::BadArg {
                        token: "lsc:x".into(),
                        reason: "scale must be a (signed) integer",
                    })?;
                } else {
                    return Err(SpecError::UnknownToken { token: format!("lsc:{opt}") });
                }
            }
            StageSpec::Lsc { double_lht, scale }
        }
        "loop" => {
            let (entries, ways) = match opts.next() {
                None => (64, 4),
                Some(v) => parse_pair(v, "loop")?,
            };
            StageSpec::Loop { entries, ways }
        }
        // WILDCARD: open input domain — unknown stage tokens become
        // typed errors.
        _ => return Err(SpecError::UnknownToken { token: head.to_string() }),
    };
    if let Some(extra) = opts.next() {
        return Err(SpecError::UnknownToken { token: format!("{head}:{extra}") });
    }
    Ok(stage)
}

fn parse_pair(s: &str, token: &'static str) -> Result<(usize, usize), SpecError> {
    let bad = || SpecError::BadArg { token: token.into(), reason: "expected two comma-separated unsigned integers" };
    let (a, b) = s.split_once(',').ok_or_else(bad)?;
    Ok((a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?))
}

fn parse_triple(s: &str, token: &'static str) -> Result<(usize, usize, usize), SpecError> {
    let bad = || SpecError::BadArg { token: token.into(), reason: "expected three comma-separated unsigned integers" };
    let (a, rest) = s.split_once(',').ok_or_else(bad)?;
    let (b, c) = rest.split_once(',').ok_or_else(bad)?;
    Ok((a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?, c.parse().map_err(|_| bad())?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Predictor;

    #[test]
    fn presets_all_parse_and_build() {
        for (name, spec) in PRESETS {
            let parsed: SystemSpec = spec.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
            let stack = parsed.build().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(stack.storage_bits() > 0);
            // Canonical form round-trips.
            let display = parsed.to_string();
            let reparsed: SystemSpec = display.parse().unwrap();
            assert_eq!(parsed, reparsed, "{name}: '{display}' did not round-trip");
        }
    }

    #[test]
    fn tage_scale_stops_where_a_table_would_clamp() {
        // The reference tables span 2^10..=2^15 entries: x-4 takes T10–T12
        // to 2^6 and x9 the bimodal to 2^24. One step further, `scaled`
        // would clamp a table, so the spec is refused instead of quietly
        // building a different predictor (x40 used to build a
        // 3,018,752 Kbit TAGE).
        assert_eq!(TageConfig::reference_64kb().scale_range(), -4..=9);
        for ok in ["tage:x-4", "tage:x9", "tage:x-2", "tage:x6", "tage:lsc:x-4+ium+lsc"] {
            let spec: SystemSpec = ok.parse().unwrap_or_else(|e| panic!("{ok}: {e}"));
            assert!(spec.build().is_ok(), "{ok}");
        }
        for bad in ["tage:x-5", "tage:x10", "tage:x40", "tage:x-40", "tage:lsc:x10"] {
            let err = bad.parse::<SystemSpec>().unwrap_err();
            let refused = matches!(&err, SpecError::BadArg { token, .. } if token == "tage:x");
            assert!(refused, "{bad}: {err:?}");
        }
        // Each provider bounds its own tables: two balanced tables of 2^14
        // entries reach down to x-8.
        let cfg = TageConfig::balanced(2, 6, 2000);
        assert_eq!(cfg.scale_range(), -8..=9);
        assert!("tage:b2,6,2000:x-8".parse::<SystemSpec>().is_ok());
        assert!("tage:b2,6,2000:x-9".parse::<SystemSpec>().is_err());
        // Inside the range nothing clamps: every table moves by the delta.
        let reference = TageConfig::reference_64kb();
        for delta in [-4i32, 9] {
            let scaled = reference.scaled(delta);
            let moved = |to: u32, from: u32| to as i32 - from as i32 == delta;
            assert!(moved(scaled.bimodal_bits, reference.bimodal_bits), "x{delta}");
            for (&to, &from) in scaled.table_size_bits.iter().zip(&reference.table_size_bits) {
                assert!(moved(to, from), "x{delta}");
            }
        }
    }

    #[test]
    fn canonical_form_drops_defaults() {
        let spec: SystemSpec = "tage:x0+ium:64+loop:64,4".parse().unwrap();
        assert_eq!(spec.to_string(), "tage+ium+loop");
        // The delta-0 scaled spec canonicalizes onto the reference spec,
        // which is what lets the Figure 9 sweep share the reference suite.
        let scaled: SystemSpec = "tage:x0".parse().unwrap();
        let reference: SystemSpec = "tage".parse().unwrap();
        assert_eq!(scaled, reference);
        assert_eq!(scaled.to_string(), "tage");
    }

    #[test]
    fn stage_before_provider_is_typed_error() {
        let err = "ium+tage".parse::<SystemSpec>().unwrap_err();
        assert_eq!(err, SpecError::StackMustStartWithProvider { found: "ium".into() });
        let err = "loop:64,4".parse::<SystemSpec>().unwrap_err();
        assert!(matches!(err, SpecError::StackMustStartWithProvider { .. }));
    }

    #[test]
    fn duplicate_provider_and_stage_are_typed_errors() {
        assert_eq!("tage+tage".parse::<SystemSpec>().unwrap_err(), SpecError::DuplicateProvider);
        assert_eq!(
            "tage+ium+ium".parse::<SystemSpec>().unwrap_err(),
            SpecError::DuplicateStage { kind: StageKind::Ium }
        );
        assert_eq!(
            "tage+sc+lsc+sc".parse::<SystemSpec>().unwrap_err(),
            SpecError::DuplicateStage { kind: StageKind::Gsc }
        );
    }

    #[test]
    fn bad_arguments_are_typed_errors() {
        assert!(matches!(
            "tage+ium:3".parse::<SystemSpec>().unwrap_err(),
            SpecError::BadArg { .. }
        ));
        assert!(matches!(
            "tage+loop:63,4".parse::<SystemSpec>().unwrap_err(),
            SpecError::BadArg { .. }
        ));
        assert!(matches!(
            "tage:h9,3".parse::<SystemSpec>().unwrap_err(),
            SpecError::BadArg { .. }
        ));
        assert!(matches!(
            "tage:b40,6,1000".parse::<SystemSpec>().unwrap_err(),
            SpecError::BadArg { .. }
        ));
        assert!(matches!(
            "bogus".parse::<SystemSpec>().unwrap_err(),
            SpecError::UnknownToken { .. }
        ));
        // A token merely *prefixed* by a stage name is unknown, not a
        // stage-before-provider chain.
        assert!(matches!(
            "iummax+tage".parse::<SystemSpec>().unwrap_err(),
            SpecError::UnknownToken { .. }
        ));
        assert_eq!("".parse::<SystemSpec>().unwrap_err(), SpecError::Empty);
    }

    #[test]
    fn build_validates_hand_constructed_specs() {
        let mut spec = SystemSpec::reference();
        spec.stages = vec![StageSpec::ium(), StageSpec::ium()];
        assert_eq!(
            spec.build().unwrap_err(),
            SpecError::DuplicateStage { kind: StageKind::Ium }
        );
        let mut spec = SystemSpec::reference();
        spec.stages = vec![StageSpec::Ium { capacity: 48 }];
        assert!(matches!(spec.build().unwrap_err(), SpecError::BadArg { .. }));
    }

    #[test]
    fn novel_compositions_build() {
        // Compositions no experiment table covers must assemble too:
        // loop-without-SC at a 32 KB budget, and a corrector judging the
        // loop output (loop *before* sc in the chain).
        for s in ["tage:x-1+ium+loop", "tage+ium+loop+sc"] {
            let spec: SystemSpec = s.parse().unwrap();
            let stack = spec.build().unwrap();
            assert!(stack.storage_bits() > 0);
            assert_eq!(spec.to_string(), s);
        }
    }

    #[test]
    fn provider_params_round_trip_and_canonicalize() {
        // Explicit defaults canonicalize away — the decomposed default
        // provider shares the reference suite's memo label.
        let spec: SystemSpec = "tage(base=bimodal,chooser=altweak)+ium".parse().unwrap();
        assert_eq!(spec.to_string(), "tage+ium");
        assert_eq!(spec, "tage+ium".parse().unwrap());
        // Non-defaults stay, in fixed base-then-chooser order.
        for s in [
            "tage(chooser=always)",
            "tage(base=gshare)",
            "tage(base=2bc,chooser=conf)",
            "tage(base=gshare,chooser=conf):lsc:x-1+ium+lsc",
            "tage(chooser=always)+ium+sc+loop/ilv/as=ABLATED",
        ] {
            let spec: SystemSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s, "canonical form changed");
            let stack = spec.build().unwrap();
            assert!(simkit::Predictor::storage_bits(&stack) > 0);
        }
    }

    #[test]
    fn ill_formed_provider_params_are_typed_errors() {
        for s in [
            "tage()",                     // empty group
            "tage(base)",                 // no value
            "tage(base=)",                // empty value
            "tage(base=altweak)",         // chooser value in the base domain
            "tage(chooser=bimodal)",      // base value in the chooser domain
            "tage(chooser=gshare)",       // base value in the chooser domain
            "tage(base=bimodal,base=2bc)", // duplicate key
            "tage(speed=fast)",           // unknown key
            "tage(base=gshare",           // unclosed group
        ] {
            assert!(
                matches!(
                    s.parse::<SystemSpec>().unwrap_err(),
                    SpecError::BadProviderParam { .. }
                ),
                "'{s}' should be a typed provider-param error"
            );
        }
        // A parameterized provider in a stage position is a duplicate
        // provider, same as the bare token.
        assert_eq!(
            "tage+ium+tage(chooser=always)".parse::<SystemSpec>().unwrap_err(),
            SpecError::DuplicateProvider
        );
    }

    #[test]
    fn provider_params_change_the_sim_identity() {
        let plain: SystemSpec = "tage".parse().unwrap();
        let always: SystemSpec = "tage(chooser=always)".parse().unwrap();
        let gshare: SystemSpec = "tage(base=gshare)".parse().unwrap();
        assert_ne!(plain, always);
        assert_ne!(plain.to_string(), gshare.to_string());
        // The base changes the budget; the chooser does not.
        assert_eq!(plain.storage_bits().unwrap(), always.storage_bits().unwrap());
        assert_ne!(plain.storage_bits().unwrap(), gshare.storage_bits().unwrap());
    }

    #[test]
    fn spec_budget_matches_builder_budget() {
        let spec = SystemSpec::preset("tage-lsc").unwrap();
        assert_eq!(
            spec.storage_bits().unwrap(),
            spec.build().unwrap().storage_bits()
        );
    }
}
