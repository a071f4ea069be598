//! # tage — the TAGE conditional branch predictor family
//!
//! A from-scratch implementation of the predictors of *"A New Case for the
//! TAGE Branch Predictor"* (André Seznec, MICRO 2011):
//!
//! * [`Tage`] — the TAGE predictor (§3): a [`base::Base`] table (the
//!   bimodal default prediction, or an ablation base), the
//!   [`tagged::TaggedBank`] (geometric-history tagged components with
//!   their u-bit allocation policy) and a [`chooser::Chooser`]
//!   (`USE_ALT_ON_NA` by default), each budgeted on its own row;
//! * [`ium::Ium`] — the Immediate Update Mimicker (§5.1);
//! * [`loop_pred::LoopPredictor`] — the loop predictor + speculative
//!   iteration management (§5.2);
//! * [`corrector::Gsc`] / [`corrector::Lsc`] — the global and local
//!   Statistical Correctors (§5.3, §6);
//! * [`stack::PredictorStack`] — one TAGE provider plus an *ordered
//!   chain* of side stages, evaluated in declaration order;
//! * [`banking`] — the §4.3 bank selector and index remapping that every
//!   table of a 4-way bank-interleaved stack shares;
//! * [`spec::SystemSpec`] — the declarative, serializable form of a
//!   stack and the one way to build it (one-line spec strings with a
//!   canonical grammar, typed [`spec::SpecError`] validation, and the
//!   paper's named presets as a [`spec::PRESETS`] data table);
//! * [`TageSystem`] — alias of the stack, with the paper's named presets:
//!   [`TageSystem::isl_tage`], [`TageSystem::tage_lsc`],
//!   [`TageSystem::full_stack`], and the scaled Figure-9 families.
//!
//! All predictors implement [`simkit::Predictor`], including the §4
//! delayed-update scenarios `[I]/[A]/[B]/[C]` and access accounting with
//! silent-update elimination.
//!
//! # Example
//!
//! Composing a stack declaratively and driving it:
//!
//! ```
//! use simkit::{BranchInfo, Predictor, UpdateScenario};
//! use tage::SystemSpec;
//!
//! let spec: SystemSpec = "tage:lsc+ium+lsc/as=TAGE-LSC".parse().unwrap();
//! let mut p = spec.build().unwrap();
//! let b = BranchInfo::conditional(0x40_0000);
//! let (pred, mut flight) = p.predict(&b);
//! let outcome = true;
//! p.fetch_commit(&b, outcome, &mut flight);
//! p.execute(&b, outcome, &mut flight);
//! p.retire(&b, outcome, pred, flight, UpdateScenario::RereadAtRetire);
//! assert!(p.storage_bits() <= 512 * 1024);
//! ```

#![forbid(unsafe_code)]

pub mod banking;
pub mod base;
pub mod chooser;
pub mod confidence;
pub mod config;
pub mod corrector;
pub mod ium;
pub mod loop_pred;
pub mod spec;
pub mod stack;
pub mod system;
pub mod tage;
pub mod tagged;

pub use base::{Base, BaseChoice};
pub use chooser::{Chooser, ChooserChoice};
pub use confidence::{classify, Confidence, ConfidenceStats};
pub use config::{TageConfig, MAX_TAGGED};
pub use corrector::{Gsc, Lsc};
pub use ium::{Ium, Outcomes};
pub use loop_pred::LoopPredictor;
pub use spec::{ProviderSpec, SpecError, StageSpec, SystemSpec, TageBase, PRESETS};
pub use stack::{PredictorStack, SideStage, StackFlight, StageKind};
pub use system::TageSystem;
pub use tage::{Tage, TageFlight};
pub use tagged::TaggedBank;
