//! Synthetic CBP-3-like branch trace suite and workload generators.
//!
//! The paper evaluates on the 40 traces of the 3rd Championship Branch
//! Prediction (CLIENT / INT / MM / SERVER / WS, ~50M µops each, user+system
//! activity, some with very large static branch footprints). Those traces
//! were distributed only to championship participants, so this crate builds
//! the closest synthetic equivalent: 40 deterministic traces, 8 per
//! category, each composed from explicit *branch behaviour classes* — the
//! behaviours the paper's predictors are designed around:
//!
//! * loops with constant iteration counts and regular **or irregular**
//!   bodies (loop predictor, §5.2);
//! * statistically biased branches uncorrelated with history (statistical
//!   corrector, §5.3);
//! * branches correlated only with their **local** history (LSC, §6);
//! * branches correlated with **global** history at short and very long
//!   lags (TAGE's geometric history core, §3);
//! * huge-period repetitive branches that only multi-megabit predictors
//!   capture (the CLIENT02 cliff of Figure 9);
//! * large static footprints (tag/aliasing pressure, SERVER);
//! * tight loops with multiple in-flight occurrences (delayed-update
//!   sensitivity, §4/§5.1).
//!
//! Every trace is generated from a named seed and is bit-reproducible.
//!
//! # Example
//!
//! ```
//! use workloads::suite::{suite, Scale};
//!
//! let specs = suite(Scale::Tiny);
//! assert_eq!(specs.len(), 40);
//! let trace = specs[0].generate();
//! assert!(!trace.events.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod behavior;
pub mod event;
pub mod program;
pub mod stats;
pub mod suite;

pub use event::{EventSource, Trace, TraceEvent, TraceStream};
pub use program::ProgramStream;
pub use stats::TraceStats;
pub use suite::{generate_parallel, suite, Category, Scale, TraceSpec};
