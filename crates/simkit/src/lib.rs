//! Shared simulation substrate for the TAGE reproduction.
//!
//! This crate hosts the small, heavily reused building blocks that both the
//! predictors (`tage`, `baselines`) and the simulation engine (`pipeline`)
//! depend on:
//!
//! * [`counter`] — saturating signed/unsigned counters, the universal branch
//!   prediction state element;
//! * [`history`] — global/path/local branch history registers and the
//!   *folded* history used to index TAGE's geometric-length tables in O(1);
//! * [`rng`] — deterministic, portable pseudo-random number generators
//!   (SplitMix64, Xoshiro256**) so every experiment is bit-reproducible;
//! * [`predictor`] — the predictor lifecycle trait shared by every predictor
//!   (the crate's one trait): `predict` → `fetch_commit` → `execute` →
//!   `retire`, with an associated `Flight` snapshot type that models the
//!   information a real pipeline propagates alongside each in-flight branch;
//! * [`stats`] — predictor-table access accounting (reads, effective writes,
//!   silent writes avoided) in the units used by §4 of the paper;
//! * [`bits`] — tiny bit-manipulation helpers.
//!
//! # Example
//!
//! ```
//! use simkit::counter::SignedCounter;
//!
//! let mut c = SignedCounter::new(3); // 3-bit: range [-4, 3]
//! assert!(c.is_taken()); // starts at 0 = weakly taken
//! c.decrement();
//! assert!(!c.is_taken());
//! ```

#![forbid(unsafe_code)]

pub mod bits;
pub mod counter;
pub mod history;
pub mod predictor;
pub mod rng;
pub mod threshold;
pub mod stats;

pub use counter::{SignedCounter, UnsignedCounter};
pub use history::{FoldedHistory, GlobalHistory, LocalHistories, PathHistory};
pub use predictor::{BranchInfo, BranchKind, Predictor, UpdateScenario};
pub use rng::{SplitMix64, Xoshiro256};
pub use stats::AccessStats;
pub use threshold::AdaptiveThreshold;
