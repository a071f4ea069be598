//! Trace-driven simulation engine modeling the CBP-3 evaluation framework.
//!
//! The paper's experimental framework (§2) is trace-driven but "includes
//! features to model a simple out-of-order execution core with a realistic
//! memory hierarchy" and "allows to delay branch prediction table updates
//! till the retire stage in the pipeline". This crate rebuilds those
//! features:
//!
//! * [`core_model`] — a small out-of-order core timing model with an
//!   L1/L2/L3 cache hierarchy: branches that depend on loads resolve late,
//!   which both delays their *execute* event (IUM food) and raises their
//!   misprediction penalty (the MPPKI numerator);
//! * [`engine`] — the in-flight window: fetch-time prediction, speculative
//!   history commit, delayed execute and retire events, and the §4.1.2
//!   update scenarios `[I]/[A]/[B]/[C]`;
//! * [`report`] — per-trace and suite-level results: MPKI, MPPKI (the §2.1
//!   metric), predictor-table access counts.
//!
//! # Example
//!
//! ```
//! use pipeline::{simulate_engine, PipelineConfig, WindowEngine};
//! use simkit::UpdateScenario;
//! use workloads::suite::{by_name, Scale};
//!
//! let cfg = PipelineConfig::default();
//! let p = baselines::Gshare::new(12);
//! let mut engine = WindowEngine::new(p, UpdateScenario::RereadAtRetire, &cfg);
//! let r = simulate_engine(&mut engine, &mut by_name("MM01", Scale::Tiny).unwrap().stream());
//! assert!(r.conditionals > 0);
//! ```

#![forbid(unsafe_code)]

pub mod core_model;
pub mod engine;
pub mod report;
pub mod sampling;

pub use core_model::{CoreModel, MemoryHierarchy};
pub use engine::{
    simulate_engine, BlockSim, ChunkDriver, PipelineConfig, SimWindow, WindowEngine, DEFAULT_BATCH,
};
pub use report::{BranchProfile, BranchStat, SimReport, SuiteReport};
pub use sampling::{fixed_interval, Phase, SampledResult, SampleSlice};
