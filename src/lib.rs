//! # tage-repro — *A New Case for the TAGE Branch Predictor* (MICRO 2011)
//!
//! Facade crate re-exporting the whole reproduction workspace:
//!
//! * [`tage`] — the TAGE predictor family (TAGE, ISL-TAGE, TAGE-LSC with
//!   IUM, loop predictor and statistical correctors);
//! * [`baselines`] — bimodal, gshare, GEHL, and the CBP-3 neural
//!   contenders' stand-ins;
//! * [`workloads`] — the 40-trace synthetic CBP-3-like benchmark suite;
//! * [`pipeline`] — the trace-driven delayed-update simulation engine
//!   with its out-of-order core and cache-hierarchy penalty model;
//! * [`harness`] — the experiment runner regenerating every table and
//!   figure of the paper;
//! * [`simkit`] — shared counters, histories, RNG and the predictor
//!   lifecycle trait.
//!
//! # Quickstart
//!
//! ```
//! use simkit::UpdateScenario;
//! use pipeline::{simulate_engine, PipelineConfig, WindowEngine};
//! use workloads::suite::{by_name, Scale};
//!
//! let trace = by_name("MM01", Scale::Tiny).unwrap().generate();
//! let predictor = tage::TageSystem::tage_lsc();
//! let cfg = PipelineConfig::default();
//! let mut engine = WindowEngine::new(predictor, UpdateScenario::RereadAtRetire, &cfg);
//! let report = simulate_engine(&mut engine, &mut trace.stream());
//! println!("{}: {:.2} MPKI, {:.1} MPPKI", trace.name, report.mpki(), report.mppki());
//! ```
//!
//! See `README.md` for the repository tour and `cargo run --release -p
//! harness --bin tage_exp -- all` to regenerate the paper's evaluation.

#![forbid(unsafe_code)]

pub use baselines;
pub use harness;
pub use pipeline;
pub use simkit;
pub use tage;
pub use workloads;
