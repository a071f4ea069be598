//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation. See DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results.
//!
//! Run with `cargo run --release -p harness --bin tage_exp -- <exp>` where
//! `<exp>` is one of the experiment ids `tage_exp --list` prints, or `all`.

#![forbid(unsafe_code)]

pub mod artifact;
pub mod cli;
pub mod cost;
pub mod ctx;
pub mod experiments;
pub mod runner;
pub mod sample_mode;
pub mod spec;
pub mod table;
pub mod trace_mode;

pub use artifact::{
    ArtifactError, BranchRow, RunArtifact, SamplingBlock, SchedulerBlock, TraceRow,
    ARTIFACT_SCHEMA,
};
pub use ctx::{ExpContext, ExpOptions, SchedulerStats};
pub use runner::WorkerPool;
pub use spec::PredictorSpec;
pub use table::Table;
