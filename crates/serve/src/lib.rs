//! Prediction-as-a-service: serve TAGE trace simulations over TCP.
//!
//! The `tage_serve` binary turns the offline `tage_exp system --trace`
//! recipe into a long-lived service: clients open a socket, send a
//! [`wire::Handshake`] naming a predictor spec and simulation options,
//! stream raw trace bytes in any registered `traces` codec (the server
//! sniffs the format from the first bytes, exactly like opening a file),
//! and receive the `tage.run/1` result artifact back — byte-identical to
//! what the offline run would have written.
//!
//! Layering:
//!
//! * [`wire`] — the `tage.wire/2` frame protocol: framing, handshake,
//!   typed errors (pinned against DESIGN.md §9 by `tage_lint`);
//! * [`session`] — one connection end-to-end: handshake → frame-fed trace
//!   decode → simulate → result;
//! * [`server`] — the std-only accept loop: `harness::WorkerPool` workers,
//!   admission limit, per-session panic fence, graceful drain;
//! * [`client`] — stream one trace, collect the artifact;
//! * [`manyclient`] — the concurrent load bench;
//! * [`stats`] — latency percentiles and the load-bench JSON summary.
//!
//! Design stance: **no async runtime**. The container is offline (no new
//! dependencies) and the workload is CPU-bound simulation, so blocking
//! sockets plus a worker pool give the same throughput with none of the
//! machinery. Backpressure is structural — the server reads trace bytes
//! only when the decoder wants more, so a fast client simply blocks in
//! TCP send.

#![forbid(unsafe_code)]

pub mod client;
pub mod manyclient;
pub mod server;
pub mod session;
pub mod stats;
pub mod wire;

pub use client::{request_shutdown, run_one, ClientOptions, SessionResult};
pub use manyclient::{collect_trace_files, run_bench, ManyClientOptions, SessionOutcome};
pub use server::{serve, BoundServer, ServeOptions};
pub use session::{run_session, SessionConfig, SessionEnd};
pub use stats::BenchSummary;
pub use wire::{Frame, FrameType, Handshake, WireError, MAX_FRAME_LEN, WIRE_SCHEMA};
