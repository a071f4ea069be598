//! # tage-lint — repo-native static analysis
//!
//! The workspace's correctness story rests on conventions: one audited
//! `unsafe` prefetch, wildcard-free generator/codec matches, justified
//! relaxed atomics, fail-loudly error handling, and documentation that
//! tracks the spec grammar. This crate turns those conventions into
//! machine-checked invariants that gate CI the same way the golden tables
//! gate behaviour.
//!
//! It is deliberately self-contained and dependency-free: a lightweight
//! comment/string-aware tokenizer ([`lexer`]) instead of `syn` (the build
//! container is offline), a registry of named [`passes`], structured
//! [`diag::Diagnostic`]s with a hand-rolled JSON report, and per-pass
//! allowlists carried *in the source* as justification comments:
//!
//! | comment tag     | silences                         | pass                 |
//! |-----------------|----------------------------------|----------------------|
//! | `// SAFETY:`    | an `unsafe` block / scoped allow | `unsafe-policy`      |
//! | `// INVARIANT:` | `unwrap`/`expect`/`panic!`/…     | `panic-policy`       |
//! | `// WILDCARD:`  | a `_ =>` arm in a guarded module | `exhaustiveness-guard` |
//! | `// ORDERING:`  | an `Ordering::Relaxed`           | `atomics-ordering`   |
//!
//! The `doc-sync` pass has no source annotation — it is satisfied by
//! documenting the `SpecError` variant or `PRESETS` row it names.
//!
//! Run `cargo run -p tage-lint -- check --deny-all` (the CI gate) or
//! `-- list` for the pass registry. The lint lints its own crate: this
//! source tree is walked like any other.

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod driver;
pub mod lexer;
pub mod passes;
pub mod walk;

pub use config::LintConfig;
pub use diag::{Diagnostic, Report, Severity};
pub use driver::{render_pass_list, render_text, run_check};
