//! Lint configuration: which files are walked and which policies bind
//! where. The default configuration *is* this workspace's policy; tests
//! build custom configurations to lint fixture trees.

use std::path::PathBuf;

/// Configuration for one lint run.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Workspace root (the directory holding `crates/` and `src/`).
    pub root: PathBuf,
    /// Crate directories (under `crates/`) allowed to contain `unsafe`
    /// code. These must declare `#![deny(unsafe_code)]` with audited,
    /// `SAFETY:`-justified local allows; every other crate must declare
    /// `#![forbid(unsafe_code)]`.
    pub unsafe_allowed_crates: Vec<String>,
    /// Workspace-relative files under the exhaustiveness guard: `_ =>`
    /// match arms are denied there unless justified with `// WILDCARD:`.
    /// These are the generator/codec/spec modules where a silently
    /// swallowed new enum variant changes behaviour without a compile
    /// error.
    pub wildcard_guarded_files: Vec<String>,
    /// The file holding `enum SpecError` and the `PRESETS` table.
    pub spec_file: String,
    /// The file holding the `.ttr3` block-compression `SCHEMES` registry.
    pub scheme_file: String,
    /// The file holding the `RunArtifact`/`TraceRow` run-artifact schema
    /// and the `ARTIFACT_SCHEMA` version constant.
    pub artifact_file: String,
    /// The file holding the `tage.wire/2` protocol surface: the `FRAMES`
    /// frame-type table, the `Handshake` struct, and the `WIRE_SCHEMA`
    /// version constant — all pinned against DESIGN.md §9 by doc-sync.
    pub wire_file: String,
    /// Sampling-surface structs pinned by doc-sync, as
    /// `(workspace-relative file, struct name)` pairs. Every field of
    /// each struct must appear backticked in the documentation files —
    /// the window/phase/artifact-block trio is the user-facing sampling
    /// contract, and a field added to one of them without a doc update
    /// is a finding.
    pub sampling_structs: Vec<(String, String)>,
    /// Documentation files that must mention every `SpecError` variant,
    /// every `PRESETS` row, every `SCHEMES` row, every artifact schema
    /// field, and the artifact schema version (doc-sync).
    pub doc_files: Vec<String>,
}

impl LintConfig {
    /// The policy for this repository, rooted at `root`.
    pub fn for_workspace(root: PathBuf) -> Self {
        Self {
            root,
            // No crate needs unsafe: every crate forbids it.
            unsafe_allowed_crates: Vec::new(),
            wildcard_guarded_files: [
                // The generator's matches over `Behavior`: a new behaviour
                // must state how it emits outcomes, not fall through.
                "crates/workloads/src/behavior.rs",
                // Codec kind/type mappings: a new BranchKind must map, not fall through.
                "crates/traces/src/codec.rs",
                "crates/traces/src/decoder.rs",
                "crates/traces/src/ttr.rs",
                "crates/traces/src/ttr3.rs",
                "crates/traces/src/csv.rs",
                // The block-scheme registry: an unknown scheme byte must be
                // reported by name, not absorbed by a wildcard.
                "crates/traces/src/scheme.rs",
                // The spec grammar: every token/stage/param must be handled by name.
                "crates/core/src/spec.rs",
                // The wire protocol: an unknown frame tag must become a
                // typed error, not vanish into a wildcard.
                "crates/serve/src/wire.rs",
            ]
            .into_iter()
            .map(str::to_string)
            .collect(),
            spec_file: "crates/core/src/spec.rs".to_string(),
            scheme_file: "crates/traces/src/scheme.rs".to_string(),
            artifact_file: "crates/harness/src/artifact.rs".to_string(),
            wire_file: "crates/serve/src/wire.rs".to_string(),
            sampling_structs: [
                ("crates/pipeline/src/engine.rs", "SimWindow"),
                ("crates/pipeline/src/sampling.rs", "Phase"),
                ("crates/harness/src/artifact.rs", "SamplingBlock"),
            ]
            .into_iter()
            .map(|(f, s)| (f.to_string(), s.to_string()))
            .collect(),
            doc_files: vec!["DESIGN.md".to_string(), "EXPERIMENTS.md".to_string()],
        }
    }

    /// True when `rel_path` names a binary-target source (`src/bin/…` or
    /// `src/main.rs`): CLI entry points are exempt from the panic policy
    /// (a `panic!`/`expect` there aborts one invocation with a message,
    /// not a library caller).
    pub fn is_bin_source(rel_path: &str) -> bool {
        rel_path.contains("/src/bin/") || rel_path.ends_with("/src/main.rs")
    }
}
