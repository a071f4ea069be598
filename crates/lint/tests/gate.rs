//! The acceptance gate for the linter itself:
//!
//! * the violation fixture tree fires every registered pass (and the
//!   justified decoy sites next to each violation stay quiet),
//! * the real workspace is clean under `--deny-all`,
//! * the `tage_lint` binary maps those two outcomes to exit codes 1
//!   and 0 respectively, and writes the JSON report artifact.

use std::path::{Path, PathBuf};
use std::process::Command;
use tage_lint::{run_check, LintConfig, Severity};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violations")
}

/// The fixture tree's policy: the workspace policy, plus an
/// unsafe-allowlisted crate (`core`), so the allowlisted-crate rules
/// (`deny` header, scoped and audited allows) stay covered now that no
/// workspace crate is allowlisted.
fn fixture_config() -> LintConfig {
    LintConfig {
        unsafe_allowed_crates: vec!["core".to_string()],
        ..LintConfig::for_workspace(fixture_root())
    }
}

fn workspace_root() -> PathBuf {
    // crates/lint/../.. — the directory holding Cargo.toml, crates/, src/.
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
}

#[test]
fn fixtures_fire_every_pass_and_spare_justified_sites() {
    let report = run_check(fixture_config(), false).expect("fixture tree is readable");
    assert!(!report.is_clean(), "fixture violations must deny the build");

    // Exact per-pass counts: any justified decoy firing, or any planted
    // violation missed, shifts a count.
    let counts: Vec<(&str, usize)> = report.pass_counts.clone();
    assert_eq!(
        counts,
        vec![
            ("unsafe-policy", 3),     // 2 missing crate headers + 1 bare unsafe
            ("panic-policy", 1),      // parse_count's unwrap
            ("exhaustiveness-guard", 1), // classify's bare `_ =>`
            ("atomics-ordering", 1),  // read_counter's Relaxed load
            // PhantomVariant + undocumented-preset + phantom-scheme
            // + phantom_counter artifact field + tage.run/99 version bump
            // + phantom_window_knob sampling-surface field
            // + phantom-frame wire row + phantom_handshake_knob field
            // + tage.wire/99 version bump
            ("doc-sync", 9),
        ],
        "full report:\n{}",
        tage_lint::render_text(&report)
    );

    let has = |pass: &str, file: &str, needle: &str| {
        report
            .diagnostics
            .iter()
            .any(|d| d.pass == pass && d.file == file && d.message.contains(needle))
    };
    assert!(has("unsafe-policy", "crates/core/src/lib.rs", "SAFETY"));
    assert!(has("unsafe-policy", "crates/core/src/lib.rs", "deny(unsafe_code)"));
    assert!(has("unsafe-policy", "crates/foo/src/lib.rs", "forbid(unsafe_code)"));
    assert!(has("panic-policy", "crates/foo/src/lib.rs", "unwrap"));
    assert!(has("exhaustiveness-guard", "crates/core/src/spec.rs", "WILDCARD"));
    assert!(has("atomics-ordering", "crates/foo/src/lib.rs", "ORDERING"));
    assert!(has("doc-sync", "crates/core/src/spec.rs", "PhantomVariant"));
    assert!(has("doc-sync", "crates/core/src/spec.rs", "undocumented-preset"));
    assert!(has("doc-sync", "crates/traces/src/scheme.rs", "phantom-scheme"));
    assert!(has("doc-sync", "crates/harness/src/artifact.rs", "phantom_counter"));
    assert!(has("doc-sync", "crates/harness/src/artifact.rs", "tage.run/99"));
    assert!(has("doc-sync", "crates/pipeline/src/engine.rs", "phantom_window_knob"));
    assert!(has("doc-sync", "crates/serve/src/wire.rs", "phantom-frame"));
    assert!(has("doc-sync", "crates/serve/src/wire.rs", "phantom_handshake_knob"));
    assert!(has("doc-sync", "crates/serve/src/wire.rs", "tage.wire/99"));

    // doc-sync stays advisory without --deny-all...
    assert!(report
        .diagnostics
        .iter()
        .filter(|d| d.pass == "doc-sync")
        .all(|d| d.severity == Severity::Advice));
    // ...and is promoted under it.
    let denied = run_check(fixture_config(), true).unwrap();
    assert!(denied.diagnostics.iter().all(|d| d.severity == Severity::Deny));
}

#[test]
fn workspace_is_clean_under_deny_all() {
    let report = run_check(LintConfig::for_workspace(workspace_root()), true)
        .expect("workspace is readable");
    assert!(
        report.is_clean(),
        "the workspace must pass its own gate; findings:\n{}",
        tage_lint::render_text(&report)
    );
    assert!(report.files_scanned > 50, "walk looks truncated: {}", report.files_scanned);
}

#[test]
fn binary_exit_codes_and_json_artifact() {
    let bin = env!("CARGO_BIN_EXE_tage_lint");
    let json = std::env::temp_dir().join("tage_lint_gate_test_report.json");

    // Violations → exit 1, and the JSON artifact is still written.
    let out = Command::new(bin)
        .args(["check", "--deny-all", "--json"])
        .arg(&json)
        .args(["--root"])
        .arg(fixture_root())
        .output()
        .expect("run tage_lint");
    assert_eq!(out.status.code(), Some(1), "stdout:\n{}", String::from_utf8_lossy(&out.stdout));
    let artifact = std::fs::read_to_string(&json).expect("JSON artifact written");
    assert!(artifact.contains("\"tool\": \"tage_lint\""));
    assert!(artifact.contains("PhantomVariant"));
    std::fs::remove_file(&json).ok();

    // Clean workspace → exit 0.
    let out = Command::new(bin)
        .args(["check", "--deny-all", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run tage_lint");
    assert_eq!(out.status.code(), Some(0), "stdout:\n{}", String::from_utf8_lossy(&out.stdout));

    // `list` names every registered pass.
    let out = Command::new(bin).arg("list").output().expect("run tage_lint list");
    assert_eq!(out.status.code(), Some(0));
    let listing = String::from_utf8_lossy(&out.stdout).to_string();
    for pass in
        ["unsafe-policy", "panic-policy", "exhaustiveness-guard", "atomics-ordering", "doc-sync"]
    {
        assert!(listing.contains(pass), "missing {pass} in:\n{listing}");
    }

    // Unknown flags and commands are usage errors, not findings.
    let out = Command::new(bin).args(["check", "--bogus"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(bin).arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}
