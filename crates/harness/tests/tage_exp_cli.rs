//! The `tage_exp` binary end to end over recorded trace files: `system
//! --trace` with no spec is the trace-mode golden, `--threads` sizes its
//! pool and leaves the artifact bytes alone, `--scale` is refused next to
//! `--trace`, a file no codec claims names the known formats, duplicate
//! or label-only specs never overwrite each other's artifacts, and an
//! out-of-range spec is a usage error.

use harness::trace_mode::{record_spec, record_trace};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use workloads::suite::{by_name, Scale};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tage-exp-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Records the Tiny `names` into `dir` as `.ttr3`, like `tage_trace record`.
fn record(dir: &Path, names: &[&str]) -> Vec<PathBuf> {
    names.iter().map(|n| record_spec(&by_name(n, Scale::Tiny).unwrap(), dir).unwrap()).collect()
}

fn tage_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tage_exp")).args(args).output().expect("run tage_exp")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `system --trace` over `files`, plus `extra` flags; asserts exit 0.
fn system_trace(files: &[PathBuf], extra: &[&str]) -> String {
    let mut args = vec!["system"];
    for f in files {
        args.extend(["--trace", f.to_str().unwrap()]);
    }
    args.extend(extra);
    let out = tage_exp(&args);
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    stdout(&out)
}

fn without_comments(text: &str) -> String {
    text.lines().filter(|l| !l.starts_with('#')).map(|l| format!("{l}\n")).collect()
}

/// Every file in `dir`, sorted, as (name, bytes).
fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn system_trace_without_specs_prints_the_trace_mode_golden() {
    let dir = temp_dir("golden");
    let golden = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/trace_mode_expected.txt"),
    )
    .unwrap();
    let v3 = record(&dir, &["CLIENT01", "MM01"]);
    assert_eq!(without_comments(&system_trace(&v3, &[])), golden);
    // Mixed formats feed the matrix bit-identically: CSV CLIENT01 next to
    // the .ttr3 MM01.
    let client = by_name("CLIENT01", Scale::Tiny).unwrap().generate();
    let csv = record_trace(&client, &traces::CsvCodec, &dir).unwrap();
    let mixed = [csv, v3[1].clone()];
    assert_eq!(without_comments(&system_trace(&mixed, &[])), golden);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn system_trace_threads_size_the_pool_and_never_change_artifacts() {
    let dir = temp_dir("threads");
    let files = record(&dir, &["INT03", "WS05"]);
    let mut arts = Vec::new();
    for threads in ["1", "4"] {
        let out_dir = dir.join(format!("t{threads}"));
        let text = system_trace(
            &files,
            &["--threads", threads, "--branch-stats", "--artifacts", out_dir.to_str().unwrap()],
        );
        assert!(
            text.lines().next().unwrap().ends_with(&format!(", {threads} worker thread(s)")),
            "--threads {threads} must size the pool: {text}"
        );
        arts.push(dir_bytes(&out_dir));
    }
    assert_eq!(arts[0].len(), 6, "one artifact per matrix spec");
    assert_eq!(arts[0], arts[1], "artifact bytes differ between 1 and 4 threads");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn system_trace_refuses_scale() {
    let dir = temp_dir("scale");
    let files = record(&dir, &["WS01"]);
    let file = files[0].to_str().unwrap();
    let out = tage_exp(&["system", "tage", "--trace", file, "--scale", "full"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--scale"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn system_trace_names_the_known_formats_for_an_unrecognized_file() {
    // No codec claims a `.cbp` extension or these leading bytes.
    let dir = temp_dir("unknown-format");
    std::fs::create_dir_all(&dir).unwrap();
    let cbp = dir.join("y.cbp");
    std::fs::write(&cbp, b"no registered codec claims these bytes").unwrap();
    let out = tage_exp(&["system", "--trace", cbp.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unrecognized trace format (known: ttr, ttr3, csv)"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_and_label_only_specs_keep_the_first_artifact() {
    let dir = temp_dir("dups");
    let files = record(&dir, &["CLIENT01"]);
    let file = files[0].to_str().unwrap();
    for (mode, mut args) in [
        ("system", vec!["system", "tage", "tage", "tage/as=X", "--trace", file]),
        ("sample", vec!["sample", file, "--spec", "tage", "--spec", "tage/as=Y"]),
    ] {
        let out_dir = dir.join(mode);
        args.extend(["--artifacts", out_dir.to_str().unwrap()]);
        let out = tage_exp(&args);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = stdout(&out);
        assert_eq!(text.matches("# artifact: ").count(), 1, "{mode}: {text}");
        assert!(text.contains("# artifacts: 1 file(s)"), "{mode}: {text}");
        let art = harness::RunArtifact::load(&out_dir.join("tage__A.json")).unwrap();
        assert_eq!(art.predictor, "TAGE-511Kbit", "{mode}: the first spec's artifact must survive");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec past its predictor's bounds is refused at parse, not by a panic
/// in a pool worker.
#[test]
fn out_of_range_spec_is_a_usage_error() {
    // gshare:27 would abort in its constructor; tage:x40 would clamp every
    // table and quietly build a 3,018,752 Kbit TAGE.
    for spec in ["gshare:27", "tage:x40"] {
        let out = tage_exp(&["system", spec, "--scale", "tiny"]);
        assert_eq!(out.status.code(), Some(2), "{spec}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(&format!("bad spec '{spec}'")));
    }
}

#[test]
fn trace_is_an_unknown_experiment() {
    let out = tage_exp(&["trace", "a.ttr"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment 'trace'"));
}
