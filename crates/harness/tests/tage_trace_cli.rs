//! The `tage_trace` binary end to end: `record` writes `.ttr3` only,
//! `convert` picks its output format from the extension and refuses the
//! read-only `.ttr` v2, the removed output-format flags and extensions are
//! usage errors, `formats` lists the three codecs, and `inspect` still
//! autodetects the committed v2 fixture.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tage-trace-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tage_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tage_trace")).args(args).output().expect("run tage_trace")
}

fn ok(args: &[&str]) -> String {
    let out = tage_trace(args);
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Records Tiny CLIENT01 into a fresh `dir` and returns the file.
fn record_client(dir: &Path) -> PathBuf {
    ok(&["record", "CLIENT01", "--scale", "tiny", "--out", dir.to_str().unwrap()]);
    dir.join("CLIENT01.ttr3")
}

#[test]
fn record_writes_an_indexed_lz_ttr3_file() {
    let dir = temp_dir("record");
    let file = record_client(&dir);
    assert_eq!(file_names(&dir), ["CLIENT01.ttr3"]);
    let json = ok(&["inspect", file.to_str().unwrap(), "--json"]);
    assert!(json.contains("\"scheme\": \"lz\""), "{json}");
    assert!(json.contains("\"seek_check\": \"ok\""), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn convert_round_trips_ttr3_through_csv_byte_identically() {
    let dir = temp_dir("convert");
    let file = record_client(&dir);
    let csv = dir.join("CLIENT01.csv");
    let back = dir.join("back").join("CLIENT01.ttr3");
    std::fs::create_dir_all(back.parent().unwrap()).unwrap();
    ok(&["convert", file.to_str().unwrap(), csv.to_str().unwrap()]);
    ok(&["convert", csv.to_str().unwrap(), back.to_str().unwrap()]);
    assert_eq!(std::fs::read(&file).unwrap(), std::fs::read(&back).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn convert_to_ttr_v2_fails_and_leaves_no_file() {
    let dir = temp_dir("v2");
    let file = record_client(&dir);
    let out = tage_trace(&["convert", file.to_str().unwrap(), dir.join("x.ttr").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("read-only") && stderr.contains(".ttr3"), "{stderr}");
    assert_eq!(file_names(&dir), ["CLIENT01.ttr3"], "no x.ttr and no .tmp. file");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removed_format_flags_and_unknown_extensions_are_usage_errors() {
    let dir = temp_dir("flags");
    let file = record_client(&dir);
    let (f, d) = (file.to_str().unwrap(), dir.to_str().unwrap());
    for args in [
        vec!["record", "CLIENT01", "--out", d, "--compress"],
        vec!["record", "CLIENT01", "--out", d, "--format", "ttr3"],
        vec!["record", "CLIENT01", "--out", d, "--scheme", "lz"],
        vec!["convert", f, "x.csv", "--format", "csv"],
    ] {
        let out = tage_trace(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"), "{args:?}");
    }
    let bin = dir.join("b.bin");
    assert_eq!(tage_trace(&["convert", f, bin.to_str().unwrap()]).status.code(), Some(2));
    assert_eq!(file_names(&dir), ["CLIENT01.ttr3"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn convert_to_cbp_is_a_usage_error_naming_the_writable_formats() {
    let dir = temp_dir("cbp");
    let file = record_client(&dir);
    let cbp = dir.join("y.cbp");
    let out = tage_trace(&["convert", file.to_str().unwrap(), cbp.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(".ttr3") && stderr.contains(".csv"), "{stderr}");
    assert_eq!(file_names(&dir), ["CLIENT01.ttr3"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn formats_lists_exactly_the_three_codecs() {
    let listing = ok(&["formats"]);
    let names: Vec<&str> = listing
        .lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(names, ["ttr", "ttr3", "csv"], "{listing}");
}

#[test]
fn inspect_autodetects_the_committed_v2_fixture() {
    let gold = Path::new(env!("CARGO_MANIFEST_DIR")).join("../traces/tests/data/GOLD01.ttr");
    let json = ok(&["inspect", gold.to_str().unwrap(), "--json"]);
    assert!(json.contains("\"format\": \"ttr\""), "{json}");
    assert!(json.contains("\"events\": 10,"), "{json}");
}
