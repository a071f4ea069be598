//! The `tage_serve` binary's command line: a usage error exits 2 with the
//! usage text and names what is wrong; a runtime error exits 1.

use std::net::TcpListener;
use std::process::{Command, Output};

fn tage_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tage_serve")).args(args).output().expect("run tage_serve")
}

/// Asserts that `args` is a usage error whose message contains `want`.
fn usage_error(args: &[&str], want: &str) {
    let out = tage_serve(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(want), "{args:?}: want {want:?} in {stderr}");
    assert!(stderr.contains("USAGE:"), "{args:?}: no usage text in {stderr}");
}

#[test]
fn unknown_flags_and_stray_arguments_are_usage_errors() {
    usage_error(&["--bogus"], "unknown flag '--bogus'");
    usage_error(&["client", "--traces", "dir", "t.ttr"], "unknown flag '--traces'");
    usage_error(&["manyclient", "--quiet"], "unknown flag '--quiet'");
    usage_error(&["shutdown", "--port", "1"], "unknown flag '--port'");
    usage_error(&["serve", "stray"], "unexpected argument \"stray\"");
}

#[test]
fn a_flag_without_its_value_is_a_usage_error() {
    usage_error(&["serve", "--port"], "--port expects a value");
    usage_error(&["client", "t.ttr", "--spec"], "--spec expects a value");
    usage_error(&["manyclient", "--traces"], "--traces expects a value");
    usage_error(&["shutdown", "--addr"], "--addr expects a value");
}

#[test]
fn bad_numbers_and_missing_requirements_keep_their_messages() {
    usage_error(&["--port", "http"], "--port needs a number");
    usage_error(&["--max-sessions", "0"], "--max-sessions needs a positive number");
    usage_error(&["--threads", "-1"], "--threads needs a positive number");
    usage_error(&["client", "--skip", "ten", "t.ttr"], "bad --skip");
    usage_error(&["manyclient", "--min-throughput", "fast"], "bad --min-throughput");
    usage_error(&["client", "--spec", "tage", "t.ttr"], "client needs --addr, --spec");
    usage_error(&["manyclient", "--sessions", "2"], "manyclient needs --traces DIR");
    usage_error(&["shutdown"], "shutdown needs --addr");
}

#[test]
fn a_refused_connection_is_a_runtime_error() {
    // A port that was just free: nothing listens on it any more.
    let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().to_string();
    let out = tage_serve(&["shutdown", "--addr", &addr]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: ") && !stderr.contains("USAGE:"), "{stderr}");
}
