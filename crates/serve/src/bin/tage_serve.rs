//! `tage_serve` — prediction-as-a-service CLI.
//!
//! One binary, three roles: the server (default mode), a single-session
//! `client`, and the `manyclient` load bench. A fourth verb, `shutdown`,
//! asks a running server to drain gracefully.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use harness::artifact::RunArtifact;
use harness::cli::Flags;
use harness::Table;
use serve::wire::Handshake;
use serve::{
    request_shutdown, run_bench, run_one, ClientOptions, ManyClientOptions, ServeOptions,
};

fn usage() -> &'static str {
    "tage_serve — prediction-as-a-service for TAGE trace simulation (tage.wire/2)

USAGE:
  tage_serve [serve] [--host H] [--port N] [--max-sessions N] [--threads N] [--allow-fault-injection]
      Serve until a shutdown frame drains the server. `--port 0` binds an
      ephemeral port; the bound address is printed on stdout as
      `listening <addr>`.

  tage_serve client --addr HOST:PORT --spec SPEC [session options] TRACE
      Stream one trace file, print the per-trace result table, exit 1 on a
      typed server error.
        --artifacts DIR   write the result artifact verbatim (byte-identical
                          to `tage_exp system --trace ... --artifacts`)
        --quiet           suppress per-frame progress lines

  tage_serve manyclient --addr HOST:PORT --traces DIR --sessions N --spec SPEC
                        [session options] [--inject-panic N] [--json PATH]
                        [--min-throughput EV_PER_SEC]
      Run N concurrent sessions round-robin over the traces in DIR; print
      throughput and p50/p99 session latency. Exits 1 unless exactly the
      injected sessions (default none) failed, every failure has code
      `panic`, and the throughput gate (if given) holds.

  tage_serve shutdown --addr HOST:PORT
      Ask the server to drain and exit.

SESSION OPTIONS (client and manyclient):
  --scenario I|A|B|C   update scenario (default A)
  --skip N / --warmup N / --measure N   simulation window (events)
  --branch-stats       collect per-branch profiles
  --top N              per-branch rows kept in the artifact (default 20)
  --stats-every N      periodic stats frames every ~N events (default 0)
  --fault panic        fault-injection hook (server must allow it)
"
}

/// How a verb ended: `Err` carries the exit code of one that stopped
/// with its message already printed (2 on a usage error, 1 on a runtime
/// error or a failed gate).
type Run = Result<(), u8>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.first().map(String::as_str) {
        Some("client") => client_main(&args[1..]),
        Some("manyclient") => manyclient_main(&args[1..]),
        Some("shutdown") => shutdown_main(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            print!("{}", usage());
            Ok(())
        }
        // `serve` may be spelled out (symmetric with the other verbs) or
        // left implicit (bare flags).
        Some("serve") => serve_main(&args[1..]),
        _ => serve_main(&args),
    };
    ExitCode::from(run.err().unwrap_or(0))
}

fn bad_usage(msg: &str) -> u8 {
    eprintln!("error: {msg}\n");
    eprint!("{}", usage());
    2
}

fn runtime_error(e: impl std::fmt::Display) -> u8 {
    eprintln!("error: {e}");
    1
}

/// Parses one verb's command line with the shared [`Flags`] parser; an
/// unknown flag or a value flag that ends the line is a usage error.
fn parse(args: &[String], flags: &[&str], switches: &[&str]) -> Result<Flags, u8> {
    Flags::parse(args, flags, switches).map_err(|e| bad_usage(&e.to_string()))
}

/// A usage error for the first positional, for verbs that take none.
fn no_positionals(f: &Flags) -> Run {
    match f.positional.first() {
        Some(arg) => Err(bad_usage(&format!("unexpected argument {arg:?}"))),
        None => Ok(()),
    }
}

/// `name`'s value as a `T` that `ok` accepts, if given; anything else is
/// the usage error `msg`.
fn value<T: FromStr>(
    f: &Flags,
    name: &str,
    msg: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<Option<T>, u8> {
    f.flag(name).map(|v| v.parse().ok().filter(|x| ok(x)).ok_or_else(|| bad_usage(msg))).transpose()
}

/// `name`'s value as a `T`, if given; an unparsable one is `bad NAME`.
fn number<T: FromStr>(f: &Flags, name: &str) -> Result<Option<T>, u8> {
    value(f, name, &format!("bad {name}"), |_| true)
}

/// `name`'s value as a positive count, if given.
fn positive(f: &Flags, name: &str) -> Result<Option<usize>, u8> {
    value(f, name, &format!("{name} needs a positive number"), |n| *n > 0)
}

fn serve_main(args: &[String]) -> Run {
    let f = parse(
        args,
        &["--host", "--port", "--max-sessions", "--threads"],
        &["--allow-fault-injection"],
    )?;
    no_positionals(&f)?;
    let defaults = ServeOptions::default();
    let opts = ServeOptions {
        host: f.flag("--host").map_or(defaults.host, String::from),
        port: value(&f, "--port", "--port needs a number", |_| true)?.unwrap_or(defaults.port),
        max_sessions: positive(&f, "--max-sessions")?.unwrap_or(defaults.max_sessions),
        threads: positive(&f, "--threads")?,
        allow_fault_injection: f.switch("--allow-fault-injection"),
    };
    serve::serve(&opts).map_err(runtime_error)
}

/// Value flags of the session options `client` and `manyclient` share.
const SESSION_FLAGS: [&str; 9] = [
    "--addr",
    "--spec",
    "--scenario",
    "--skip",
    "--warmup",
    "--measure",
    "--top",
    "--stats-every",
    "--fault",
];

/// The handshake template the session options describe.
fn handshake(f: &Flags) -> Result<Handshake, u8> {
    let d = Handshake::default();
    let text = |name: &str, default: String| f.flag(name).map_or(default, String::from);
    Ok(Handshake {
        spec: text("--spec", d.spec),
        scenario: text("--scenario", d.scenario),
        skip: number(f, "--skip")?.unwrap_or(d.skip),
        warmup: number(f, "--warmup")?.unwrap_or(d.warmup),
        measure: number(f, "--measure")?.unwrap_or(d.measure),
        branch_stats: f.switch("--branch-stats"),
        top: number(f, "--top")?.unwrap_or(d.top),
        stats_every: number(f, "--stats-every")?.unwrap_or(d.stats_every),
        fault: text("--fault", d.fault),
        ..d
    })
}

fn client_main(args: &[String]) -> Run {
    let flags = [&SESSION_FLAGS[..], &["--artifacts"]].concat();
    let f = parse(args, &flags, &["--branch-stats", "--quiet"])?;
    let handshake = handshake(&f)?;
    let addr = f.flag("--addr").unwrap_or_default().to_string();
    if addr.is_empty() || handshake.spec.is_empty() || f.positional.len() != 1 {
        return Err(bad_usage("client needs --addr, --spec, and exactly one TRACE file"));
    }
    let trace = PathBuf::from(&f.positional[0]);

    let opts = ClientOptions { addr, handshake, quiet: f.switch("--quiet") };
    let result = run_one(&trace, &opts).map_err(runtime_error)?;
    if let Some(err) = &result.error {
        eprintln!("server error [{}]: {}", err.code, err.message);
        return Err(1);
    }
    let json = result.artifact_json.expect("ok result carries an artifact");
    let artifact = RunArtifact::from_json(&json)
        .map_err(|e| runtime_error(format!("result artifact did not parse: {e}")))?;
    println!(
        "# session: {} events, {} stats frame(s), {:.1} ms",
        result.events,
        result.stats_frames,
        result.elapsed.as_secs_f64() * 1e3
    );
    let mut table = Table::new(
        &format!("SERVED RESULT — spec {}, scenario {}", artifact.spec, artifact.scenario),
        &["trace", "category", "MPPKI"],
    );
    let suite = artifact
        .suite_report()
        .map_err(|e| runtime_error(format!("result artifact did not round-trip: {e}")))?;
    for r in &suite.reports {
        table.row(vec![r.trace.clone(), r.category.clone(), format!("{:.4}", r.mppki())]);
    }
    table.print();
    if let Some(dir) = f.flag("--artifacts") {
        std::fs::create_dir_all(dir).map_err(runtime_error)?;
        let path = Path::new(dir).join(artifact.file_name());
        // The payload bytes, not a re-serialization: byte-identical to the
        // offline `tage_exp system --trace --artifacts` output.
        std::fs::write(&path, json.as_bytes()).map_err(runtime_error)?;
        println!("# artifact: {}", path.display());
    }
    Ok(())
}

fn manyclient_main(args: &[String]) -> Run {
    let bench_flags = ["--traces", "--sessions", "--inject-panic", "--json", "--min-throughput"];
    let f = parse(args, &[&SESSION_FLAGS[..], &bench_flags].concat(), &["--branch-stats"])?;
    let handshake = handshake(&f)?;
    let sessions = number(&f, "--sessions")?.unwrap_or(0);
    let inject_panic = number(&f, "--inject-panic")?.unwrap_or(0);
    let min_throughput: Option<f64> = number(&f, "--min-throughput")?;
    let Some(traces_dir) = f.flag("--traces").map(PathBuf::from) else {
        return Err(bad_usage("manyclient needs --traces DIR"));
    };
    let addr = f.flag("--addr").unwrap_or_default().to_string();
    if addr.is_empty() || handshake.spec.is_empty() || sessions == 0 {
        return Err(bad_usage("manyclient needs --addr, --spec, and --sessions N"));
    }
    if inject_panic > sessions {
        return Err(bad_usage("--inject-panic cannot exceed --sessions"));
    }

    let opts = ManyClientOptions { addr, traces_dir, sessions, handshake, inject_panic };
    let (summary, outcomes) = run_bench(&opts).map_err(runtime_error)?;

    println!(
        "# manyclient: {} session(s), {} ok, {} error(s), {:.0} events/s, p50 {:.1} ms, p99 {:.1} ms",
        summary.sessions,
        summary.ok,
        summary.errors,
        summary.events_per_sec,
        summary.p50_ms,
        summary.p99_ms
    );
    for (code, n) in &summary.error_codes {
        println!("#   error [{code}]: {n} session(s)");
    }
    if let Some(path) = f.flag("--json") {
        std::fs::write(path, summary.to_json()).map_err(runtime_error)?;
        println!("# load-bench json: {path}");
    }

    // Gates: exactly the injected sessions fail, each with code `panic`.
    let mut failed_gate = false;
    for o in &outcomes {
        if o.injected && o.error_code.as_deref() != Some("panic") {
            eprintln!(
                "gate: injected session on {} should have failed with code panic, got {:?}",
                o.trace.display(),
                o.error_code
            );
            failed_gate = true;
        }
        if !o.injected && !o.is_ok() {
            eprintln!(
                "gate: healthy session on {} failed with {:?}",
                o.trace.display(),
                o.error_code
            );
            failed_gate = true;
        }
    }
    if let Some(min) = min_throughput {
        if summary.events_per_sec < min {
            eprintln!(
                "gate: throughput {:.0} events/s is below the {min:.0} events/s floor",
                summary.events_per_sec
            );
            failed_gate = true;
        }
    }
    if failed_gate {
        Err(1)
    } else {
        Ok(())
    }
}

fn shutdown_main(args: &[String]) -> Run {
    let f = parse(args, &["--addr"], &[])?;
    no_positionals(&f)?;
    let addr = f.flag("--addr").unwrap_or_default();
    if addr.is_empty() {
        return Err(bad_usage("shutdown needs --addr"));
    }
    request_shutdown(addr).map_err(runtime_error)?;
    println!("# shutdown acknowledged");
    Ok(())
}
