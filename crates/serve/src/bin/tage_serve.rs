//! `tage_serve` — prediction-as-a-service CLI.
//!
//! One binary, three roles: the server (default mode), a single-session
//! `client`, and the `manyclient` load bench. A fourth verb, `shutdown`,
//! asks a running server to drain gracefully.

use std::path::PathBuf;
use std::process::ExitCode;

use harness::artifact::RunArtifact;
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("client") => client_main(&args[1..]),
        Some("manyclient") => manyclient_main(&args[1..]),
        Some("shutdown") => shutdown_main(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            print!("{}", usage());
            0
        }
        // `serve` may be spelled out (symmetric with the other verbs) or
        // left implicit (bare flags).
        Some("serve") => serve_main(&args[1..]),
        _ => serve_main(&args),
    };
    ExitCode::from(code)
}

fn bad_usage(msg: &str) -> u8 {
    eprintln!("error: {msg}\n");
    eprint!("{}", usage());
    2
}

fn serve_main(args: &[String]) -> u8 {
    let mut opts = ServeOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--host" => match it.next() {
                Some(v) => opts.host = v.clone(),
                None => return bad_usage("--host needs a value"),
            },
            "--port" => match it.next().and_then(|v| v.parse::<u16>().ok()) {
                Some(v) => opts.port = v,
                None => return bad_usage("--port needs a number"),
            },
            "--max-sessions" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v > 0 => opts.max_sessions = v,
                _ => return bad_usage("--max-sessions needs a positive number"),
            },
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v > 0 => opts.threads = Some(v),
                _ => return bad_usage("--threads needs a positive number"),
            },
            "--allow-fault-injection" => opts.allow_fault_injection = true,
            other => return bad_usage(&format!("unknown serve flag {other:?}")),
        }
    }
    match serve::serve(&opts) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// Verb-specific flag hook: consume `arg` (pulling values off the
/// iterator) and return whether it was recognized.
type ExtraFlag<'a> = dyn FnMut(&str, &mut std::slice::Iter<String>) -> Result<bool, String> + 'a;

/// Parse the session options shared by `client` and `manyclient` into a
/// handshake template. Returns unconsumed positional arguments.
fn parse_session_flags(
    args: &[String],
    hs: &mut Handshake,
    addr: &mut String,
    extra: &mut ExtraFlag<'_>,
) -> Result<Vec<String>, String> {
    fn take(it: &mut std::slice::Iter<String>, name: &str) -> Result<String, String> {
        it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
    }
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => *addr = take(&mut it, "--addr")?,
            "--spec" => hs.spec = take(&mut it, "--spec")?,
            "--scenario" => hs.scenario = take(&mut it, "--scenario")?,
            "--skip" => {
                hs.skip = take(&mut it, "--skip")?.parse().map_err(|_| "bad --skip".to_string())?
            }
            "--warmup" => {
                hs.warmup =
                    take(&mut it, "--warmup")?.parse().map_err(|_| "bad --warmup".to_string())?
            }
            "--measure" => {
                hs.measure =
                    take(&mut it, "--measure")?.parse().map_err(|_| "bad --measure".to_string())?
            }
            "--branch-stats" => hs.branch_stats = true,
            "--top" => {
                hs.top = take(&mut it, "--top")?.parse().map_err(|_| "bad --top".to_string())?
            }
            "--stats-every" => {
                hs.stats_every = take(&mut it, "--stats-every")?
                    .parse()
                    .map_err(|_| "bad --stats-every".to_string())?
            }
            "--fault" => hs.fault = take(&mut it, "--fault")?,
            other => {
                if other.starts_with("--") {
                    if !extra(other, &mut it)? {
                        return Err(format!("unknown flag {other:?}"));
                    }
                } else {
                    positional.push(other.to_string());
                }
            }
        }
    }
    Ok(positional)
}

fn client_main(args: &[String]) -> u8 {
    let mut hs = Handshake::default();
    let mut addr = String::new();
    let mut artifacts: Option<PathBuf> = None;
    let mut quiet = false;
    let parsed = parse_session_flags(args, &mut hs, &mut addr, &mut |flag, it| match flag {
        "--artifacts" => {
            artifacts =
                Some(PathBuf::from(it.next().ok_or("--artifacts needs a value".to_string())?));
            Ok(true)
        }
        "--quiet" => {
            quiet = true;
            Ok(true)
        }
        _ => Ok(false),
    });
    let positional = match parsed {
        Ok(p) => p,
        Err(msg) => return bad_usage(&msg),
    };
    if addr.is_empty() || hs.spec.is_empty() || positional.len() != 1 {
        return bad_usage("client needs --addr, --spec, and exactly one TRACE file");
    }
    let trace = PathBuf::from(&positional[0]);

    let opts = ClientOptions { addr, handshake: hs, quiet };
    let result = match run_one(&trace, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    if let Some(err) = &result.error {
        eprintln!("server error [{}]: {}", err.code, err.message);
        return 1;
    }
    let json = result.artifact_json.expect("ok result carries an artifact");
    let artifact = match RunArtifact::from_json(&json) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: result artifact did not parse: {e}");
            return 1;
        }
    };
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
    let suite = match artifact.suite_report() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: result artifact did not round-trip: {e}");
            return 1;
        }
    };
    for r in &suite.reports {
        table.row(vec![r.trace.clone(), r.category.clone(), format!("{:.4}", r.mppki())]);
    }
    table.print();
    if let Some(dir) = artifacts {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("error: {e}");
            return 1;
        }
        let path = dir.join(artifact.file_name());
        // The payload bytes, not a re-serialization: byte-identical to the
        // offline `tage_exp system --trace --artifacts` output.
        if let Err(e) = std::fs::write(&path, json.as_bytes()) {
            eprintln!("error: {e}");
            return 1;
        }
        println!("# artifact: {}", path.display());
    }
    0
}

fn manyclient_main(args: &[String]) -> u8 {
    let mut hs = Handshake::default();
    let mut addr = String::new();
    let mut traces_dir: Option<PathBuf> = None;
    let mut sessions = 0usize;
    let mut inject_panic = 0usize;
    let mut json_out: Option<PathBuf> = None;
    let mut min_throughput: Option<f64> = None;
    let parsed = parse_session_flags(args, &mut hs, &mut addr, &mut |flag, it| {
        let mut take = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag {
            "--traces" => {
                traces_dir = Some(PathBuf::from(take("--traces")?));
                Ok(true)
            }
            "--sessions" => {
                sessions = take("--sessions")?.parse().map_err(|_| "bad --sessions".to_string())?;
                Ok(true)
            }
            "--inject-panic" => {
                inject_panic =
                    take("--inject-panic")?.parse().map_err(|_| "bad --inject-panic".to_string())?;
                Ok(true)
            }
            "--json" => {
                json_out = Some(PathBuf::from(take("--json")?));
                Ok(true)
            }
            "--min-throughput" => {
                min_throughput = Some(
                    take("--min-throughput")?
                        .parse()
                        .map_err(|_| "bad --min-throughput".to_string())?,
                );
                Ok(true)
            }
            _ => Ok(false),
        }
    });
    if let Err(msg) = parsed {
        return bad_usage(&msg);
    }
    let traces_dir = match traces_dir {
        Some(d) => d,
        None => return bad_usage("manyclient needs --traces DIR"),
    };
    if addr.is_empty() || hs.spec.is_empty() || sessions == 0 {
        return bad_usage("manyclient needs --addr, --spec, and --sessions N");
    }
    if inject_panic > sessions {
        return bad_usage("--inject-panic cannot exceed --sessions");
    }

    let opts = ManyClientOptions { addr, traces_dir, sessions, handshake: hs, inject_panic };
    let (summary, outcomes) = match run_bench(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };

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
    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, summary.to_json()) {
            eprintln!("error: {e}");
            return 1;
        }
        println!("# load-bench json: {}", path.display());
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
        1
    } else {
        0
    }
}

fn shutdown_main(args: &[String]) -> u8 {
    let mut addr = String::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => return bad_usage("--addr needs a value"),
            },
            other => return bad_usage(&format!("unknown shutdown flag {other:?}")),
        }
    }
    if addr.is_empty() {
        return bad_usage("shutdown needs --addr");
    }
    match request_shutdown(&addr) {
        Ok(()) => {
            println!("# shutdown acknowledged");
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}
