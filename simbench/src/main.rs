//! The simulator benchmark. One invocation runs one workload:
//!
//! ```text
//! simbench --workload sweep-small|serve-gshare --seed N
//!          --seconds S --trace 0|1 --root DIR --work DIR
//!          [--clk-tck N] [--rustc TEXT] [--commit TEXT]
//! ```
//!
//! It sets the workload up several times (the median is `setup_s`),
//! measures whole rounds (or, for serving, closed-loop sessions) for at
//! least `--seconds`, checks every output, and prints one JSON result as
//! the last line of stdout. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the workload untraced and traced, then the per-layer
//! ledger, and reports the per-layer metrics. `--root` is the repository
//! checkout (for its goldens); `--work` holds recorded traces, span dumps
//! and the digest record.

mod check;
mod host;
mod ledger;
mod serve;
mod sim;
mod spans;
mod stats;
mod sweep;

use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Worker threads or client connections every workload uses.
pub const THREADS: usize = 2;

/// Set-ups per invocation: at least `SETUP_REPS`, and more while they add
/// up to under `SETUP_SECONDS`, so a cheap set-up is sampled often enough
/// for a steady median (`setup_s`).
const SETUP_REPS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;

/// What one measured pass produced.
#[derive(Default)]
pub struct Pass {
    /// Timed wall time (set-up excluded).
    pub wall: Duration,
    /// Process CPU time (user + system) over the same region.
    pub cpu: Duration,
    /// Conditional-branch predictions of every cell or session the output
    /// required, memo hits included.
    pub predictions: u64,
    /// Cells or sessions attempted, and how many failed.
    pub ops: u64,
    pub failed: u64,
    /// Latency of each completed op (a round or a session) in ms, in
    /// blocks: percentiles are taken per block, and their median across
    /// blocks is reported.
    pub latency_blocks: Vec<Vec<f64>>,
    /// Simulation jobs run and requested; summed job time.
    pub jobs_run: u64,
    pub jobs_requested: u64,
    pub busy: Duration,
    pub spans: Vec<spans::Span>,
}

/// One benchmark workload.
pub trait Workload {
    /// One set-up; the caller times and repeats it.
    fn setup(&mut self) -> io::Result<()>;
    /// Untimed preparation after set-up (flushing files, reference outputs).
    fn prepare(&mut self) -> io::Result<()> {
        Ok(())
    }
    /// One measured pass of at least `seconds`; outputs are checked
    /// against `store`.
    fn pass(
        &mut self,
        seconds: f64,
        traced: bool,
        store: &mut check::DigestStore,
    ) -> io::Result<Pass>;
    /// Stops whatever set-up started.
    fn stop(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Wall and process CPU time since a start point.
pub struct Stopwatch {
    origin: Instant,
    cpu0: Duration,
    clk_tck: u64,
}

impl Stopwatch {
    pub fn start(clk_tck: u64) -> Self {
        Self {
            origin: Instant::now(),
            cpu0: host::process_cpu(clk_tck),
            clk_tck,
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Seconds since the start.
    pub fn elapsed(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// `(wall, cpu)` since the start.
    pub fn read(&self) -> (Duration, Duration) {
        (
            self.origin.elapsed(),
            host::process_cpu(self.clk_tck).saturating_sub(self.cpu0),
        )
    }
}

/// One reported figure.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    work: PathBuf,
    clk_tck: u64,
    rustc: String,
    commit: String,
}

const WORKLOADS: [&str; 2] = ["sweep-small", "serve-gshare"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        root: PathBuf::new(),
        work: PathBuf::new(),
        clk_tck: 100,
        rustc: "unknown".to_string(),
        commit: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)? as f64,
            "--trace" => args.trace = num(&value)? == 1,
            "--root" => args.root = value.into(),
            "--work" => args.work = value.into(),
            "--clk-tck" => args.clk_tck = num(&value)?,
            "--rustc" => args.rustc = value,
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds < 1.0 || args.root.as_os_str().is_empty() || args.work.as_os_str().is_empty() {
        return Err("--seconds (>= 1), --root and --work are required".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("simbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> io::Result<()> {
    std::fs::create_dir_all(&args.work)?;
    let mut store = check::DigestStore::open(&args.work, &args.workload)?;
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "sweep-small" => Box::new(sweep::Sweep::new(args.clk_tck, args.seed)),
        _ => Box::new(serve::Serve::new(args.clk_tck, args.seed, &args.work)),
    };
    let mut setups: Vec<f64> = Vec::new();
    while setups.len() < SETUP_REPS || setups.iter().sum::<f64>() < SETUP_SECONDS {
        let t0 = Instant::now();
        w.setup()?;
        setups.push(t0.elapsed().as_secs_f64());
    }
    w.prepare()?;

    let mut metrics = Vec::new();
    let (mut attempted, mut failed);
    if args.trace {
        let plain = w.pass(args.seconds, false, &mut store)?;
        let traced = w.pass(args.seconds, true, &mut store)?;
        w.stop()?;
        let spans_file = args.work.join(format!("spans-{}.tsv", args.workload));
        spans::write_tsv(&traced.spans, &spans_file)?;
        let per_prediction = |p: &Pass| p.wall.as_secs_f64() / p.predictions.max(1) as f64;
        let overhead = (per_prediction(&traced) / per_prediction(&plain) - 1.0) * 100.0;
        metrics.push(Metric::new("trace_overhead_pct", overhead, "%"));
        let t = &traced;
        let busy_share = t.busy.as_secs_f64() / (t.wall.as_secs_f64() * THREADS as f64);
        let memo = 1.0 - t.jobs_run as f64 / t.jobs_requested.max(1) as f64;
        let mean_job_ms = t.busy.as_secs_f64() * 1e3 / t.jobs_run.max(1) as f64;
        metrics.push(Metric::new("harness.jobs_run", t.jobs_run as f64, "count"));
        metrics.push(Metric::new(
            "harness.jobs_requested",
            t.jobs_requested as f64,
            "count",
        ));
        metrics.push(Metric::new("harness.memo_hit_ratio", memo, "ratio"));
        metrics.push(Metric::new("harness.pool_busy_share", busy_share, "ratio"));
        metrics.push(Metric::new("harness.mean_job_ms", mean_job_ms, "ms"));
        let ledger = ledger::run(&args.work)?;
        metrics.extend(ledger.metrics);
        attempted = plain.ops + traced.ops + ledger.ops;
        failed = plain.failed + traced.failed + ledger.failed;
    } else {
        let p = w.pass(args.seconds, false, &mut store)?;
        let rss = host::peak_rss_mib();
        w.stop()?;
        let predictions = p.predictions.max(1) as f64;
        metrics.push(Metric::new("setup_s", stats::median(&setups), "s"));
        metrics.push(Metric::new(
            "predictions_per_s",
            predictions / p.wall.as_secs_f64(),
            "1/s",
        ));
        metrics.push(Metric::new(
            "cpu_ns_per_prediction",
            p.cpu.as_secs_f64() * 1e9 / predictions,
            "ns",
        ));
        metrics.push(Metric::new("peak_rss_mb", rss, "MiB"));
        for (name, q) in [("session_p50_ms", 50.0), ("session_p95_ms", 95.0)] {
            let per_block: Vec<f64> = p
                .latency_blocks
                .iter()
                .map(|b| stats::percentile(b, q))
                .collect();
            metrics.push(Metric::new(name, stats::median(&per_block), "ms"));
        }
        let ops: usize = p.latency_blocks.iter().map(Vec::len).sum();
        if ops > 1 && p.latency_blocks.iter().any(|b| stats::beyond(b, 95.0) < 10) {
            eprintln!("simbench: {ops} ops completed; some block has under 10 beyond its p95");
        }
        attempted = p.ops;
        failed = p.failed;
    }
    store.save()?;

    // The repository's behaviour contract, once per invocation, after
    // everything timed (and after peak memory was read).
    for failure in check::goldens(&args.root, &args.work)? {
        eprintln!("simbench: golden check failed: {failure}");
        failed += 1;
        attempted += 1;
    }

    println!(
        "# host {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"threads\": {THREADS}, \
         \"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&host::cpu_model()),
        json_str(&args.rustc),
        json_str(&args.commit),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
