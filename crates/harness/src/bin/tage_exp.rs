//! `tage_exp` — regenerate the paper's tables and figures.
//!
//! ```text
//! tage_exp <experiment|all> [--scale tiny|small|default|full]
//!          [--threads N] [--list]
//!          [--artifacts DIR] [--branch-stats] [--top N]
//! tage_exp system <spec...> [--scenario I|A|B|C] [--scale ...] [--threads N]
//!          [--artifacts DIR] [--branch-stats] [--top N]
//! tage_exp system [spec...] --trace FILE... [--scenario I|A|B|C] [--threads N]
//!          [--artifacts DIR] [--branch-stats] [--top N]
//! tage_exp budgets
//! tage_exp sample <file...> [--spec SPEC]... [sampling knobs] [--threads N]
//!          [--artifacts DIR] [--top N]
//! tage_exp report <artifact|dir...> [--top N] [--fail-over PCT]
//! ```
//!
//! Experiments are declarative: each is a table of (predictor spec ×
//! update scenario) rows fed to one generic sweep runner. `tage_exp all`
//! prefetches every experiment's suites onto the worker pool before
//! rendering the first table, so independent experiments overlap;
//! duplicate suites are memoized by canonical spec string and run exactly
//! once. The 40-trace suite is generated once per invocation, one pool
//! job per trace, and every simulate job streams one of its traces.
//!
//! `tage_exp system` simulates *any* user-composed predictor stack over
//! the suite — including compositions no experiment table covers, e.g.
//! `tage:x-1+ium+loop` (loop predictor without the SC at a 32 KB
//! budget). `tage_exp budgets` prints the per-component storage budget of
//! every named preset next to the paper's figures.
//!
//! `tage_exp system --trace` leaves the synthetic suite behind: it runs
//! the specs — by default the full predictor matrix — over external
//! trace files (`.ttr`, `.ttr3`, CSV — autodetected), one pool job per
//! (spec × file), grouped into categories by trace metadata or filename
//! prefix. It is the offline twin of a `tage_serve` session.
//!
//! Every simulating mode takes `--artifacts DIR` to drop one versioned
//! JSON [`RunArtifact`] per unique (composition, scenario) run next to
//! its text tables, `--branch-stats` to run the opt-in per-static-branch
//! profiler (top `--top` branches land in the artifacts), and `tage_exp
//! report` turns artifacts back into tables: suite summaries, hot-branch
//! rankings, and MPPKI diffs against the first artifact as baseline
//! (`--fail-over PCT` makes regressions fail the exit code for CI).

use harness::artifact::{
    collect_paths, scenario_from_label, RunArtifact, SamplingBlock, SchedulerBlock,
};
use harness::cli::{FlagError, Flags};
use harness::experiments::{by_id, prefetch, ALL_EXPERIMENTS, EXPERIMENTS};
use harness::runner::default_threads;
use harness::sample_mode::{self, SampleOptions};
use harness::spec::PAPER_BUDGET_BITS;
use harness::{trace_mode, ExpContext, ExpOptions, PredictorSpec, Table, WorkerPool};
use pipeline::{PipelineConfig, SuiteReport};
use simkit::{Predictor, UpdateScenario};
use std::path::{Path, PathBuf};
use workloads::suite::{Scale, HARD_TRACES};

/// How an invocation ended: `Err` carries the exit code of one that
/// stopped early with its output already printed (0 after `--help`,
/// 2 on a usage error, 1 on a run failure).
type Run = Result<(), i32>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.first().map(String::as_str) {
        Some("sample") => sample_mode(&args[1..]),
        Some("system") => system_mode(&args[1..]),
        Some("budgets") => budgets_mode(),
        Some("report") => report_mode(&args[1..]),
        _ => experiments_mode(&args),
    };
    std::process::exit(run.err().unwrap_or(0));
}

/// Default cap on per-trace branch rows stored in artifacts and on
/// hot-branch table rows in `tage_exp report`.
const DEFAULT_TOP: usize = 20;

/// Prints a usage error; its exit code is 2.
fn usage_error(msg: &str) -> i32 {
    eprintln!("{msg}");
    2
}

/// Parses one mode's command line with the shared [`Flags`] parser. A
/// malformed line is a usage error (an unknown flag is reported with
/// `context` appended); `--help`/`-h` prints the usage and stops with 0.
fn parse(args: &[String], flags: &[&str], switches: &[&str], context: &str) -> Result<Flags, i32> {
    let switches: Vec<&str> = switches.iter().copied().chain(["--help", "-h"]).collect();
    let f = Flags::parse(args, flags, &switches).map_err(|e| match e {
        FlagError::Unknown(_) => usage_error(&format!("{e}{context}")),
        FlagError::MissingValue(_) => usage_error(&e.to_string()),
    })?;
    if f.switch("--help") || f.switch("-h") {
        print_usage();
        return Err(0);
    }
    Ok(f)
}

/// `name`'s value as a `T` that `ok` accepts, if given; anything else
/// is a usage error naming `what` the flag expects.
fn value<T: std::str::FromStr>(
    f: &Flags,
    name: &str,
    what: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<Option<T>, i32> {
    f.flag(name)
        .map(|v| match v.parse::<T>() {
            Ok(x) if ok(&x) => Ok(x),
            _ => Err(usage_error(&format!("{name} expects {what} (got '{v}')"))),
        })
        .transpose()
}

/// `name`'s value as a positive integer, if given.
fn positive(f: &Flags, name: &str) -> Result<Option<usize>, i32> {
    value(f, name, "a positive integer", |n: &usize| *n >= 1)
}

/// `name`'s value as a non-negative percentage, if given.
fn percent(f: &Flags, name: &str) -> Result<Option<f64>, i32> {
    value(f, name, "a non-negative percentage", |p: &f64| *p >= 0.0)
}

/// `--scale`, `default` when absent.
fn scale(f: &Flags, default: Scale) -> Result<Scale, i32> {
    match f.flag("--scale") {
        None => Ok(default),
        Some(v) => Scale::parse(v)
            .ok_or_else(|| usage_error(&format!("unknown scale '{v}' (tiny|small|default|full)"))),
    }
}

/// Parses predictor specs, reporting the first bad one.
fn parse_specs<'a>(texts: impl IntoIterator<Item = &'a str>) -> Result<Vec<PredictorSpec>, i32> {
    texts
        .into_iter()
        .map(|s| PredictorSpec::parse(s).map_err(|e| usage_error(&format!("bad spec '{s}': {e}"))))
        .collect()
}

/// The one artifact writer: writes each artifact into `dir` under its
/// [`RunArtifact::file_name`], keeping the first artifact per name —
/// duplicate and label-only specs share a `sim_key`, hence a file — and
/// counting only the files it wrote. Artifacts are taken lazily, so a
/// skipped duplicate is never serialized.
fn write_artifacts(dir: &Path, arts: impl IntoIterator<Item = RunArtifact>) -> Run {
    let mut written: Vec<String> = Vec::new();
    for art in arts {
        let name = art.file_name();
        if written.contains(&name) {
            continue;
        }
        match art.write_to_dir(dir) {
            Ok(path) => println!("# artifact: {}", path.display()),
            Err(e) => {
                eprintln!("artifact write failed for {name}: {e}");
                return Err(1);
            }
        }
        written.push(name);
    }
    println!("# artifacts: {} file(s) in {}", written.len(), dir.display());
    Ok(())
}

/// `tage_exp <experiment...|all>`: render experiment tables over the
/// synthetic suite.
fn experiments_mode(args: &[String]) -> Run {
    let f = parse(
        args,
        &["--scale", "--threads", "--artifacts", "--top"],
        &["--branch-stats", "--list"],
        "",
    )?;
    if f.switch("--list") {
        // Spec counts and descriptions come straight from the
        // experiment registry's run tables — nothing hand-kept.
        let mut t = Table::new("experiments", &["id", "specs", "description"]);
        for exp in EXPERIMENTS {
            t.row(vec![
                exp.id.to_string(),
                exp.runs().len().to_string(),
                exp.description.to_string(),
            ]);
        }
        t.print();
        return Ok(());
    }
    let mut scale = scale(&f, Scale::Default)?;
    let threads = positive(&f, "--threads")?;
    let top = positive(&f, "--top")?.unwrap_or(DEFAULT_TOP);
    let branch_stats = f.switch("--branch-stats");
    let mut targets: Vec<&str> = f.positional.iter().map(String::as_str).collect();
    if targets.is_empty() {
        // Bare invocation: run the whole sweep, defaulting to the smoke-test
        // scale (unless --scale was given) so `cargo run --bin tage_exp`
        // demonstrates every experiment quickly.
        targets.push("all");
        if f.flag("--scale").is_none() {
            scale = Scale::Tiny;
        }
        println!("# no experiment given: running `all` at scale {scale:?} (see --help)");
    }
    // Validate every requested target (not just the post-`all` expansion,
    // so `tage_exp all bogus` fails loudly instead of silently passing).
    let mut bad = false;
    for t in &targets {
        if *t != "all" && by_id(t).is_none() {
            eprintln!("unknown experiment '{t}'");
            bad = true;
        }
    }
    if bad {
        print_usage();
        return Err(2);
    }
    let ids: Vec<&str> = if targets.contains(&"all") { ALL_EXPERIMENTS.to_vec() } else { targets };
    println!("# tage_exp: scale={scale:?} ({} branches/trace)", scale.branches());
    let start = std::time::Instant::now();
    let ctx = ExpContext::with_options(scale, ExpOptions { threads, branch_stats });
    if branch_stats {
        println!("# branch stats: per-static-branch profiler on (top {top} land in artifacts)");
    }
    println!(
        "# generated 40 traces in {:.1}s ({} worker threads)",
        start.elapsed().as_secs_f32(),
        ctx.threads()
    );
    // Cross-experiment pipelining: enqueue every experiment's suites
    // before rendering the first table.
    prefetch(&ctx, &ids);
    for id in &ids {
        let t0 = std::time::Instant::now();
        // Every id was validated against the registry above, so the
        // dispatcher cannot miss.
        harness::experiments::run(id, &ctx);
        println!("# [{id}] done in {:.1}s\n", t0.elapsed().as_secs_f32());
    }
    let s = ctx.scheduler_stats();
    println!(
        "# scheduler: {} simulate jobs run of {} requested ({} suite runs served from cache) in {:.1}s",
        s.sim_jobs_run,
        s.sim_jobs_requested,
        s.suite_memo_hits,
        start.elapsed().as_secs_f32()
    );
    println!(
        "# scheduler: {:.1}s simulate busy across workers, {:.1}ms mean job",
        s.busy_seconds(),
        s.mean_job_millis()
    );
    if let Some(dir) = f.flag("--artifacts") {
        let runs = ids.iter().filter_map(|id| by_id(id)).flat_map(|exp| exp.runs());
        suite_artifacts(Path::new(dir), &ctx, runs.map(|r| (r.spec, r.scenario)), top)?;
    }
    Ok(())
}

/// Writes the artifacts of suite runs that already ran: every request
/// below is a memo hit, not a re-simulation, and every artifact embeds
/// one scheduler snapshot taken before them, so its counters describe
/// the simulation work, not the serialization pass.
fn suite_artifacts(
    dir: &Path,
    ctx: &ExpContext,
    runs: impl IntoIterator<Item = (PredictorSpec, UpdateScenario)>,
    top: usize,
) -> Run {
    let block = SchedulerBlock::from_stats(&ctx.scheduler_stats());
    write_artifacts(
        dir,
        runs.into_iter().map(|(spec, scenario)| {
            let suite = ctx.run_spec(&spec, scenario);
            let key = spec.sim_key();
            RunArtifact::from_suite(&key, scenario, ctx.scale.as_str(), &suite, Some(block), top)
        }),
    )
}

fn print_usage() {
    println!("usage: tage_exp <experiment|all> [--scale tiny|small|default|full]");
    println!("                [--threads N] [--list]");
    println!("                [--artifacts DIR] [--branch-stats] [--top N]");
    println!("       tage_exp system <spec...> [--scenario I|A|B|C] [--scale ...] [--threads N]");
    println!("                [--artifacts DIR] [--branch-stats] [--top N]");
    println!("       tage_exp system [spec...] --trace FILE... [--scenario I|A|B|C] [--threads N]");
    println!("                [--artifacts DIR] [--branch-stats] [--top N]");
    println!("       tage_exp budgets");
    println!("       tage_exp sample <file...> [--phases N] [--warmup W] [--measure M]");
    println!("                [--seed S] [--spec SPEC]... [--full-check PCT]");
    println!("                [--threads N] [--artifacts DIR] [--top N]");
    println!("       tage_exp report <artifact|dir...> [--top N] [--fail-over PCT]");
    println!("  --threads N   worker threads (default: CPUs, max 16)");
    println!("  --list        print the experiment ids, spec counts and descriptions");
    println!("  --artifacts DIR   write one versioned JSON run artifact per unique");
    println!("                    (composition, scenario) run into DIR");
    println!("  --branch-stats    collect opt-in per-static-branch counters (profiles");
    println!("                    ride into artifacts; tables stay byte-identical)");
    println!("  --top N           branch rows kept per trace in artifacts and shown");
    println!("                    by report (default {DEFAULT_TOP})");
    println!("  report <paths...> render artifacts back into tables: suite summary,");
    println!("                    hot branches, MPPKI diff vs the first artifact;");
    println!("                    --fail-over PCT exits 1 when any diff row regresses");
    println!("                    by more than PCT percent (CI gate)");
    println!("  system <spec...>  simulate user-composed predictor stacks over the suite,");
    println!("                    e.g. 'tage:x-1+ium+loop' or the provider-internal ablations");
    println!("                    'tage(base=gshare,chooser=always)' (see DESIGN.md §2)");
    println!("  --trace FILE      system mode: run the specs over external trace files");
    println!("                    (.ttr / .ttr3 / .csv, format autodetected) instead");
    println!("                    of the suite, one pool job per (spec x file); repeatable.");
    println!("                    With no spec: the predictor matrix (gshare, GEHL, TAGE,");
    println!("                    TAGE+IUM, ISL-TAGE, TAGE-LSC). The offline twin of a");
    println!("                    tage_serve session: served results match it exactly");
    println!("  budgets          per-component storage budgets of the named presets");
    println!("                   (TAGE's base/tagged/chooser rows + side stages)");
    println!("  sample <file...> sampled simulation: fixed-interval warmup/measure");
    println!("                   slices, one pool job per (spec x slice), summed into");
    println!("                   a whole-trace MPPKI estimate (defaults: 8 phases,");
    println!("                   10k warmup + 40k measure, the predictor matrix)");
    println!("  --full-check PCT sample mode: also run every (spec, file) in full and");
    println!("                   exit 1 when any sampled MPPKI is off by > PCT percent");
    println!("experiments:");
    for exp in EXPERIMENTS {
        println!("  {:<12} {}", exp.id, exp.description);
    }
}

/// `tage_exp system [spec...]`: simulate arbitrary compositions over the
/// synthetic suite, or with `--trace` over external trace files.
fn system_mode(args: &[String]) -> Run {
    let f = parse(
        args,
        &["--scale", "--threads", "--scenario", "--artifacts", "--top", "--trace"],
        &["--branch-stats"],
        " for system mode",
    )?;
    let threads = positive(&f, "--threads")?;
    let top = positive(&f, "--top")?.unwrap_or(DEFAULT_TOP);
    let scenario = match f.flag("--scenario") {
        None => UpdateScenario::RereadAtRetire,
        Some(v) => scenario_from_label(v)
            .map_err(|_| usage_error(&format!("--scenario expects I, A, B or C (got '{v}')")))?,
    };
    let specs = parse_specs(f.positional.iter().map(String::as_str))?;
    let artifacts = f.flag("--artifacts").map(Path::new);
    let branch_stats = f.switch("--branch-stats");
    let files: Vec<PathBuf> = f.values("--trace").into_iter().map(PathBuf::from).collect();
    if !files.is_empty() {
        if f.flag("--scale").is_some() {
            return Err(usage_error(
                "--scale does not apply with --trace: the trace files are the workload",
            ));
        }
        let cfg = PipelineConfig { branch_stats, ..PipelineConfig::default() };
        return system_trace(specs, scenario, files, &cfg, threads, artifacts, top);
    }
    let scale = scale(&f, Scale::Default)?;
    if specs.is_empty() {
        eprintln!("system mode: no predictor specs given");
        print_usage();
        return Err(2);
    }
    let start = std::time::Instant::now();
    println!("# tage_exp system: scale={scale:?}, scenario {scenario}, {} spec(s)", specs.len());
    let ctx = ExpContext::with_options(scale, ExpOptions { threads, branch_stats });
    for spec in &specs {
        ctx.prefetch_spec(spec, scenario);
    }
    let mut t = Table::new(
        &format!("SYSTEM MODE — user-composed stacks, scenario {scenario}"),
        &["spec", "predictor", "Kbit", "MPPKI", "hard-7", "easy-33"],
    );
    for spec in &specs {
        let suite = ctx.run_spec(spec, scenario);
        let built = spec.build_engine(scenario, &ctx.cfg).expect("spec validated at parse");
        t.row(vec![
            spec.to_string(),
            built.predictor_name(),
            (built.storage_bits() / 1024).to_string(),
            format!("{:.1}", suite.mppki()),
            format!("{:.1}", suite.mppki_of(&HARD_TRACES)),
            format!("{:.1}", suite.mppki_excluding(&HARD_TRACES)),
        ]);
    }
    t.print();
    if let Some(dir) = artifacts {
        suite_artifacts(dir, &ctx, specs.into_iter().map(|s| (s, scenario)), top)?;
    }
    println!("# system mode done in {:.1}s", start.elapsed().as_secs_f32());
    Ok(())
}

/// `tage_exp system --trace`: specs (none given: the predictor
/// [`trace_mode::MATRIX`]) over external trace files instead of the
/// synthetic suite, one pool job per (spec × file). The offline twin of
/// a `tage_serve` session (both funnel through
/// [`trace_mode::run_spec_cell`]), and the bit-identity anchor for
/// served artifacts: `--artifacts` emits exactly the bytes a session's
/// result frame carries.
fn system_trace(
    specs: Vec<PredictorSpec>,
    scenario: UpdateScenario,
    files: Vec<PathBuf>,
    cfg: &PipelineConfig,
    threads: Option<usize>,
    artifacts: Option<&Path>,
    top: usize,
) -> Run {
    let specs = if specs.is_empty() { trace_mode::matrix_specs() } else { specs };
    let start = std::time::Instant::now();
    let pool = WorkerPool::new(threads.unwrap_or_else(default_threads));
    println!(
        "# tage_exp system: {} spec(s) over {} external trace file(s), scenario {scenario}, {} worker thread(s)",
        specs.len(),
        files.len(),
        pool.threads(),
    );
    let suites = trace_mode::run(&specs, scenario, files, cfg, &pool).map_err(|e| {
        eprintln!("system --trace failed: {e}");
        1
    })?;
    let names: Vec<String> = specs.iter().map(trace_mode::display_name).collect();
    let named: Vec<(&str, SuiteReport)> = names.iter().map(String::as_str).zip(suites).collect();
    print!("{}", trace_mode::render(&named));
    if let Some(dir) = artifacts {
        // No suite scheduler ran, so no scheduler block; the scale is
        // `external`.
        write_artifacts(
            dir,
            specs.iter().zip(&named).map(|(spec, (_, suite))| {
                RunArtifact::from_suite(&spec.sim_key(), scenario, "external", suite, None, top)
            }),
        )?;
    }
    println!("# system mode done in {:.1}s", start.elapsed().as_secs_f32());
    Ok(())
}

/// `tage_exp budgets`: per-component storage of every named preset,
/// audited against the paper's figures.
fn budgets_mode() -> Run {
    let mut t = Table::new(
        "PRESET BUDGETS — per-component storage (tage::PRESETS)",
        &["preset", "spec", "component", "bits", "Kbit"],
    );
    for (name, spec_str) in tage::PRESETS {
        let spec = tage::SystemSpec::preset(name).expect("preset table entry");
        let stack = spec.build().expect("presets build");
        for (component, bits) in stack.budget() {
            t.row(vec![
                name.to_string(),
                spec_str.to_string(),
                component.to_string(),
                bits.to_string(),
                format!("{:.1}", bits as f64 / 1024.0),
            ]);
        }
        t.row(vec![
            name.to_string(),
            spec_str.to_string(),
            "TOTAL".into(),
            stack.storage_bits().to_string(),
            format!("{:.1}", stack.storage_bits() as f64 / 1024.0),
        ]);
    }
    t.print();
    println!();
    let mut audit = Table::new(
        "BUDGET AUDIT — measured vs paper (§3.4, §5, §6.1, §7)",
        &["preset", "measured bits", "paper bits", "delta"],
    );
    for (name, paper_bits) in PAPER_BUDGET_BITS {
        let stack =
            tage::SystemSpec::preset(name).expect("audited preset exists").build().unwrap();
        let measured = stack.storage_bits();
        let delta = measured as f64 / *paper_bits as f64 - 1.0;
        audit.row(vec![
            name.to_string(),
            measured.to_string(),
            paper_bits.to_string(),
            format!("{:+.2}%", delta * 100.0),
        ]);
    }
    audit.print();
    println!("(every audited preset must land within 1% of the paper figure;");
    println!(" asserted by the harness `budget_audit` test)");
    Ok(())
}

/// `tage_exp sample <file...>`: sampled simulation — fixed-interval
/// warmup/measure slices per file, one pool job per (spec × slice), slice
/// counters summed into a whole-trace MPPKI estimate. Fails with 1 on
/// simulation/artifact errors or a `--full-check` accuracy miss, 2 on
/// usage errors.
fn sample_mode(args: &[String]) -> Run {
    let f = parse(
        args,
        &[
            "--spec",
            "--phases",
            "--warmup",
            "--measure",
            "--seed",
            "--threads",
            "--full-check",
            "--artifacts",
            "--top",
        ],
        &[],
        " for sample mode",
    )?;
    let defaults = SampleOptions::default();
    let unsigned = |name: &str, default: u64| {
        value(&f, name, "an unsigned integer", |_: &u64| true).map(|v| v.unwrap_or(default))
    };
    let opts = SampleOptions {
        phases: unsigned("--phases", defaults.phases)?,
        warmup: unsigned("--warmup", defaults.warmup)?,
        measure: unsigned("--measure", defaults.measure)?,
        seed: unsigned("--seed", defaults.seed)?,
        full_check: percent(&f, "--full-check")?,
    };
    let threads = positive(&f, "--threads")?;
    if opts.phases == 0 {
        return Err(usage_error("--phases expects a positive integer"));
    }
    let top = positive(&f, "--top")?.unwrap_or(DEFAULT_TOP);
    let files: Vec<PathBuf> = f.positional.iter().map(PathBuf::from).collect();
    if files.is_empty() {
        eprintln!("sample mode: no trace files given");
        print_usage();
        return Err(2);
    }
    if opts.measure == 0 {
        let msg = "sample mode: --measure must be positive (nothing would be scored)";
        return Err(usage_error(msg));
    }
    // Default spec set: the predictor matrix, so sampled and full tables
    // line up column for column.
    let specs = match f.values("--spec") {
        given if given.is_empty() => trace_mode::matrix_specs(),
        given => parse_specs(given)?,
    };
    let names: Vec<String> = specs.iter().map(trace_mode::display_name).collect();
    let start = std::time::Instant::now();
    println!(
        "# tage_exp sample: {} file(s), {} phase(s) x (warmup {} + measure {}), seed {}, specs: {}",
        files.len(),
        opts.phases,
        opts.warmup,
        opts.measure,
        opts.seed,
        names.join(", ")
    );
    let pool = WorkerPool::new(threads.unwrap_or_else(default_threads));
    let runs = sample_mode::run_sampled(&files, &specs, &opts, &pool).map_err(|e| {
        eprintln!("sample mode failed: {e}");
        1
    })?;
    print!("{}", sample_mode::render(&runs, &names, &opts));
    if let Some(dir) = f.flag("--artifacts") {
        let block = SamplingBlock {
            phases: opts.phases,
            warmup: opts.warmup,
            measure: opts.measure,
            seed: opts.seed,
            total_events: runs.iter().map(|r| r.total_events).sum(),
            simulated_events: runs.iter().map(|r| r.simulated_events(&opts)).sum(),
        };
        write_artifacts(
            Path::new(dir),
            specs.iter().enumerate().map(|(si, spec)| {
                let suite = SuiteReport::new(
                    runs.iter().filter_map(|r| r.sampled[si].combined_report()).collect(),
                );
                RunArtifact::from_suite(
                    &spec.sim_key(),
                    trace_mode::MATRIX_SCENARIO,
                    "sampled",
                    &suite,
                    None,
                    top,
                )
                .with_sampling(block)
            }),
        )?;
    }
    println!("# sample mode done in {:.1}s", start.elapsed().as_secs_f32());
    if let Some(thr) = opts.full_check {
        match sample_mode::worst_delta_pct(&runs) {
            Some(worst) => {
                let verdict = if worst > thr { "FAIL" } else { "ok" };
                println!("# full-check: worst |delta| {worst:.2}% vs threshold {thr}% — {verdict}");
                if worst > thr {
                    return Err(1);
                }
            }
            None => {
                // No (file × spec) pair ran in full: nothing to gate.
                println!("# full-check: no sampled slices to compare");
            }
        }
    }
    Ok(())
}

/// `tage_exp report <paths...>`: render run artifacts back into tables
/// and diff them. The first artifact (after directory expansion, sorted
/// by file name) is the baseline every other artifact diffs against.
/// Fails with 1 when `--fail-over` is set and a diff row regresses past
/// it, 2 on usage or load errors.
fn report_mode(args: &[String]) -> Run {
    let flags = parse(args, &["--top", "--fail-over"], &[], " for report mode")?;
    let top = positive(&flags, "--top")?.unwrap_or(DEFAULT_TOP);
    let fail_over = percent(&flags, "--fail-over")?;
    let paths: Vec<PathBuf> = flags.positional.iter().map(PathBuf::from).collect();
    if paths.is_empty() {
        eprintln!("report mode: no artifact files or directories given");
        print_usage();
        return Err(2);
    }
    let files = collect_paths(&paths).map_err(|e| usage_error(&e.to_string()))?;
    if files.is_empty() {
        return Err(usage_error("report mode: no .json artifacts under the given paths"));
    }
    // Load and validate everything up front: a schema mismatch anywhere
    // fails the whole report rather than silently diffing fewer runs.
    let mut arts: Vec<(PathBuf, RunArtifact, SuiteReport)> = Vec::new();
    for f in files {
        let art = RunArtifact::load(&f).map_err(|e| usage_error(&e.to_string()))?;
        let suite =
            art.suite_report().map_err(|e| usage_error(&format!("{}: {e}", f.display())))?;
        arts.push((f, art, suite));
    }

    let mut t = Table::new(
        "RUN ARTIFACTS — suite summary",
        &["file", "spec", "scen", "scale", "predictor", "traces", "MPPKI", "MPKI"],
    );
    for (f, a, suite) in &arts {
        t.row(vec![
            f.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default(),
            a.spec.clone(),
            a.scenario.clone(),
            a.scale.clone(),
            a.predictor.clone(),
            a.traces.len().to_string(),
            format!("{:.1}", suite.mppki()),
            format!("{:.2}", suite.mpki()),
        ]);
    }
    t.print();

    // Sampled runs carry an estimate, not a measurement — say so next to
    // the summary, with the coverage that produced it.
    for (f, a, _) in &arts {
        if let Some(s) = &a.sampling {
            println!(
                "# sampled: {} — {} phase(s) x (warmup {} + measure {}), seed {}, \
                 {} of {} events ({:.1}x reduction); MPPKI is a sampling estimate",
                f.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default(),
                s.phases,
                s.warmup,
                s.measure,
                s.seed,
                s.simulated_events,
                s.total_events,
                s.total_events as f64 / s.simulated_events.max(1) as f64
            );
        }
    }

    // Hot branches, flattened across artifacts and traces. Artifacts
    // recorded without --branch-stats contribute nothing.
    let mut hot: Vec<(&str, &str, &pipeline::BranchStat)> = Vec::new();
    for (_, a, suite) in &arts {
        for r in &suite.reports {
            if let Some(p) = &r.branches {
                for s in &p.branches {
                    hot.push((a.spec.as_str(), r.trace.as_str(), s));
                }
            }
        }
    }
    if !hot.is_empty() {
        hot.sort_by(|x, y| {
            y.2.mispredicts
                .cmp(&x.2.mispredicts)
                .then(x.2.pc.cmp(&y.2.pc))
                .then(x.0.cmp(y.0))
                .then(x.1.cmp(y.1))
        });
        hot.truncate(top);
        println!();
        let mut bt = Table::new(
            &format!("HOT BRANCHES — top {top} by mispredicts"),
            &["spec", "trace", "pc", "execs", "taken%", "mispredicts", "mis-rate%", "penalty"],
        );
        for (spec, trace, s) in &hot {
            bt.row(vec![
                spec.to_string(),
                trace.to_string(),
                format!("{:#x}", s.pc),
                s.executions.to_string(),
                format!("{:.1}", s.taken_rate() * 100.0),
                s.mispredicts.to_string(),
                format!("{:.2}", s.mispredict_rate() * 100.0),
                s.penalty_cycles.to_string(),
            ]);
        }
        bt.print();
    }

    // Cross-run diffs against the first artifact.
    let mut regressions = 0usize;
    let mut comparisons = 0usize;
    if arts.len() >= 2 {
        let (_, base_art, base_suite) = &arts[0];
        for (_, a, suite) in &arts[1..] {
            comparisons += 1;
            println!();
            let mut dt = Table::new(
                &format!(
                    "MPPKI DIFF — {}[{}] vs baseline {}[{}]",
                    a.spec, a.scenario, base_art.spec, base_art.scenario
                ),
                &["trace", "base", "new", "delta", "delta%", ""],
            );
            let mut unmatched = 0usize;
            for br in &base_suite.reports {
                let Some(nr) = suite.reports.iter().find(|r| r.trace == br.trace) else {
                    unmatched += 1;
                    continue;
                };
                let (b, n) = (br.mppki(), nr.mppki());
                let delta = n - b;
                let pct = delta * 100.0 / b.max(1e-9);
                let over = fail_over.is_some_and(|thr| pct > thr);
                if over {
                    regressions += 1;
                }
                dt.row(vec![
                    br.trace.clone(),
                    format!("{b:.1}"),
                    format!("{n:.1}"),
                    format!("{delta:+.1}"),
                    format!("{pct:+.2}"),
                    if over { "REGRESSED".to_string() } else { String::new() },
                ]);
            }
            let (b, n) = (base_suite.mppki(), suite.mppki());
            let pct = (n - b) * 100.0 / b.max(1e-9);
            let over = fail_over.is_some_and(|thr| pct > thr);
            if over {
                regressions += 1;
            }
            dt.row(vec![
                "SUITE".to_string(),
                format!("{b:.1}"),
                format!("{n:.1}"),
                format!("{:+.1}", n - b),
                format!("{pct:+.2}"),
                if over { "REGRESSED".to_string() } else { String::new() },
            ]);
            dt.print();
            if unmatched > 0 {
                println!("# note: {unmatched} baseline trace(s) missing from this artifact, skipped");
            }
        }
    }
    println!();
    match fail_over {
        Some(thr) => println!(
            "# report: {} artifact(s), {comparisons} comparison(s), {regressions} regression(s) over {thr}%",
            arts.len()
        ),
        None => println!(
            "# report: {} artifact(s), {comparisons} comparison(s) (no --fail-over gate)",
            arts.len()
        ),
    }
    if regressions > 0 {
        Err(1)
    } else {
        Ok(())
    }
}
