//! `tage_exp` — regenerate the paper's tables and figures.
//!
//! ```text
//! tage_exp <experiment|all> [--scale tiny|small|default|full]
//!          [--threads N] [--list]
//!          [--artifacts DIR] [--branch-stats] [--top N]
//! tage_exp system <spec...> [--scenario I|A|B|C] [--scale ...] [--threads N]
//!          [--trace FILE]... [--artifacts DIR] [--branch-stats] [--top N]
//! tage_exp budgets
//! tage_exp trace <file...> [--threads N]
//!          [--artifacts DIR] [--branch-stats] [--top N]
//! tage_exp report <artifact|dir...> [--top N] [--fail-over PCT]
//! ```
//!
//! Experiments are declarative: each is a table of (predictor spec ×
//! update scenario) rows fed to one generic sweep runner. `tage_exp all`
//! prefetches every experiment's suites onto the work-stealing pool
//! before rendering the first table, so independent experiments overlap;
//! duplicate suites are memoized by canonical spec string and run exactly
//! once. The 40-trace suite is generated once per invocation, in
//! parallel, and every job streams one of its traces.
//!
//! `tage_exp system` simulates *any* user-composed predictor stack over
//! the suite — including compositions no experiment table covers, e.g.
//! `tage:x-1+ium+loop` (loop predictor without the SC at a 32 KB
//! budget). `tage_exp budgets` prints the per-component storage budget of
//! every named preset next to the paper's figures.
//!
//! `tage_exp trace` leaves the synthetic suite behind: it runs the full
//! predictor matrix over external trace files (`.ttr`, CBP, CSV —
//! autodetected), grouped into categories by trace metadata or filename
//! prefix.
//!
//! Every simulating mode takes `--artifacts DIR` to drop one versioned
//! JSON [`RunArtifact`] per unique (composition, scenario) suite next to
//! its text tables, `--branch-stats` to run the opt-in per-static-branch
//! profiler (top `--top` branches land in the artifacts), and `tage_exp
//! report` turns artifacts back into tables: suite summaries, hot-branch
//! rankings, and MPPKI diffs against the first artifact as baseline
//! (`--fail-over PCT` makes regressions fail the exit code for CI).

use harness::artifact::{
    collect_paths, scenario_from_label, RunArtifact, SamplingBlock, SchedulerBlock,
};
use harness::experiments::{by_id, prefetch, ALL_EXPERIMENTS, EXPERIMENTS};
use harness::sample_mode::{self, SampleOptions};
use harness::spec::PAPER_BUDGET_BITS;
use harness::{trace_mode, ExpContext, ExpOptions, PredictorSpec, Table};
use pipeline::SuiteReport;
use simkit::{Predictor, UpdateScenario};
use std::path::{Path, PathBuf};
use workloads::suite::{Scale, HARD_TRACES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("trace") => std::process::exit(trace_files_mode(&args[1..])),
        Some("sample") => std::process::exit(sample_files_mode(&args[1..])),
        Some("system") => std::process::exit(system_mode(&args[1..])),
        Some("budgets") => std::process::exit(budgets_mode()),
        Some("report") => std::process::exit(report_mode(&args[1..])),
        _ => {}
    }
    let mut scale = Scale::Default;
    let mut threads: Option<usize> = None;
    let mut artifacts: Option<PathBuf> = None;
    let mut branch_stats = false;
    let mut top = DEFAULT_TOP;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                scale = Scale::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown scale '{v}' (tiny|small|default|full)");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => threads = Some(n),
                    _ => {
                        eprintln!("--threads expects a positive integer (got '{v}')");
                        std::process::exit(2);
                    }
                }
            }
            "--artifacts" => match it.next() {
                Some(dir) => artifacts = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--artifacts expects a directory");
                    std::process::exit(2);
                }
            },
            "--branch-stats" => branch_stats = true,
            "--top" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => top = n,
                    _ => {
                        eprintln!("--top expects a positive integer (got '{v}')");
                        std::process::exit(2);
                    }
                }
            }
            "--list" => {
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
                return;
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        // Bare invocation: run the whole sweep, defaulting to the smoke-test
        // scale (unless --scale was given) so `cargo run --bin tage_exp`
        // demonstrates every experiment quickly.
        targets.push("all".to_string());
        if !args.iter().any(|a| a == "--scale") {
            scale = Scale::Tiny;
        }
        println!("# no experiment given: running `all` at scale {scale:?} (see --help)");
    }
    // Validate every requested target (not just the post-`all` expansion,
    // so `tage_exp all bogus` fails loudly instead of silently passing).
    let mut bad = false;
    for t in &targets {
        if t != "all" && by_id(t).is_none() {
            eprintln!("unknown experiment '{t}'");
            bad = true;
        }
    }
    if bad {
        print_usage();
        std::process::exit(2);
    }
    let ids: Vec<&str> = if targets.iter().any(|t| t == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        targets.iter().map(String::as_str).collect()
    };
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
    if let Some(dir) = &artifacts {
        // Re-walk the run tables: every suite is memo-cached by now, so
        // each request below is a free cache hit, not a re-simulation.
        let runs: Vec<(PredictorSpec, UpdateScenario)> = ids
            .iter()
            .filter_map(|id| by_id(id))
            .flat_map(|exp| exp.runs())
            .map(|r| (r.spec, r.scenario))
            .collect();
        if emit_artifacts(dir, &ctx, &runs, top) != 0 {
            std::process::exit(1);
        }
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
}

/// Default cap on per-trace branch rows stored in artifacts and on
/// hot-branch table rows in `tage_exp report`.
const DEFAULT_TOP: usize = 20;

/// Writes one [`RunArtifact`] per unique (composition, scenario) into
/// `dir`. The suites are expected to be memo-cached already (the caller
/// just rendered them), so this only serializes. Returns a process exit
/// code.
fn emit_artifacts(
    dir: &Path,
    ctx: &ExpContext,
    runs: &[(PredictorSpec, UpdateScenario)],
    top: usize,
) -> i32 {
    // One deterministic scheduler snapshot for every artifact of this
    // invocation: taken before the memo re-requests below, so the embedded
    // counters describe the simulation work, not the serialization pass.
    let block = SchedulerBlock::from_stats(&ctx.scheduler_stats());
    let mut seen: Vec<(String, &'static str)> = Vec::new();
    let mut wrote = 0usize;
    for (spec, scenario) in runs {
        let key = (spec.sim_key(), scenario.label());
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let suite = ctx.run_spec(spec, *scenario);
        let art = RunArtifact::from_suite(
            &spec.sim_key(),
            *scenario,
            ctx.scale.as_str(),
            &suite,
            Some(block),
            top,
        );
        match art.write_to_dir(dir) {
            Ok(path) => {
                wrote += 1;
                println!("# artifact: {}", path.display());
            }
            Err(e) => {
                eprintln!("artifact write failed for {}: {e}", art.file_name());
                return 1;
            }
        }
    }
    println!("# artifacts: {wrote} file(s) in {}", dir.display());
    0
}

fn print_usage() {
    println!("usage: tage_exp <experiment|all> [--scale tiny|small|default|full]");
    println!("                [--threads N] [--list]");
    println!("                [--artifacts DIR] [--branch-stats] [--top N]");
    println!("       tage_exp system <spec...> [--scenario I|A|B|C] [--scale ...] [--threads N]");
    println!("                [--trace FILE]...");
    println!("                [--artifacts DIR] [--branch-stats] [--top N]");
    println!("       tage_exp budgets");
    println!("       tage_exp trace <file...> [--threads N]");
    println!("                [--artifacts DIR] [--branch-stats] [--top N]");
    println!("       tage_exp sample <file...> [--phases N] [--warmup W] [--measure M]");
    println!("                [--seed S] [--spec SPEC]... [--full-check PCT]");
    println!("                [--threads N] [--artifacts DIR] [--top N]");
    println!("       tage_exp report <artifact|dir...> [--top N] [--fail-over PCT]");
    println!("  --threads N   scheduler worker threads (default: CPUs, max 16)");
    println!("  --list        print the experiment ids, spec counts and descriptions");
    println!("  --artifacts DIR   write one versioned JSON run artifact per unique");
    println!("                    (composition, scenario) suite into DIR");
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
    println!("                    instead of the suite (repeatable; the offline twin of");
    println!("                    a tage_serve session — served results match it exactly)");
    println!("  budgets          per-component storage budgets of the named presets");
    println!("                   (base/tagged/chooser provider sub-stage rows + side stages)");
    println!("  trace <file...>  run the predictor matrix over external trace files");
    println!("                   (.ttr / .ttr3 / cbp / csv, format autodetected)");
    println!("  sample <file...> sampled simulation: fixed-interval warmup/measure");
    println!("                   slices, one pool job per (spec x slice), weighted");
    println!("                   whole-trace MPPKI estimate (defaults: 8 phases,");
    println!("                   10k warmup + 40k measure, the trace-mode matrix)");
    println!("  --full-check PCT sample mode: also run every (spec, file) in full and");
    println!("                   exit 1 when any sampled MPPKI is off by > PCT percent");
    println!("experiments:");
    for exp in EXPERIMENTS {
        println!("  {:<12} {}", exp.id, exp.description);
    }
}

/// `tage_exp system <spec...>`: simulate arbitrary compositions over the
/// synthetic suite. Returns the process exit code.
fn system_mode(args: &[String]) -> i32 {
    let mut scale = Scale::Default;
    let mut threads: Option<usize> = None;
    let mut scenario = UpdateScenario::RereadAtRetire;
    let mut artifacts: Option<PathBuf> = None;
    let mut branch_stats = false;
    let mut top = DEFAULT_TOP;
    let mut trace_files: Vec<PathBuf> = Vec::new();
    let mut specs: Vec<PredictorSpec> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--artifacts" => match it.next() {
                Some(dir) => artifacts = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--artifacts expects a directory");
                    return 2;
                }
            },
            "--trace" => match it.next() {
                Some(f) => trace_files.push(PathBuf::from(f)),
                None => {
                    eprintln!("--trace expects a trace file");
                    return 2;
                }
            },
            "--branch-stats" => branch_stats = true,
            "--top" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => top = n,
                    _ => {
                        eprintln!("--top expects a positive integer (got '{v}')");
                        return 2;
                    }
                }
            }
            "--scale" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                match Scale::parse(v) {
                    Some(s) => scale = s,
                    None => {
                        eprintln!("unknown scale '{v}' (tiny|small|default|full)");
                        return 2;
                    }
                }
            }
            "--threads" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => threads = Some(n),
                    _ => {
                        eprintln!("--threads expects a positive integer (got '{v}')");
                        return 2;
                    }
                }
            }
            "--scenario" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                scenario = match scenario_from_label(v) {
                    Ok(s) => s,
                    Err(_) => {
                        eprintln!("--scenario expects I, A, B or C (got '{v}')");
                        return 2;
                    }
                };
            }
            "--help" | "-h" => {
                print_usage();
                return 0;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag '{other}' for system mode");
                return 2;
            }
            other => match PredictorSpec::parse(other) {
                Ok(spec) => specs.push(spec),
                Err(e) => {
                    eprintln!("bad spec '{other}': {e}");
                    return 2;
                }
            },
        }
    }
    if specs.is_empty() {
        eprintln!("system mode: no predictor specs given");
        print_usage();
        return 2;
    }
    if !trace_files.is_empty() {
        return system_trace_files(
            &specs,
            scenario,
            &trace_files,
            branch_stats,
            artifacts.as_deref(),
            top,
        );
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
    if let Some(dir) = &artifacts {
        let runs: Vec<(PredictorSpec, UpdateScenario)> =
            specs.iter().map(|s| (s.clone(), scenario)).collect();
        if emit_artifacts(dir, &ctx, &runs, top) != 0 {
            return 1;
        }
    }
    println!("# system mode done in {:.1}s", start.elapsed().as_secs_f32());
    0
}

/// `tage_exp system --trace`: user-composed specs over external trace
/// files instead of the synthetic suite — the offline twin of a
/// `tage_serve` session (both funnel through
/// [`trace_mode::run_spec_cell`]), and the bit-identity anchor for
/// served artifacts: `--artifacts` emits exactly the bytes a session's
/// result frame carries. Returns the process exit code.
fn system_trace_files(
    specs: &[PredictorSpec],
    scenario: UpdateScenario,
    files: &[PathBuf],
    branch_stats: bool,
    artifacts: Option<&Path>,
    top: usize,
) -> i32 {
    let start = std::time::Instant::now();
    println!(
        "# tage_exp system: {} spec(s) over {} external trace file(s), scenario {scenario}",
        specs.len(),
        files.len(),
    );
    let cfg = pipeline::PipelineConfig { branch_stats, ..pipeline::PipelineConfig::default() };
    let mut t = Table::new(
        &format!("SYSTEM MODE — external traces, scenario {scenario}"),
        &["spec", "trace", "category", "MPPKI"],
    );
    let mut results: Vec<(String, SuiteReport)> = Vec::new();
    for spec in specs {
        match trace_mode::run_spec_over_files(spec, scenario, files, &cfg) {
            Ok(suite) => {
                for r in &suite.reports {
                    t.row(vec![
                        spec.sim_key(),
                        r.trace.clone(),
                        r.category.clone(),
                        format!("{:.1}", r.mppki()),
                    ]);
                }
                results.push((spec.sim_key(), suite));
            }
            Err(e) => {
                eprintln!("system --trace failed for '{}': {e}", spec.sim_key());
                return 1;
            }
        }
    }
    t.print();
    if let Some(dir) = artifacts {
        // Like trace mode: no suite scheduler ran, so no scheduler
        // block; the scale is `external`.
        let mut wrote = 0usize;
        for (key, suite) in &results {
            let art = RunArtifact::from_suite(key, scenario, "external", suite, None, top);
            match art.write_to_dir(dir) {
                Ok(path) => {
                    wrote += 1;
                    println!("# artifact: {}", path.display());
                }
                Err(e) => {
                    eprintln!("artifact write failed for {}: {e}", art.file_name());
                    return 1;
                }
            }
        }
        println!("# artifacts: {wrote} file(s) in {}", dir.display());
    }
    println!("# system mode done in {:.1}s", start.elapsed().as_secs_f32());
    0
}

/// `tage_exp budgets`: per-component storage of every named preset,
/// audited against the paper's figures. Returns the process exit code.
fn budgets_mode() -> i32 {
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
    0
}

/// `tage_exp trace <files...>`: the predictor matrix over external trace
/// files. Returns the process exit code.
fn trace_files_mode(args: &[String]) -> i32 {
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    let mut threads: Option<usize> = None;
    let mut artifacts: Option<PathBuf> = None;
    let mut branch_stats = false;
    let mut top = DEFAULT_TOP;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--artifacts" => match it.next() {
                Some(dir) => artifacts = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--artifacts expects a directory");
                    return 2;
                }
            },
            "--branch-stats" => branch_stats = true,
            "--top" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => top = n,
                    _ => {
                        eprintln!("--top expects a positive integer (got '{v}')");
                        return 2;
                    }
                }
            }
            "--threads" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                match v.parse::<usize>() {
                    Ok(t) if t >= 1 => threads = Some(t),
                    _ => {
                        eprintln!("--threads expects a positive integer (got '{v}')");
                        return 2;
                    }
                }
            }
            "--help" | "-h" => {
                print_usage();
                return 0;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag '{other}' for trace mode");
                return 2;
            }
            other => files.push(other.into()),
        }
    }
    if files.is_empty() {
        eprintln!("trace mode: no trace files given");
        print_usage();
        return 2;
    }
    let start = std::time::Instant::now();
    println!(
        "# tage_exp trace: {} file(s), predictors: {}",
        files.len(),
        trace_mode::MATRIX.map(|(name, _)| name).join(", ")
    );
    let cfg = pipeline::PipelineConfig { branch_stats, ..pipeline::PipelineConfig::default() };
    match trace_mode::run_files(&files, &cfg, threads) {
        Ok(results) => {
            print!("{}", trace_mode::render(&results));
            if let Some(dir) = &artifacts {
                // Trace mode bypasses the suite scheduler, so artifacts
                // carry no scheduler block; the matrix spec string is the
                // artifact's spec and the scale is `external`.
                let mut wrote = 0usize;
                for (name, suite) in &results {
                    let spec = trace_mode::MATRIX
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, s)| *s)
                        .unwrap_or(name);
                    let art = RunArtifact::from_suite(
                        spec,
                        trace_mode::MATRIX_SCENARIO,
                        "external",
                        suite,
                        None,
                        top,
                    );
                    match art.write_to_dir(dir) {
                        Ok(path) => {
                            wrote += 1;
                            println!("# artifact: {}", path.display());
                        }
                        Err(e) => {
                            eprintln!("artifact write failed for {}: {e}", art.file_name());
                            return 1;
                        }
                    }
                }
                println!("# artifacts: {wrote} file(s) in {}", dir.display());
            }
            println!("# trace mode done in {:.1}s", start.elapsed().as_secs_f32());
            0
        }
        Err(e) => {
            eprintln!("trace mode failed: {e}");
            1
        }
    }
}

/// `tage_exp sample <file...>`: sampled simulation — fixed-interval
/// warmup/measure slices per file, one pool job per (spec × slice), exact
/// weighted combine into a whole-trace MPPKI estimate. Returns the
/// process exit code: 0 clean, 1 on simulation/artifact errors or a
/// `--full-check` accuracy miss, 2 on usage errors.
fn sample_files_mode(args: &[String]) -> i32 {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut spec_args: Vec<String> = Vec::new();
    let mut artifacts: Option<PathBuf> = None;
    let mut top = DEFAULT_TOP;
    let mut opts = SampleOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => match it.next() {
                Some(s) => spec_args.push(s.clone()),
                None => {
                    eprintln!("--spec expects a predictor spec");
                    return 2;
                }
            },
            "--phases" | "--warmup" | "--measure" | "--seed" => {
                let flag = a.as_str();
                let v = it.next().map(String::as_str).unwrap_or("");
                let Ok(n) = v.parse::<u64>() else {
                    eprintln!("{flag} expects an unsigned integer (got '{v}')");
                    return 2;
                };
                match flag {
                    "--phases" if n == 0 => {
                        eprintln!("--phases expects a positive integer");
                        return 2;
                    }
                    "--phases" => opts.phases = n,
                    "--warmup" => opts.warmup = n,
                    "--measure" => opts.measure = n,
                    _ => opts.seed = n,
                }
            }
            "--threads" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                match v.parse::<usize>() {
                    Ok(t) if t >= 1 => opts.threads = Some(t),
                    _ => {
                        eprintln!("--threads expects a positive integer (got '{v}')");
                        return 2;
                    }
                }
            }
            "--full-check" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                match v.parse::<f64>() {
                    Ok(p) if p >= 0.0 => opts.full_check = Some(p),
                    _ => {
                        eprintln!("--full-check expects a non-negative percentage (got '{v}')");
                        return 2;
                    }
                }
            }
            "--artifacts" => match it.next() {
                Some(dir) => artifacts = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--artifacts expects a directory");
                    return 2;
                }
            },
            "--top" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => top = n,
                    _ => {
                        eprintln!("--top expects a positive integer (got '{v}')");
                        return 2;
                    }
                }
            }
            "--help" | "-h" => {
                print_usage();
                return 0;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag '{other}' for sample mode");
                return 2;
            }
            other => files.push(other.into()),
        }
    }
    if files.is_empty() {
        eprintln!("sample mode: no trace files given");
        print_usage();
        return 2;
    }
    if opts.measure == 0 {
        eprintln!("sample mode: --measure must be positive (nothing would be scored)");
        return 2;
    }
    // Default spec set: the full trace-mode matrix, so sampled and full
    // tables line up column for column.
    let spec_strings: Vec<String> = if spec_args.is_empty() {
        trace_mode::MATRIX.iter().map(|(_, s)| s.to_string()).collect()
    } else {
        spec_args
    };
    let mut specs = Vec::with_capacity(spec_strings.len());
    let mut names = Vec::with_capacity(spec_strings.len());
    for s in &spec_strings {
        match PredictorSpec::parse(s) {
            Ok(spec) => {
                names.push(
                    trace_mode::MATRIX
                        .iter()
                        .find(|(_, m)| m == s)
                        .map_or_else(|| s.clone(), |(n, _)| n.to_string()),
                );
                specs.push(spec);
            }
            Err(e) => {
                eprintln!("bad spec '{s}': {e}");
                return 2;
            }
        }
    }
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
    let runs = match sample_mode::run_sampled(&files, &specs, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sample mode failed: {e}");
            return 1;
        }
    };
    print!("{}", sample_mode::render(&runs, &names, &opts));
    if let Some(dir) = &artifacts {
        let total: u64 = runs.iter().map(|r| r.total_events).sum();
        let simulated: u64 = runs.iter().map(|r| r.simulated_events(&opts)).sum();
        let block = SamplingBlock {
            phases: opts.phases,
            warmup: opts.warmup,
            measure: opts.measure,
            seed: opts.seed,
            total_events: total,
            simulated_events: simulated,
        };
        let mut wrote = 0usize;
        for (si, spec) in specs.iter().enumerate() {
            let suite = pipeline::SuiteReport::new(
                runs.iter().filter_map(|r| r.sampled[si].combined_report()).collect(),
            );
            let art = RunArtifact::from_suite(
                &spec.sim_key(),
                trace_mode::MATRIX_SCENARIO,
                "sampled",
                &suite,
                None,
                top,
            )
            .with_sampling(block);
            match art.write_to_dir(dir) {
                Ok(path) => {
                    wrote += 1;
                    println!("# artifact: {}", path.display());
                }
                Err(e) => {
                    eprintln!("artifact write failed for {}: {e}", art.file_name());
                    return 1;
                }
            }
        }
        println!("# artifacts: {wrote} file(s) in {}", dir.display());
    }
    println!("# sample mode done in {:.1}s", start.elapsed().as_secs_f32());
    if let Some(thr) = opts.full_check {
        match sample_mode::worst_delta_pct(&runs) {
            Some(worst) => {
                let verdict = if worst > thr { "FAIL" } else { "ok" };
                println!("# full-check: worst |delta| {worst:.2}% vs threshold {thr}% — {verdict}");
                if worst > thr {
                    return 1;
                }
            }
            None => {
                // No phases anywhere (all-empty traces): nothing to gate.
                println!("# full-check: no sampled slices to compare");
            }
        }
    }
    0
}

/// `tage_exp report <paths...>`: render run artifacts back into tables
/// and diff them. The first artifact (after directory expansion, sorted
/// by file name) is the baseline every other artifact diffs against.
/// Returns the process exit code: 0 clean, 1 when `--fail-over` is set
/// and a diff row regresses past it, 2 on usage or load errors.
fn report_mode(args: &[String]) -> i32 {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut top = DEFAULT_TOP;
    let mut fail_over: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => top = n,
                    _ => {
                        eprintln!("--top expects a positive integer (got '{v}')");
                        return 2;
                    }
                }
            }
            "--fail-over" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                match v.parse::<f64>() {
                    Ok(p) if p >= 0.0 => fail_over = Some(p),
                    _ => {
                        eprintln!("--fail-over expects a non-negative percentage (got '{v}')");
                        return 2;
                    }
                }
            }
            "--help" | "-h" => {
                print_usage();
                return 0;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag '{other}' for report mode");
                return 2;
            }
            other => paths.push(PathBuf::from(other)),
        }
    }
    if paths.is_empty() {
        eprintln!("report mode: no artifact files or directories given");
        print_usage();
        return 2;
    }
    let files = match collect_paths(&paths) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if files.is_empty() {
        eprintln!("report mode: no .json artifacts under the given paths");
        return 2;
    }
    // Load and validate everything up front: a schema mismatch anywhere
    // fails the whole report rather than silently diffing fewer runs.
    let mut arts: Vec<(PathBuf, RunArtifact, SuiteReport)> = Vec::new();
    for f in files {
        let art = match RunArtifact::load(&f) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        };
        let suite = match art.suite_report() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{}: {e}", f.display());
                return 2;
            }
        };
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
        1
    } else {
        0
    }
}
