//! The per-layer ledger: each layer timed through its public entry points
//! on one fixed trace, CLIENT08 at Full recorded as `.ttr3` + lz.
//!
//! Engine rows run over blocks decoded once up front, so a row times only
//! `BlockSim::run_block`. Rows differ by one thing at a time — a null
//! predictor, then the TAGE provider, then one side stage after another —
//! and the paired per-repetition differences between rows are the ledger.

use harness::artifact::RunArtifact;
use harness::trace_mode::MATRIX;
use harness::PredictorSpec;
use pipeline::{BlockSim, PipelineConfig, SimReport, SuiteReport, WindowEngine, DEFAULT_BATCH};
use simkit::{AccessStats, BranchInfo, Predictor, UpdateScenario};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};
use traces::{CodecRegistry, Ttr3Writer};
use workloads::event::EventBlock;
use workloads::suite::{by_name, Scale};
use workloads::{EventSource, TraceEvent};

use crate::serve::{self, Server};
use crate::sim;
use crate::spans::Tracer;
use crate::stats::median;
use crate::Metric;

/// Repetitions of each timed row; every figure is a median over them.
const REPS: usize = 5;

/// A predictor that does nothing: a row built on it times the engine's
/// window and core model alone.
pub struct NullPredictor;

impl Predictor for NullPredictor {
    type Flight = ();

    fn name(&self) -> String {
        "null".to_string()
    }

    fn storage_bits(&self) -> u64 {
        0
    }

    fn predict(&mut self, _: &BranchInfo) -> (bool, ()) {
        (true, ())
    }

    fn fetch_commit(&mut self, _: &BranchInfo, _: bool, _: &mut ()) {}

    fn retire(&mut self, _: &BranchInfo, _: bool, _: bool, _: (), _: UpdateScenario) {}

    fn stats(&self) -> AccessStats {
        AccessStats::default()
    }

    fn reset_stats(&mut self) {}
}

const A: UpdateScenario = UpdateScenario::RereadAtRetire;
const I: UpdateScenario = UpdateScenario::Immediate;

/// Engine rows: name, spec (`None`: the null predictor), scenario.
const ROWS: [(&str, Option<&str>, UpdateScenario); 12] = [
    ("null.A", None, A),
    ("null.I", None, I),
    ("gshare", Some(MATRIX[0].1), A),
    ("gehl", Some(MATRIX[1].1), A),
    ("tage", Some(MATRIX[2].1), A),
    ("tage.I", Some(MATRIX[2].1), I),
    ("tage_ium", Some(MATRIX[3].1), A),
    ("isl_tage", Some(MATRIX[4].1), A),
    ("tage_lsc", Some(MATRIX[5].1), A),
    ("ium_sc", Some("tage+ium+sc"), A),
    ("ium_sc_lsc", Some("tage+ium+sc+lsc"), A),
    ("ium_sc_lsc_loop", Some("tage+ium+sc+lsc+loop"), A),
];

/// Builds one engine row.
pub fn build(spec: Option<&str>, scenario: UpdateScenario) -> io::Result<Box<dyn BlockSim>> {
    let cfg = PipelineConfig::default();
    let Some(spec) = spec else {
        return Ok(Box::new(WindowEngine::new(NullPredictor, scenario, &cfg)));
    };
    PredictorSpec::parse(spec)
        .and_then(|s| s.build_engine(scenario, &cfg))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
}

/// Runs one engine row over pre-decoded blocks: `(run_block time, report)`.
pub fn run_row(engine: &mut dyn BlockSim, blocks: &[Vec<TraceEvent>]) -> (Duration, SimReport) {
    let t0 = Instant::now();
    for b in blocks {
        engine.run_block(b);
    }
    let dur = t0.elapsed();
    (dur, engine.finish("CLIENT08", "CLIENT"))
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Median over `REPS` timings of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut() -> io::Result<Duration>) -> io::Result<f64> {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        v.push(ns(f()?));
    }
    Ok(median(&v))
}

/// What the ledger measured, plus its own op accounting: every row and
/// session is an op, failed when its counters or artifact are wrong.
pub struct Ledger {
    pub metrics: Vec<Metric>,
    pub ops: u64,
    pub failed: u64,
}

/// Runs the ledger, writing its trace file under `work`.
pub fn run(work: &Path) -> io::Result<Ledger> {
    let dir = work.join("ledger");
    std::fs::create_dir_all(&dir)?;
    let spec = by_name("CLIENT08", Scale::Full).expect("CLIENT08 is a suite trace");
    let mut m = Vec::new();
    let (mut ops, mut failed) = (0u64, 0u64);

    // workloads: drain the generator.
    let mut block = EventBlock::with_capacity(DEFAULT_BATCH);
    let gen = median_ns(REPS, || {
        let t0 = Instant::now();
        let mut src = spec.stream();
        while src.next_block(&mut block, DEFAULT_BATCH) > 0 {
            black_box(&block.events);
        }
        Ok(t0.elapsed())
    })?;
    let rec = sim::record(&spec, &dir)?;
    let events = rec.events as f64;
    let conds = rec.conditionals as f64;
    m.push(Metric::new(
        "workloads.gen_ns_per_event",
        gen / events,
        "ns",
    ));

    // traces: encode to memory, open, decode.
    let registry = CodecRegistry::standard();
    let mut src = registry.open(&rec.path)?;
    let mut blocks = Vec::new();
    while src.next_block(&mut block, DEFAULT_BATCH) > 0 {
        blocks.push(block.events.clone());
    }
    traces::finish(src.as_ref())?;
    let encode = median_ns(REPS, || {
        let mut buf = Vec::with_capacity(std::fs::metadata(&rec.path)?.len() as usize);
        let t0 = Instant::now();
        let mut w = Ttr3Writer::new(
            &mut buf,
            &rec.name,
            spec.category.as_str(),
            sim::lz_scheme(),
        )?;
        for e in blocks.iter().flatten() {
            w.push(e)?;
        }
        w.finish()?;
        Ok(t0.elapsed())
    })?;
    m.push(Metric::new(
        "traces.encode_ns_per_event",
        encode / events,
        "ns",
    ));
    let open = median_ns(20, || {
        let t0 = Instant::now();
        let src = registry.open(&rec.path)?;
        let dur = t0.elapsed();
        drop(src);
        Ok(dur)
    })?;
    m.push(Metric::new("traces.open_us", open / 1e3, "us"));
    let decode = median_ns(REPS, || {
        let mut src = registry.open(&rec.path)?;
        let mut tracer = Tracer::new(true, Instant::now());
        while tracer.time("traces.next_block", 0, || {
            src.next_block(&mut block, DEFAULT_BATCH)
        }) > 0
        {}
        traces::finish(src.as_ref())?;
        Ok(crate::spans::total(
            &tracer.into_spans(),
            "traces.next_block",
        ))
    })?;
    m.push(Metric::new(
        "traces.decode_ns_per_event",
        decode / events,
        "ns",
    ));
    let bytes = std::fs::metadata(&rec.path)?.len() as f64;
    m.push(Metric::new("traces.bytes_per_event", bytes / events, "B"));

    // Engine rows, interleaved so slow drift spreads over every row.
    let mut times = vec![Vec::with_capacity(REPS); ROWS.len()];
    let mut gshare_report = None;
    for _ in 0..REPS {
        for (i, (name, spec, scenario)) in ROWS.iter().enumerate() {
            let mut engine = build(*spec, *scenario)?;
            let (dur, report) = run_row(&mut *engine, &blocks);
            ops += 1;
            if report.conditionals != rec.conditionals {
                eprintln!(
                    "ledger row {name}: {} conditionals, trace has {conds}",
                    report.conditionals
                );
                failed += 1;
            }
            times[i].push(ns(dur));
            if *name == "gshare" {
                gshare_report = Some(report);
            }
        }
    }
    let row = |name: &str| ROWS.iter().position(|r| r.0 == name).expect("known row");
    let med = |name: &str| median(&times[row(name)]);
    // Paired per-repetition difference of two rows, per conditional.
    let diff = |hi: &str, lo: &str| {
        let d: Vec<f64> = times[row(hi)]
            .iter()
            .zip(&times[row(lo)])
            .map(|(h, l)| h - l)
            .collect();
        median(&d) / conds
    };
    for (name, row) in [("A", "null.A"), ("I", "null.I")] {
        let name = format!("pipeline.window_ns_per_event.{name}");
        m.push(Metric::new(&name, med(row) / events, "ns"));
    }
    for col in ["gshare", "gehl", "tage", "tage_ium", "isl_tage", "tage_lsc"] {
        let name = format!("pipeline.run_block_ns_per_event.{col}");
        m.push(Metric::new(&name, med(col) / events, "ns"));
    }
    for (name, hi, lo) in [
        ("core.tage_ns_per_branch.A", "tage", "null.A"),
        ("core.tage_ns_per_branch.I", "tage.I", "null.I"),
        ("core.stage_ns_per_branch.ium", "tage_ium", "tage"),
        ("core.stage_ns_per_branch.sc", "ium_sc", "tage_ium"),
        ("core.stage_ns_per_branch.lsc", "ium_sc_lsc", "ium_sc"),
        (
            "core.stage_ns_per_branch.loop",
            "ium_sc_lsc_loop",
            "ium_sc_lsc",
        ),
        ("baselines.gshare_ns_per_branch", "gshare", "null.A"),
        ("baselines.gehl_ns_per_branch", "gehl", "null.A"),
    ] {
        m.push(Metric::new(name, diff(hi, lo), "ns"));
    }
    for (name, spec) in [("tage", MATRIX[2].1), ("isl_tage", MATRIX[4].1)] {
        let build_ns = median_ns(20, || {
            let t0 = Instant::now();
            let engine = build(Some(spec), A)?;
            let dur = t0.elapsed();
            drop(engine);
            Ok(dur)
        })?;
        let name = format!("core.build_us.{name}");
        m.push(Metric::new(&name, build_ns / 1e3, "us"));
    }

    // harness: the artifact a served session returns.
    let suite = SuiteReport::new(gshare_report.into_iter().collect());
    let top = serve::handshake().top;
    let json_ns = median_ns(200, || {
        let t0 = Instant::now();
        let json = RunArtifact::from_suite(serve::SPEC, A, "external", &suite, None, top).to_json();
        black_box(json);
        Ok(t0.elapsed())
    })?;
    m.push(Metric::new("harness.artifact_json_us", json_ns / 1e3, "us"));

    // serve: sessions on the same file, against the offline recipe.
    let offline_json = serve::offline_artifact(&rec.path)?;
    let gshare = PredictorSpec::parse(serve::SPEC).expect("gshare spec parses");
    let offline = median_ns(REPS, || {
        let t0 = Instant::now();
        let mut tracer = Tracer::new(false, t0);
        sim::run_cell(&gshare, A, &rec.path, &mut tracer, 0)?;
        Ok(t0.elapsed())
    })?;
    let server = Server::start()?;
    let (mut upload, mut wait, mut total) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..2 * REPS {
        let (up, all, json) = serve::split_session(&server.addr, &rec.path)?;
        ops += 1;
        failed += u64::from(json != offline_json);
        upload.push(ns(up) / 1e6);
        wait.push(ns(all - up) / 1e6);
        total.push(ns(all) / 1e6);
    }
    server.stop()?;
    m.push(Metric::new("serve.upload_ms", median(&upload), "ms"));
    m.push(Metric::new("serve.result_wait_ms", median(&wait), "ms"));
    m.push(Metric::new(
        "serve.session_overhead_ms",
        median(&total) - offline / 1e6,
        "ms",
    ));
    Ok(Ledger {
        metrics: m,
        ops,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_row_counts_exactly_the_trace_conditionals() {
        let trace = by_name("CLIENT08", Scale::Tiny).unwrap().generate();
        let blocks: Vec<Vec<TraceEvent>> = trace
            .events
            .chunks(DEFAULT_BATCH)
            .map(<[TraceEvent]>::to_vec)
            .collect();
        for scenario in [A, I] {
            let mut engine = build(None, scenario).unwrap();
            let (_, report) = run_row(&mut *engine, &blocks);
            assert_eq!(report.conditionals, trace.conditional_count());
            assert_eq!(report.uops, trace.total_uops());
            assert_eq!(report.predictor, "null");
        }
    }

    #[test]
    fn every_row_spec_builds() {
        for (name, spec, scenario) in ROWS {
            assert!(build(spec, scenario).is_ok(), "row {name}");
        }
    }
}
