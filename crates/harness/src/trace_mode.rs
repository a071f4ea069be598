//! `tage_exp trace` — the predictor matrix over *external* trace files.
//!
//! Every other experiment consumes the synthetic 40-trace suite; this mode
//! ingests recorded trace files through `tage-traces`' codec registry and
//! runs the full predictor matrix over them, streaming. Results are
//! grouped into categories exactly like the synthetic suite (the codec
//! supplies the category — `.ttr` from its header, CBP/CSV from the
//! filename prefix), so the report tables render unchanged.
//!
//! The same matrix can run over synthetic [`TraceSpec`]s directly; the
//! `recorded_ttr_run_is_bit_identical_to_synthetic` integration test pins
//! `tage_trace record` → `tage_exp trace` to the direct run, report for
//! report.

use crate::spec::PredictorSpec;
use crate::table::{f1, Table};
use crate::runner::default_threads;
use pipeline::{simulate_engine, BlockSim, PipelineConfig, SuiteReport};
use simkit::predictor::UpdateScenario;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use traces::{CodecRegistry, TraceCodec, TraceDecoder};
use workloads::event::{EventSource, Trace, TraceEvent};
use workloads::TraceSpec;

/// The predictor matrix as `(display name, spec)` pairs, in table-column
/// order. Each cell builds its engine through
/// [`PredictorSpec::build_engine`], like every other simulation.
pub const MATRIX: [(&str, &str); 6] = [
    ("gshare-512K", "gshare:512k"),
    ("GEHL-520K", "gehl:520k"),
    ("TAGE (ref)", "tage"),
    ("TAGE+IUM", "tage+ium"),
    ("ISL-TAGE", "tage+ium+sc+loop/as=ISL-TAGE"),
    ("TAGE-LSC", "tage:lsc+ium+lsc/as=TAGE-LSC"),
];

/// Update scenario the matrix runs under (the paper's default, [A]).
pub const MATRIX_SCENARIO: UpdateScenario = UpdateScenario::RereadAtRetire;

/// A [`TraceDecoder`] wrapper for synthetic program streams, so the
/// matrix runner treats generated and recorded sources uniformly.
struct SpecSource(workloads::ProgramStream);

impl EventSource for SpecSource {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn category(&self) -> &str {
        self.0.category()
    }

    fn next_event(&mut self) -> Option<TraceEvent> {
        self.0.next_event()
    }
}

impl TraceDecoder for SpecSource {
    fn format(&self) -> &'static str {
        "synthetic"
    }
}

/// The post-run integrity check of every simulation a decoder feeds. A
/// recorded decode error always fails the run. A shortfall against the
/// container's declared event count fails it only when the run reached
/// the end of the stream: once the engine's measurement window is spent
/// ([`BlockSim::done`]), the driver stops pulling events on purpose.
///
/// # Errors
///
/// Returns the decoder's recorded error, or `InvalidData` for a stream
/// that ended short of its declared count.
pub fn check_run(src: &dyn TraceDecoder, engine: &dyn BlockSim) -> io::Result<()> {
    if engine.done() {
        traces::check_decode(src)
    } else {
        traces::finish(src)
    }
}

/// One simulation cell: a fresh spec-built engine streamed over one
/// source under `scenario`, with the post-run [`check_run`].
/// This is THE per-(spec × trace) recipe — the matrix runner and `tage_exp
/// system --trace` funnel through it, and a `tage_serve` session runs the
/// same engine and driver, which is what makes a served result
/// bit-identical to the offline run.
///
/// # Errors
///
/// Returns `InvalidInput` for a spec that fails to build and the
/// decoder's recorded error for corrupt input (a decoder that hit
/// corrupt bytes ends its stream early; surfacing it here prevents a
/// silently truncated run).
pub fn run_spec_cell(
    spec: &PredictorSpec,
    scenario: UpdateScenario,
    src: &mut Box<dyn TraceDecoder + Send>,
    cfg: &PipelineConfig,
) -> io::Result<pipeline::SimReport> {
    let mut engine = spec
        .build_engine(scenario, cfg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let r = simulate_engine(&mut *engine, src);
    check_run(src.as_ref(), &*engine)?;
    Ok(r)
}

/// One spec over a set of trace files, sequentially, as a
/// [`SuiteReport`] in file order — the offline twin of a `tage_serve`
/// session (which runs exactly this recipe per connection). Formats are
/// autodetected per file like [`run_files`].
///
/// # Errors
///
/// Propagates detection, open, spec-build, and decode-integrity errors
/// (first failing file wins).
pub fn run_spec_over_files(
    spec: &PredictorSpec,
    scenario: UpdateScenario,
    files: &[PathBuf],
    cfg: &PipelineConfig,
) -> io::Result<SuiteReport> {
    let registry = CodecRegistry::standard();
    let reports: io::Result<Vec<_>> = files
        .iter()
        .map(|f| {
            let mut src = registry.open(f)?;
            run_spec_cell(spec, scenario, &mut src, cfg)
        })
        .collect();
    Ok(SuiteReport::new(reports?))
}

/// Runs the full predictor matrix over `n` sources, one column per
/// [`MATRIX`] entry. The `MATRIX.len() × n` cells are independent (every
/// cell opens its own source and builds a cold predictor), so they fan
/// out across up to `threads` workers (`None`: available parallelism,
/// capped at 16, like the suite scheduler); results assemble in
/// deterministic (predictor, source) order regardless of completion
/// order.
///
/// # Errors
///
/// Propagates source-open and decode-integrity errors (the first error in
/// cell order wins).
pub fn run_matrix<F>(
    n: usize,
    open: F,
    cfg: &PipelineConfig,
    threads: Option<usize>,
) -> io::Result<Vec<(&'static str, SuiteReport)>>
where
    F: Fn(usize) -> io::Result<Box<dyn TraceDecoder + Send>> + Sync,
{
    let cells = MATRIX.len() * n;
    let threads = threads.unwrap_or_else(default_threads).clamp(1, cells.max(1));
    let specs: Vec<PredictorSpec> = MATRIX
        .iter()
        // INVARIANT: MATRIX is a static table; a bad entry is a bug the
        // registry tests catch, not an input error.
        .map(|(_, spec)| PredictorSpec::parse(spec).expect("matrix specs parse"))
        .collect();
    let slots: Vec<Mutex<Option<io::Result<pipeline::SimReport>>>> =
        (0..cells).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                // ORDERING: work-claim ticket only — each worker takes a
                // distinct cell index; result visibility rides the slot
                // mutex and scope join, not this counter.
                let cell = next.fetch_add(1, Ordering::Relaxed);
                if cell >= cells {
                    return;
                }
                let (predictor, source) = (cell / n, cell % n);
                let result = open(source).and_then(|mut src| {
                    run_spec_cell(&specs[predictor], MATRIX_SCENARIO, &mut src, cfg)
                });
                // INVARIANT: slot mutexes are uncontended by construction
                // (each cell index is claimed once); poison would mean a
                // sibling worker already panicked — propagate it.
                *slots[cell].lock().unwrap() = Some(result);
            });
        }
    });
    let mut slots = slots.into_iter();
    MATRIX
        .iter()
        .map(|(name, _)| {
            let reports: io::Result<Vec<_>> = slots
                .by_ref()
                .take(n)
                // INVARIANT: the thread scope joined every worker, so each
                // claimed cell stored exactly one result.
                .map(|slot| slot.into_inner().unwrap().expect("matrix cell unfilled"))
                .collect();
            Ok((*name, SuiteReport::new(reports?)))
        })
        .collect()
}

/// The matrix over external trace files (format-autodetected, streamed).
///
/// # Errors
///
/// Propagates detection, open, and decode errors for any file.
pub fn run_files(
    files: &[PathBuf],
    cfg: &PipelineConfig,
    threads: Option<usize>,
) -> io::Result<Vec<(&'static str, SuiteReport)>> {
    let registry = CodecRegistry::standard();
    run_matrix(files.len(), |i| registry.open(&files[i]), cfg, threads)
}

/// The matrix over synthetic trace recipes (the direct-run baseline the
/// recorded-file path is measured against).
///
/// # Errors
///
/// Never fails in practice (synthetic streams cannot be corrupt); the
/// `io::Result` mirrors [`run_files`] for symmetry.
pub fn run_specs(
    specs: &[TraceSpec],
    cfg: &PipelineConfig,
    threads: Option<usize>,
) -> io::Result<Vec<(&'static str, SuiteReport)>> {
    let open = |i: usize| Ok(Box::new(SpecSource(specs[i].stream())) as _);
    run_matrix(specs.len(), open, cfg, threads)
}

/// Renders the matrix: a per-trace MPPKI table plus category means,
/// mirroring the suite-report layout.
pub fn render(results: &[(&'static str, SuiteReport)]) -> String {
    let mut out = String::new();
    let Some((_, first)) = results.first() else {
        return out;
    };
    let mut columns = vec!["trace", "category"];
    columns.extend(results.iter().map(|(name, _)| *name));
    let mut t = Table::new("TRACE MODE — per-trace MPPKI, scenario [A]", &columns);
    for i in 0..first.reports.len() {
        let mut row = vec![first.reports[i].trace.clone(), first.reports[i].category.clone()];
        row.extend(results.iter().map(|(_, s)| f1(s.reports[i].mppki())));
        t.row(row);
    }
    out.push_str(&t.render());

    // Category means, in first-appearance order.
    let mut categories: Vec<String> = Vec::new();
    for r in &first.reports {
        if !categories.contains(&r.category) {
            categories.push(r.category.clone());
        }
    }
    let mut columns = vec!["category", "traces"];
    columns.extend(results.iter().map(|(name, _)| *name));
    let mut g = Table::new("TRACE MODE — category mean MPPKI", &columns);
    for cat in &categories {
        let count = first.reports.iter().filter(|r| &r.category == cat).count();
        let mut row = vec![cat.clone(), count.to_string()];
        row.extend(results.iter().map(|(_, s)| {
            let sum: f64 = s
                .reports
                .iter()
                .filter(|r| &r.category == cat)
                .map(pipeline::SimReport::mppki)
                .sum();
            f1(sum / count.max(1) as f64)
        }));
        g.row(row);
    }
    out.push_str(&g.render());
    out
}

/// Records a materialized trace into `dir` as `<name>.<ext>` using
/// `codec`, atomically (temp file + rename).
///
/// # Errors
///
/// Propagates encode and file I/O errors.
pub fn record_trace(trace: &Trace, codec: &dyn TraceCodec, dir: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let ext = codec.extensions()[0];
    let path = dir.join(format!("{}.{ext}", trace.name));
    // The temp name keeps the codec extension: recording the same trace
    // through two codecs concurrently must not collide on one temp file.
    let tmp = dir.join(format!("{}.{ext}.tmp.{}", trace.name, std::process::id()));
    {
        let mut w = io::BufWriter::new(std::fs::File::create(&tmp)?);
        codec.encode(&mut w, trace)?;
        use io::Write;
        w.flush()?;
    }
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Records a *streamed* trace into `dir` as `<name>.<ext>` using
/// `codec`, atomically. Unlike [`record_trace`] the events are never
/// materialized here: the codec pulls them through
/// [`TraceCodec::encode_stream`], re-invoking `make_source` when its
/// layout needs a second pass, so peak memory is bounded by the codec's
/// working set (the static-branch table plus, for block formats, one
/// block buffer) regardless of trace length. Byte-identical to the
/// materialized path for every registered codec (the trait contract,
/// pinned per codec in `tage-traces`).
///
/// # Errors
///
/// Propagates encode and file I/O errors.
pub fn record_stream(
    name: &str,
    codec: &dyn TraceCodec,
    dir: &Path,
    make_source: &mut dyn FnMut() -> io::Result<Box<dyn EventSource + Send>>,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let ext = codec.extensions()[0];
    let path = dir.join(format!("{name}.{ext}"));
    let tmp = dir.join(format!("{name}.{ext}.tmp.{}", std::process::id()));
    let mut write = || -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(&tmp)?);
        codec.encode_stream(&mut w, make_source)?;
        use io::Write;
        w.flush()
    };
    if let Err(e) = write() {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::suite::{by_name, Scale};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("tage-trace-mode-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn matrix_over_recorded_files_matches_direct_specs() {
        let specs: Vec<TraceSpec> = ["CLIENT01", "MM01"]
            .iter()
            .map(|n| by_name(n, Scale::Tiny).unwrap())
            .collect();
        let dir = temp_dir("matrix");
        let codec = traces::TtrCodec;
        let files: Vec<PathBuf> = specs
            .iter()
            .map(|s| record_trace(&s.generate(), &codec, &dir).unwrap())
            .collect();
        let cfg = PipelineConfig::default();
        let direct = run_specs(&specs, &cfg, Some(2)).unwrap();
        let recorded = run_files(&files, &cfg, Some(2)).unwrap();
        assert_eq!(direct.len(), recorded.len());
        for ((n1, a), (n2, b)) in direct.iter().zip(&recorded) {
            assert_eq!(n1, n2);
            assert_eq!(a.reports, b.reports, "predictor {n1} diverged on recorded input");
        }
        assert_eq!(render(&direct), render(&recorded));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn matrix_cells_match_directly_built_predictors() {
        // Each column's spec string must simulate exactly the predictor
        // its display name promises: the preset constructors, run through
        // the engine directly, reproduce the matrix report for report.
        use pipeline::{BlockSim, WindowEngine};
        use tage::TageSystem;
        let specs: Vec<TraceSpec> =
            ["INT02", "WS03"].iter().map(|n| by_name(n, Scale::Tiny).unwrap()).collect();
        let cfg = PipelineConfig::default();
        let matrix = run_specs(&specs, &cfg, Some(2)).unwrap();
        let direct = |column: usize| -> Box<dyn BlockSim> {
            let sc = MATRIX_SCENARIO;
            match column {
                0 => Box::new(WindowEngine::new(baselines::Gshare::cbp_512k(), sc, &cfg)),
                1 => Box::new(WindowEngine::new(baselines::Gehl::cbp_520k(), sc, &cfg)),
                2 => Box::new(WindowEngine::new(TageSystem::reference_tage(), sc, &cfg)),
                3 => Box::new(WindowEngine::new(TageSystem::tage_ium(), sc, &cfg)),
                4 => Box::new(WindowEngine::new(TageSystem::isl_tage(), sc, &cfg)),
                _ => Box::new(WindowEngine::new(TageSystem::tage_lsc(), sc, &cfg)),
            }
        };
        assert_eq!(matrix.len(), 6);
        for (column, (name, suite)) in matrix.iter().enumerate() {
            for (report, spec) in suite.reports.iter().zip(&specs) {
                let want = simulate_engine(&mut *direct(column), &mut spec.stream());
                assert_eq!(*report, want, "{name} diverged on {}", spec.name);
            }
        }
    }

    #[test]
    fn record_stream_is_byte_identical_to_record_trace() {
        let spec = by_name("CLIENT03", Scale::Tiny).unwrap();
        let trace = spec.generate();
        let dir = temp_dir("stream-rec");
        for codec_name in ["ttr", "ttr3"] {
            let registry = traces::CodecRegistry::standard();
            let codec = registry.by_name(codec_name).unwrap();
            let materialized = record_trace(&trace, codec, &dir.join("mat")).unwrap();
            let streamed = record_stream(
                &trace.name,
                codec,
                &dir.join("str"),
                &mut || Ok(Box::new(spec.stream()) as _),
            )
            .unwrap();
            assert_eq!(
                std::fs::read(&materialized).unwrap(),
                std::fs::read(&streamed).unwrap(),
                "{codec_name}: streamed record diverged from materialized"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn matrix_parallelism_is_deterministic() {
        let specs: Vec<TraceSpec> =
            ["INT03", "WS05"].iter().map(|n| by_name(n, Scale::Tiny).unwrap()).collect();
        let cfg = PipelineConfig::default();
        let serial = run_specs(&specs, &cfg, Some(1)).unwrap();
        let parallel = run_specs(&specs, &cfg, Some(8)).unwrap();
        for ((n1, a), (n2, b)) in serial.iter().zip(&parallel) {
            assert_eq!(n1, n2);
            assert_eq!(a.reports, b.reports, "{n1} diverged across thread counts");
        }
    }

    #[test]
    fn render_groups_by_category() {
        let specs: Vec<TraceSpec> =
            ["WS01", "WS02"].iter().map(|n| by_name(n, Scale::Tiny).unwrap()).collect();
        let results = run_specs(&specs, &PipelineConfig::default(), None).unwrap();
        let s = render(&results);
        assert!(s.contains("per-trace MPPKI"));
        assert!(s.contains("category mean MPPKI"));
        assert!(s.contains("WS01"));
        // One category row covering both traces.
        let mean_section = s.split("category mean").nth(1).unwrap();
        assert!(mean_section.contains("WS"));
        assert!(mean_section.contains('2'));
    }

    #[test]
    fn corrupt_recorded_file_is_an_error_not_a_truncated_run() {
        let spec = by_name("INT04", Scale::Tiny).unwrap();
        let dir = temp_dir("corrupt");
        let path = record_trace(&spec.generate(), &traces::TtrCodec, &dir).unwrap();
        // Truncate the recorded file mid-event-stream.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();
        let err = run_files(&[path], &PipelineConfig::default(), None);
        assert!(err.is_err(), "truncated input must fail loudly");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
