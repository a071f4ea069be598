//! External trace files through predictor specs — `tage_exp system
//! --trace`, the offline twin of a `tage_serve` session.
//!
//! Every other experiment consumes the synthetic 40-trace suite; this
//! module runs specs over recorded trace files through the `tage-traces`
//! codec registry, streaming. With no spec given, `system --trace` runs
//! the paper's predictor [`MATRIX`]. Results are grouped into categories
//! exactly like the synthetic suite (the codec supplies the category —
//! `.ttr`/`.ttr3` from the header, CSV from its `category=` comment or
//! the filename prefix), so the report tables render unchanged.
//!
//! [`run`] takes its [`Sources`] as an opener, so the same specs run over
//! synthetic [`TraceSpec`]s directly; the
//! `recorded_ttr_run_is_bit_identical_to_synthetic` integration test pins
//! `tage_trace record` → `tage_exp system --trace` to the direct run,
//! report for report.

use crate::runner::WorkerPool;
use crate::spec::PredictorSpec;
use crate::table::{f1, Table};
use pipeline::{simulate_engine, BlockSim, PipelineConfig, SuiteReport};
use simkit::predictor::UpdateScenario;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use traces::{CodecRegistry, TraceCodec, TraceDecoder, Ttr3Writer};
use workloads::event::{EventSource, Trace, TraceEvent};
use workloads::TraceSpec;

/// The predictor matrix as `(display name, spec)` pairs, in table-column
/// order: the spec list of `tage_exp system --trace` and `tage_exp
/// sample` when none is given. Each cell builds its engine through
/// [`PredictorSpec::build_engine`], like every other simulation.
pub const MATRIX: [(&str, &str); 6] = [
    ("gshare-512K", "gshare:512k"),
    ("GEHL-520K", "gehl:520k"),
    ("TAGE (ref)", "tage"),
    ("TAGE+IUM", "tage+ium"),
    ("ISL-TAGE", "tage+ium+sc+loop/as=ISL-TAGE"),
    ("TAGE-LSC", "tage:lsc+ium+lsc/as=TAGE-LSC"),
];

/// Update scenario of every sampled run, and of external-trace runs
/// unless `--scenario` says otherwise (the paper's default, [A]).
pub const MATRIX_SCENARIO: UpdateScenario = UpdateScenario::RereadAtRetire;

/// [`MATRIX`]'s specs, parsed, in column order.
pub fn matrix_specs() -> Vec<PredictorSpec> {
    MATRIX
        .iter()
        // INVARIANT: MATRIX is a static table; a bad entry is a bug the
        // unit tests catch, not an input error.
        .map(|(_, spec)| PredictorSpec::parse(spec).expect("matrix specs parse"))
        .collect()
}

/// A spec's column name in rendered tables: its [`MATRIX`] display name
/// when it is a matrix spec, else its canonical string.
pub fn display_name(spec: &PredictorSpec) -> String {
    let canonical = spec.to_string();
    match MATRIX.iter().find(|(_, s)| *s == canonical) {
        Some((name, _)) => name.to_string(),
        None => canonical,
    }
}

/// The sources a run reads. [`run`] opens source `i` afresh for every
/// cell, so cells share nothing and run in any order.
pub trait Sources: Send + Sync + 'static {
    /// Number of sources.
    fn count(&self) -> usize;

    /// A fresh decoder positioned at the start of source `i`.
    ///
    /// # Errors
    ///
    /// Propagates detection and open errors.
    fn open(&self, i: usize) -> io::Result<Box<dyn TraceDecoder + Send>>;
}

/// Recorded trace files, format-autodetected per file.
impl Sources for Vec<PathBuf> {
    fn count(&self) -> usize {
        self.len()
    }

    fn open(&self, i: usize) -> io::Result<Box<dyn TraceDecoder + Send>> {
        CodecRegistry::standard().open(&self[i])
    }
}

/// Synthetic trace recipes, streamed from the generator: the direct-run
/// reference that recorded files are pinned against.
impl Sources for Vec<TraceSpec> {
    fn count(&self) -> usize {
        self.len()
    }

    fn open(&self, i: usize) -> io::Result<Box<dyn TraceDecoder + Send>> {
        Ok(Box::new(SpecSource(self[i].stream())))
    }
}

/// A [`TraceDecoder`] wrapper for synthetic program streams, so the
/// runner treats generated and recorded sources uniformly.
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
/// This is THE per-(spec × trace) recipe — [`run`] and the sampler's
/// full-run check funnel through it, and a `tage_serve` session runs the
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

/// Runs every spec over every source under `scenario`. Each (spec ×
/// source) cell — a cold engine over a freshly opened source,
/// [`run_spec_cell`] — is one job on `pool`'s ordered fan-out
/// ([`WorkerPool::run_ordered`]). Returns one [`SuiteReport`] per spec,
/// in spec order, its reports in source order, whatever order the cells
/// finish in.
///
/// # Errors
///
/// Propagates open, spec-build and decode-integrity errors; the first
/// failing cell in (spec, source) order wins.
pub fn run(
    specs: &[PredictorSpec],
    scenario: UpdateScenario,
    sources: impl Sources,
    cfg: &PipelineConfig,
    pool: &WorkerPool,
) -> io::Result<Vec<SuiteReport>> {
    let n = sources.count();
    let sources = Arc::new(sources);
    let cfg = Arc::new(cfg.clone());
    let jobs = specs
        .iter()
        .flat_map(|spec| (0..n).map(move |i| (spec.clone(), i)))
        .map(|(spec, i)| {
            let (sources, cfg) = (Arc::clone(&sources), Arc::clone(&cfg));
            move || run_spec_cell(&spec, scenario, &mut sources.open(i)?, &cfg)
        })
        .collect();
    let mut cells = pool.run_ordered(jobs).into_iter();
    specs
        .iter()
        .map(|_| cells.by_ref().take(n).collect::<io::Result<_>>().map(SuiteReport::new))
        .collect()
}

/// Renders named runs over the same sources: a per-trace MPPKI table
/// (titled with the reports' update scenario) plus category means,
/// mirroring the suite-report layout.
pub fn render(results: &[(&str, SuiteReport)]) -> String {
    let mut out = String::new();
    let Some((_, first)) = results.first() else {
        return out;
    };
    let scenario = first.reports.first().map_or("-", |r| r.scenario.label());
    let mut columns = vec!["trace", "category"];
    columns.extend(results.iter().map(|(name, _)| *name));
    let title = format!("TRACE MODE — per-trace MPPKI, scenario [{scenario}]");
    let mut t = Table::new(&title, &columns);
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

/// Writes `path` atomically: `write` fills a buffered temp file beside
/// it (`<file name>.tmp.<pid>`), which is flushed and renamed into place.
/// On any failure the temp file is removed, so neither a partial file nor
/// a clobbered destination is left behind.
///
/// # Errors
///
/// Propagates `write`'s error and file I/O errors.
pub fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("out");
    // The temp name keeps the full file name: writing one trace in two
    // formats concurrently must not collide on one temp file.
    let tmp = path.with_file_name(format!("{name}.tmp.{}", std::process::id()));
    let result = std::fs::File::create(&tmp)
        .and_then(|f| {
            let mut w = io::BufWriter::new(f);
            write(&mut w)?;
            w.flush()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Records a materialized trace into `dir` as `<name>.<ext>` using
/// `codec`, atomically ([`write_atomic`]).
///
/// # Errors
///
/// Propagates encode and file I/O errors.
pub fn record_trace(trace: &Trace, codec: &dyn TraceCodec, dir: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.{}", trace.name, codec.extensions()[0]));
    write_atomic(&path, |w| codec.encode(w, trace))?;
    Ok(path)
}

/// Records a synthetic trace into `dir` as `<name>.ttr3` under
/// [`traces::RECORD_SCHEME`], atomically — `tage_trace record`. The
/// generator streams straight into [`Ttr3Writer`], so peak memory is one
/// block buffer plus the static-branch table at any trace length. The
/// bytes equal [`record_trace`] of the generated trace through
/// [`traces::Ttr3Codec`].
///
/// # Errors
///
/// Propagates encode and file I/O errors.
pub fn record_spec(spec: &TraceSpec, dir: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.ttr3", spec.name));
    write_atomic(&path, |w| {
        let mut src = spec.stream();
        let mut writer = Ttr3Writer::new(w, src.name(), src.category(), traces::RECORD_SCHEME)?;
        while let Some(e) = src.next_event() {
            writer.push(&e)?;
        }
        writer.finish().map(|_| ())
    })?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::RunArtifact;
    use workloads::suite::{by_name, Scale};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("tage-trace-mode-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny(names: &[&str]) -> Vec<TraceSpec> {
        names.iter().map(|n| by_name(n, Scale::Tiny).unwrap()).collect()
    }

    /// The matrix over `sources` on a `threads`-worker pool, with its
    /// display names.
    fn matrix(
        sources: impl Sources,
        cfg: &PipelineConfig,
        threads: usize,
    ) -> io::Result<Vec<(&'static str, SuiteReport)>> {
        let suites =
            run(&matrix_specs(), MATRIX_SCENARIO, sources, cfg, &WorkerPool::new(threads))?;
        Ok(MATRIX.iter().map(|(name, _)| *name).zip(suites).collect())
    }

    #[test]
    fn matrix_specs_are_canonical_and_keep_their_display_names() {
        for ((name, text), spec) in MATRIX.iter().zip(matrix_specs()) {
            assert_eq!(spec.to_string(), *text, "MATRIX holds canonical spec strings");
            assert_eq!(display_name(&spec), *name);
        }
        assert_eq!(display_name(&PredictorSpec::parse("gshare:12").unwrap()), "gshare:12");
    }

    #[test]
    fn matrix_over_recorded_files_matches_direct_specs() {
        let specs = tiny(&["CLIENT01", "MM01"]);
        let dir = temp_dir("matrix");
        let files: Vec<PathBuf> = specs.iter().map(|s| record_spec(s, &dir).unwrap()).collect();
        let cfg = PipelineConfig::default();
        let direct = matrix(specs, &cfg, 2).unwrap();
        let recorded = matrix(files, &cfg, 2).unwrap();
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
        use pipeline::WindowEngine;
        use tage::TageSystem;
        let specs = tiny(&["INT02", "WS03"]);
        let cfg = PipelineConfig::default();
        let matrix = matrix(specs.clone(), &cfg, 2).unwrap();
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
    fn record_spec_is_byte_identical_to_record_trace() {
        let spec = by_name("CLIENT03", Scale::Tiny).unwrap();
        let dir = temp_dir("stream-rec");
        let materialized =
            record_trace(&spec.generate(), &traces::Ttr3Codec, &dir.join("mat")).unwrap();
        let streamed = record_spec(&spec, &dir.join("str")).unwrap();
        assert_eq!(streamed.file_name().unwrap(), "CLIENT03.ttr3");
        assert_eq!(
            std::fs::read(&materialized).unwrap(),
            std::fs::read(&streamed).unwrap(),
            "streamed record diverged from materialized"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_record_leaves_no_temp_file() {
        // `.ttr` v2 is read-only: its encode fails before writing a byte,
        // after `write_atomic` has created the temp file.
        let trace = Trace { name: "V2ONLY".into(), category: "V".into(), events: vec![] };
        let dir = temp_dir("failed-rec");
        assert!(record_trace(&trace, &traces::TtrCodec, &dir).is_err());
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert!(left.is_empty(), "a failed record left {left:?} behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warmup_traffic_is_not_counted() {
        // Under a warm-up window every matrix predictor reads its tables
        // once per *measured* conditional: the access counters cover the
        // events that `conditionals` counts. A trace that ends inside the
        // warm-up measures nothing and reports no traffic.
        for (warmup, measured) in [(2_000, true), (1 << 40, false)] {
            let cfg = PipelineConfig {
                window: pipeline::SimWindow { skip: 0, warmup, measure: 2_000 },
                ..PipelineConfig::default()
            };
            for (name, suite) in matrix(tiny(&["CLIENT01"]), &cfg, 2).unwrap() {
                let r = &suite.reports[0];
                assert_eq!(r.conditionals > 0, measured, "{name} under warm-up {warmup}");
                assert_eq!(r.stats.predict_reads, r.conditionals, "{name} under warm-up {warmup}");
            }
        }
    }

    #[test]
    fn matrix_parallelism_is_deterministic() {
        // Reports, and the `tage.run/1` bytes `system --trace --artifacts`
        // writes from them (per-branch rows included), are the same on one
        // worker and on four.
        let specs = tiny(&["INT03", "WS05"]);
        let cfg = PipelineConfig { branch_stats: true, ..PipelineConfig::default() };
        let serial = matrix(specs.clone(), &cfg, 1).unwrap();
        let parallel = matrix(specs, &cfg, 4).unwrap();
        let artifact = |spec: &PredictorSpec, suite: &SuiteReport| {
            RunArtifact::from_suite(&spec.sim_key(), MATRIX_SCENARIO, "external", suite, None, 20)
                .to_json()
        };
        for (spec, ((n1, a), (n2, b))) in matrix_specs().iter().zip(serial.iter().zip(&parallel)) {
            assert_eq!(n1, n2);
            assert_eq!(a.reports, b.reports, "{n1} diverged across thread counts");
            assert_eq!(artifact(spec, a), artifact(spec, b), "{n1} artifact bytes diverged");
        }
    }

    #[test]
    fn render_groups_by_category() {
        let results = matrix(tiny(&["WS01", "WS02"]), &PipelineConfig::default(), 2).unwrap();
        let s = render(&results);
        assert!(s.contains("per-trace MPPKI, scenario [A]"));
        assert!(s.contains("category mean MPPKI"));
        assert!(s.contains("WS01"));
        // One category row covering both traces.
        let mean_section = s.split("category mean").nth(1).unwrap();
        assert!(mean_section.contains("WS"));
        assert!(mean_section.contains('2'));
        // The title follows the scenario the reports ran under.
        let spec = [PredictorSpec::parse("gshare:12").unwrap()];
        let cfg = PipelineConfig::default();
        let sc = UpdateScenario::Immediate;
        let under_i = run(&spec, sc, tiny(&["WS01"]), &cfg, &WorkerPool::new(1)).unwrap();
        let named = [("gshare:12", under_i[0].clone())];
        assert!(render(&named).contains("per-trace MPPKI, scenario [I]"));
    }

    #[test]
    fn corrupt_recorded_file_is_an_error_not_a_truncated_run() {
        let dir = temp_dir("corrupt");
        let path = record_spec(&by_name("INT04", Scale::Tiny).unwrap(), &dir).unwrap();
        // Truncate the recorded file mid-block (the trailer goes too).
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();
        let err = matrix(vec![path], &PipelineConfig::default(), 2);
        assert!(err.is_err(), "truncated input must fail loudly");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
