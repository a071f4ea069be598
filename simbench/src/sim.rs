//! The simulator entry points every workload shares: recording a trace
//! recipe as `.ttr3` + lz, and the per-(spec × trace file) cell recipe.

use harness::PredictorSpec;
use pipeline::{PipelineConfig, SimReport, DEFAULT_BATCH};
use simkit::UpdateScenario;
use std::io;
use std::path::{Path, PathBuf};
use traces::{CodecRegistry, Ttr3Writer, TTR3_INDEX_FLAG};
use workloads::event::EventBlock;
use workloads::{EventSource, TraceSpec};

use crate::spans::Tracer;

/// A recorded trace file and what it holds.
#[derive(Clone, Debug)]
pub struct Recorded {
    pub name: String,
    pub path: PathBuf,
    pub events: u64,
    pub conditionals: u64,
}

/// The `.ttr3` scheme byte `tage_trace record --format ttr3` writes: lz
/// blocks plus the seekable block index.
pub fn lz_scheme() -> u8 {
    let lz = traces::SCHEMES.iter().find(|(name, _, _)| *name == "lz");
    // INVARIANT: lz is one of the two built-in block schemes.
    lz.expect("lz scheme registered").1 | TTR3_INDEX_FLAG
}

/// Streams `spec` through [`Ttr3Writer`] into `<dir>/<name>.ttr3`.
pub fn record(spec: &TraceSpec, dir: &Path) -> io::Result<Recorded> {
    let path = dir.join(format!("{}.ttr3", spec.name));
    let out = io::BufWriter::new(std::fs::File::create(&path)?);
    let mut w = Ttr3Writer::new(out, &spec.name, spec.category.as_str(), lz_scheme())?;
    let mut src = spec.stream();
    let mut block = EventBlock::with_capacity(DEFAULT_BATCH);
    let mut conditionals = 0;
    while src.next_block(&mut block, DEFAULT_BATCH) > 0 {
        for e in &block.events {
            conditionals += u64::from(e.kind.is_conditional());
            w.push(e)?;
        }
    }
    let events = w.finish()?.events;
    Ok(Recorded {
        name: spec.name.clone(),
        path,
        events,
        conditionals,
    })
}

/// Records every spec into `dir` on `threads` threads, in spec order.
pub fn record_all(specs: &[TraceSpec], dir: &Path, threads: usize) -> io::Result<Vec<Recorded>> {
    std::fs::create_dir_all(dir)?;
    let chunk = specs.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().map(|t| record(t, dir)).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("recording thread panicked"))
            .collect()
    })
}

/// Flushes recorded files to disk, so their write-back does not land in
/// a timed region.
pub fn sync(files: &[Recorded]) -> io::Result<()> {
    files
        .iter()
        .try_for_each(|f| std::fs::File::open(&f.path)?.sync_all())
}

/// One cell: open `path`, build `spec` into a block engine, feed it block
/// by block, and check the decoder ended cleanly — the recipe
/// `tage_exp trace` and a served session run, with each call into a
/// layer timed as a span.
pub fn run_cell(
    spec: &PredictorSpec,
    scenario: UpdateScenario,
    path: &Path,
    tracer: &mut Tracer,
    op: u32,
) -> io::Result<SimReport> {
    let registry = CodecRegistry::standard();
    let mut src = tracer.time("traces.open", op, || registry.open(path))?;
    let cfg = PipelineConfig::default();
    let mut engine = tracer
        .time("harness.build_engine", op, || {
            spec.build_engine(scenario, &cfg)
        })
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let mut block = EventBlock::with_capacity(DEFAULT_BATCH);
    while tracer.time("traces.next_block", op, || {
        src.next_block(&mut block, DEFAULT_BATCH)
    }) > 0
    {
        tracer.time("pipeline.run_block", op, || engine.run_block(&block.events));
        if engine.done() {
            break;
        }
    }
    let report = tracer.time("pipeline.finish", op, || {
        engine.finish(src.name(), src.category())
    });
    traces::finish(src.as_ref())?;
    Ok(report)
}

/// 64-bit FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
    })
}

/// Digest of every counter of a cell's report. The predictor's display
/// name is left out: specs that differ only in their `as=` label share a
/// memoised suite, whose name is whichever label was submitted first.
pub fn digest(report: &SimReport) -> u64 {
    let counters = SimReport {
        predictor: String::new(),
        ..report.clone()
    };
    fnv(format!("{counters:?}").as_bytes())
}

/// Fisher-Yates permutation of `0..n` from `seed` (SplitMix64 stream).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_shuffle() {
        let a = permutation(40, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<_>>());
        assert_eq!(a, permutation(40, 7));
        assert_ne!(a, permutation(40, 8));
    }
}
