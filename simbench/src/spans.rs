//! Spans recorded around calls into the simulator's public entry points.
//!
//! A [`Tracer`] belongs to one thread. When off, [`Tracer::time`] is a
//! plain call; when on, it also records one [`Span`] per call, kept in
//! memory until the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call: the layer entry point, the op it served, and when.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Entry point, `layer.call`.
    pub name: &'static str,
    /// The op (cell, session, experiment) the call was made for; spans
    /// of one op share it.
    pub op: u32,
    /// Start, relative to the run's origin.
    pub start: Duration,
    /// Duration of the call.
    pub dur: Duration,
}

/// Per-thread span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records when `on`; spans are timed from `origin`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            origin,
            spans: on.then(Vec::new),
        }
    }

    /// Runs `f`, recording it as a span of `op` when tracing is on.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
        let Some(spans) = &mut self.spans else {
            return f();
        };
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed();
        spans.push(Span {
            name,
            op,
            start: t0 - self.origin,
            dur,
        });
        out
    }

    /// The recorded spans (empty when tracing is off).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Total time of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> Duration {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur).sum()
}

/// Writes spans as tab-separated `op name start_ns dur_ns` lines.
pub fn write_tsv(spans: &[Span], path: &Path) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "op\tname\tstart_ns\tdur_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}",
            s.op,
            s.name,
            s.start.as_nanos(),
            s.dur.as_nanos()
        )?;
    }
    w.flush()
}
