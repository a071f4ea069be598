//! Output checks: per-cell counter digests that must repeat across rounds,
//! passes and invocations, and the repository's own golden outputs.

use harness::experiments::{by_id, prefetch, ALL_EXPERIMENTS};
use harness::trace_mode::{self, MATRIX, MATRIX_SCENARIO};
use harness::{ExpContext, ExpOptions, PredictorSpec};
use pipeline::SuiteReport;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::suite::{by_name, Scale};

use crate::sim::{self, fnv};
use crate::spans::Tracer;
use crate::THREADS;

/// Per-cell digests seen so far by this build of the benchmark. The file
/// is keyed by a hash of the benchmark executable, so a rebuilt program
/// starts a fresh record instead of comparing against another build.
pub struct DigestStore {
    path: PathBuf,
    known: BTreeMap<String, u64>,
}

impl DigestStore {
    /// Loads the store for `workload` from `dir` (empty if absent).
    pub fn open(dir: &Path, workload: &str) -> io::Result<Self> {
        let exe = std::fs::read(std::env::current_exe()?)?;
        let path = dir.join(format!("digests-{workload}-{:016x}.txt", fnv(&exe)));
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let known = text
            .lines()
            .filter_map(|l| {
                let (d, key) = l.split_once(' ')?;
                Some((key.to_string(), u64::from_str_radix(d, 16).ok()?))
            })
            .collect();
        Ok(Self { path, known })
    }

    /// Records `digest` for `key`; false if `key` was seen with another.
    pub fn check(&mut self, key: String, digest: u64) -> bool {
        *self.known.entry(key).or_insert(digest) == digest
    }

    /// Persists the store for the next invocation.
    pub fn save(&self) -> io::Result<()> {
        let text: String = self
            .known
            .iter()
            .map(|(k, d)| format!("{d:016x} {k}\n"))
            .collect();
        std::fs::write(&self.path, text)
    }
}

/// Diffs `tage_exp all --scale tiny` and the tiny trace-mode matrix
/// against the repository's goldens. Returns one line per mismatch.
pub fn goldens(root: &Path, work: &Path) -> io::Result<Vec<String>> {
    let mut failures = Vec::new();
    let ctx = ExpContext::with_options(
        Scale::Tiny,
        ExpOptions {
            threads: Some(THREADS),
            ..Default::default()
        },
    );
    prefetch(&ctx, &ALL_EXPERIMENTS);
    let mut tables = String::new();
    for id in ALL_EXPERIMENTS {
        // INVARIANT: ALL_EXPERIMENTS lists registry ids.
        tables.push_str(&by_id(id).expect("registered experiment").render(&ctx));
        tables.push('\n');
    }
    let golden = root.join("crates/harness/tests/golden/all_tiny.txt");
    if tables != std::fs::read_to_string(&golden)? {
        failures.push(format!(
            "all --scale tiny differs from {}",
            golden.display()
        ));
    }

    // The trace-mode golden: CLIENT01 and MM01 at Tiny, recorded and
    // replayed through every matrix column.
    let dir = work.join("golden");
    std::fs::create_dir_all(&dir)?;
    let files: Vec<PathBuf> = ["CLIENT01", "MM01"]
        .iter()
        .map(|n| sim::record(&by_name(n, Scale::Tiny).expect("suite trace"), &dir).map(|r| r.path))
        .collect::<io::Result<_>>()?;
    let mut tracer = Tracer::new(false, Instant::now());
    let mut results = Vec::new();
    for (name, spec) in MATRIX {
        let spec = PredictorSpec::parse(spec).expect("matrix spec parses");
        let reports = files
            .iter()
            .map(|f| sim::run_cell(&spec, MATRIX_SCENARIO, f, &mut tracer, 0))
            .collect::<io::Result<Vec<_>>>()?;
        results.push((name, SuiteReport::new(reports)));
    }
    let expected = root.join("crates/harness/tests/data/trace_mode_expected.txt");
    if trace_mode::render(&results) != std::fs::read_to_string(&expected)? {
        failures.push(format!(
            "tiny trace matrix differs from {}",
            expected.display()
        ));
    }
    Ok(failures)
}
