//! Versioned machine-readable run artifacts.
//!
//! Every text table `tage_exp` renders evaporates when the terminal
//! scrolls; a [`RunArtifact`] is the durable twin — one JSON document per
//! unique (predictor composition, update scenario) suite, carrying the
//! raw per-trace counters of every [`SimReport`] plus the optional
//! per-static-branch profiles. Derived metrics (MPPKI, rates) are *not*
//! stored: `tage_exp report` reconstructs [`SimReport`]s with
//! [`RunArtifact::suite_report`] and recomputes them, so the artifact
//! stays a pure counter record that two runs can be diffed over exactly.
//!
//! Determinism contract: artifacts contain only content that is invariant
//! across worker-thread counts and batch sizes — simulation counters and
//! the main-thread-deterministic scheduler counters. Wall-clock timing
//! ([`SchedulerStats::sim_busy_nanos`]) is deliberately excluded (it is
//! console-only), so the same command emits byte-identical artifacts
//! under `--threads 1` and `--threads 4`, batched or scalar. The
//! `artifacts_are_byte_deterministic` integration test pins this.
//!
//! Serialization is the repo's hand-rolled JSON path: a fixed-field-order
//! writer plus a minimal recursive-descent parser covering exactly the
//! subset the writer emits (objects, arrays, strings, unsigned integers,
//! null).

use crate::SchedulerStats;
use pipeline::{BranchProfile, BranchStat, SimReport, SuiteReport};
use simkit::predictor::UpdateScenario;
use simkit::stats::AccessStats;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Artifact schema identifier. Bump the `/N` suffix on any
/// field addition, removal, or meaning change — `tage_exp report`
/// refuses documents whose schema string differs, so mixed-version
/// comparisons fail loudly instead of diffing silently misaligned
/// counters. Exception: *optional* blocks (`sampling`) may be added
/// without a bump — the parser treats a missing optional block as
/// absent, so pre-existing `/1` documents keep loading and counters
/// never shift meaning. The DESIGN.md §7 schema table documents this
/// version (the `tage_lint` doc-sync pass pins the two against each
/// other).
pub const ARTIFACT_SCHEMA: &str = "tage.run/1";

/// One run artifact: a predictor composition simulated over a trace
/// suite under one update scenario. Field order here is the JSON field
/// order (the writer emits fields exactly as declared).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunArtifact {
    /// Schema identifier; always [`ARTIFACT_SCHEMA`] for documents this
    /// build writes.
    pub schema: String,
    /// Canonical spec string without its display label — the
    /// suite-scheduler memo key, [`crate::spec::PredictorSpec::sim_key`]
    /// — in every mode, so label-only variants share one file.
    pub spec: String,
    /// Display name of the built predictor.
    pub predictor: String,
    /// Update scenario, as its stable single-letter label
    /// (`I`/`A`/`B`/`C`, [`UpdateScenario::label`]).
    pub scenario: String,
    /// Trace scale (`tiny`/`small`/`default`/`full`), or `external` for
    /// recorded trace files.
    pub scale: String,
    /// Scheduler counters at emission time (deterministic: jobs and memo
    /// hits, never wall time). `None` for runs that bypass the suite
    /// scheduler (external-trace and sampled runs).
    pub scheduler: Option<SchedulerBlock>,
    /// Sampling parameters when the counters come from a sampled run
    /// (`tage_exp sample`): the per-trace rows then hold summed per-slice
    /// counters, and MPPKI derived from them is the fixed-interval
    /// estimate, not a full-run measurement. `None` for full runs —
    /// including every pre-sampling `tage.run/1` document (the parser
    /// tolerates the missing field).
    pub sampling: Option<SamplingBlock>,
    /// Per-trace counters, in suite order.
    pub traces: Vec<TraceRow>,
}

/// Sampling parameters of a sampled-run artifact — enough to reproduce
/// the phase placement (`fixed_interval(total_events, phases, warmup,
/// measure, seed)` per trace) and to judge the estimate's coverage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplingBlock {
    /// Requested slices per trace.
    pub phases: u64,
    /// Warmup events per slice (trained, not scored).
    pub warmup: u64,
    /// Measured events per slice.
    pub measure: u64,
    /// Jitter seed of the fixed-interval selector.
    pub seed: u64,
    /// Events across all sampled files (the estimated population).
    pub total_events: u64,
    /// Events actually fed to each predictor (warmup + measure, summed
    /// over all slices of all files).
    pub simulated_events: u64,
}

/// Deterministic scheduler counters embedded in an artifact — the
/// [`SchedulerStats`] snapshot minus its wall-time field (see the module
/// docs for why timing is excluded).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedulerBlock {
    /// Per-trace simulate jobs actually executed.
    pub sim_jobs_run: u64,
    /// Per-trace simulate jobs requested (run + served from cache).
    pub sim_jobs_requested: u64,
    /// Whole-suite requests served from the memo cache.
    pub suite_memo_hits: u64,
}

impl SchedulerBlock {
    /// The deterministic slice of a [`SchedulerStats`] snapshot.
    pub fn from_stats(s: &SchedulerStats) -> Self {
        Self {
            sim_jobs_run: s.sim_jobs_run,
            sim_jobs_requested: s.sim_jobs_requested,
            suite_memo_hits: s.suite_memo_hits,
        }
    }
}

/// One trace's raw counters — the integer fields of a [`SimReport`]
/// (`AccessStats` inlined), plus the optional per-branch rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRow {
    /// Trace name.
    pub trace: String,
    /// Trace category.
    pub category: String,
    /// Total micro-ops.
    pub uops: u64,
    /// Conditional branches predicted.
    pub conditionals: u64,
    /// Mispredictions.
    pub mispredicts: u64,
    /// Total misprediction penalty cycles.
    pub penalty_cycles: u64,
    /// Predictor-table reads at predict time.
    pub predict_reads: u64,
    /// Predictor-table reads at retire time.
    pub retire_reads: u64,
    /// Predictor-table writes that changed state.
    pub effective_writes: u64,
    /// Writes skipped because the stored state already matched.
    pub silent_writes_avoided: u64,
    /// Top-N per-static-branch counters (ascending PC); empty when the
    /// run did not collect branch stats.
    pub branches: Vec<BranchRow>,
}

/// One static branch's counters — a [`BranchStat`] with the PC rendered
/// as a hex string (JSON numbers above 2^53 lose precision; PCs are
/// opaque 64-bit identifiers).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchRow {
    /// Static branch address, hex (`0x…`).
    pub pc: String,
    /// Times the branch was fetched and predicted.
    pub executions: u64,
    /// Times the resolved direction was taken.
    pub taken: u64,
    /// Mispredictions charged to this branch.
    pub mispredicts: u64,
    /// Penalty cycles charged to this branch.
    pub penalty_cycles: u64,
}

impl BranchRow {
    /// Converts a collected [`BranchStat`].
    pub fn from_stat(s: &BranchStat) -> Self {
        Self {
            pc: format!("{:#x}", s.pc),
            executions: s.executions,
            taken: s.taken,
            mispredicts: s.mispredicts,
            penalty_cycles: s.penalty_cycles,
        }
    }

    /// Parses the hex PC back to its numeric form.
    ///
    /// # Errors
    ///
    /// Fails when the stored string is not `0x`-prefixed hex.
    pub fn pc_value(&self) -> Result<u64, ArtifactError> {
        let digits = self
            .pc
            .strip_prefix("0x")
            .ok_or_else(|| ArtifactError(format!("branch pc `{}` is not 0x-prefixed", self.pc)))?;
        u64::from_str_radix(digits, 16)
            .map_err(|e| ArtifactError(format!("branch pc `{}`: {e}", self.pc)))
    }
}

/// Artifact I/O and schema errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArtifactError(String);

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "artifact: {}", self.0)
    }
}

impl std::error::Error for ArtifactError {}

/// Parses an update-scenario label (`I`/`A`/`B`/`C`) back to its enum.
///
/// # Errors
///
/// Fails on any other string.
pub fn scenario_from_label(label: &str) -> Result<UpdateScenario, ArtifactError> {
    UpdateScenario::ALL
        .into_iter()
        .find(|s| s.label() == label)
        .ok_or_else(|| ArtifactError(format!("unknown scenario label `{label}`")))
}

impl RunArtifact {
    /// Builds the artifact of one suite run. `top` caps the per-trace
    /// branch rows (worst by mispredicts, stored ascending by PC);
    /// reports without profiles produce empty `branches`.
    pub fn from_suite(
        spec: &str,
        scenario: UpdateScenario,
        scale: &str,
        suite: &SuiteReport,
        scheduler: Option<SchedulerBlock>,
        top: usize,
    ) -> Self {
        let predictor =
            suite.reports.first().map(|r| r.predictor.clone()).unwrap_or_default();
        let traces = suite
            .reports
            .iter()
            .map(|r| {
                let branches = match &r.branches {
                    Some(profile) => {
                        profile.truncated(top).branches.iter().map(BranchRow::from_stat).collect()
                    }
                    None => Vec::new(),
                };
                TraceRow {
                    trace: r.trace.clone(),
                    category: r.category.clone(),
                    uops: r.uops,
                    conditionals: r.conditionals,
                    mispredicts: r.mispredicts,
                    penalty_cycles: r.penalty_cycles,
                    predict_reads: r.stats.predict_reads,
                    retire_reads: r.stats.retire_reads,
                    effective_writes: r.stats.effective_writes,
                    silent_writes_avoided: r.stats.silent_writes_avoided,
                    branches,
                }
            })
            .collect();
        Self {
            schema: ARTIFACT_SCHEMA.to_string(),
            spec: spec.to_string(),
            predictor,
            scenario: scenario.label().to_string(),
            scale: scale.to_string(),
            scheduler,
            sampling: None,
            traces,
        }
    }

    /// Marks the artifact as a sampled run.
    pub fn with_sampling(mut self, sampling: SamplingBlock) -> Self {
        self.sampling = Some(sampling);
        self
    }

    /// Reconstructs the suite report: every counter round-trips exactly;
    /// branch profiles come back as stored (i.e. truncated to the
    /// emission-time top-N), `None` when no rows were recorded.
    ///
    /// # Errors
    ///
    /// Fails on an unknown scenario label or a malformed branch PC.
    pub fn suite_report(&self) -> Result<SuiteReport, ArtifactError> {
        let scenario = scenario_from_label(&self.scenario)?;
        let mut reports = Vec::with_capacity(self.traces.len());
        for row in &self.traces {
            let branches = if row.branches.is_empty() {
                None
            } else {
                let mut stats = Vec::with_capacity(row.branches.len());
                for b in &row.branches {
                    stats.push(BranchStat {
                        pc: b.pc_value()?,
                        executions: b.executions,
                        taken: b.taken,
                        mispredicts: b.mispredicts,
                        penalty_cycles: b.penalty_cycles,
                    });
                }
                Some(BranchProfile { branches: stats })
            };
            reports.push(SimReport {
                trace: row.trace.clone(),
                category: row.category.clone(),
                predictor: self.predictor.clone(),
                scenario,
                uops: row.uops,
                conditionals: row.conditionals,
                mispredicts: row.mispredicts,
                penalty_cycles: row.penalty_cycles,
                stats: AccessStats {
                    predict_reads: row.predict_reads,
                    retire_reads: row.retire_reads,
                    effective_writes: row.effective_writes,
                    silent_writes_avoided: row.silent_writes_avoided,
                },
                branches,
            });
        }
        Ok(SuiteReport::new(reports))
    }

    /// Deterministic file name: the spec sanitized to `[a-z0-9-_.]`
    /// (anything else becomes `-`) plus the scenario suffix.
    pub fn file_name(&self) -> String {
        let sanitized: String = self
            .spec
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect();
        format!("{sanitized}__{}.json", self.scenario)
    }

    /// Writes the artifact into `dir` (created if needed) under
    /// [`RunArtifact::file_name`], returning the path.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors.
    pub fn write_to_dir(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Loads and validates one artifact file.
    ///
    /// # Errors
    ///
    /// Fails on unreadable files, malformed JSON, schema mismatch, or
    /// missing fields.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ArtifactError(format!("{}: {e}", path.display())))?;
        Self::from_json(&text).map_err(|e| ArtifactError(format!("{}: {}", path.display(), e.0)))
    }

    /// Renders the canonical JSON document: fixed field order, two-space
    /// indent, one trace (and one branch) per line — deterministic byte
    /// for byte given equal content.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json_str(&self.schema)));
        out.push_str(&format!("  \"spec\": {},\n", json_str(&self.spec)));
        out.push_str(&format!("  \"predictor\": {},\n", json_str(&self.predictor)));
        out.push_str(&format!("  \"scenario\": {},\n", json_str(&self.scenario)));
        out.push_str(&format!("  \"scale\": {},\n", json_str(&self.scale)));
        match &self.scheduler {
            Some(s) => out.push_str(&format!(
                "  \"scheduler\": {{\"sim_jobs_run\": {}, \"sim_jobs_requested\": {}, \"suite_memo_hits\": {}}},\n",
                s.sim_jobs_run, s.sim_jobs_requested, s.suite_memo_hits
            )),
            None => out.push_str("  \"scheduler\": null,\n"),
        }
        match &self.sampling {
            Some(s) => out.push_str(&format!(
                "  \"sampling\": {{\"phases\": {}, \"warmup\": {}, \"measure\": {}, \"seed\": {}, \"total_events\": {}, \"simulated_events\": {}}},\n",
                s.phases, s.warmup, s.measure, s.seed, s.total_events, s.simulated_events
            )),
            None => out.push_str("  \"sampling\": null,\n"),
        }
        out.push_str("  \"traces\": [\n");
        for (i, t) in self.traces.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"trace\": {}, \"category\": {}, \"uops\": {}, \"conditionals\": {}, \
                 \"mispredicts\": {}, \"penalty_cycles\": {}, \"predict_reads\": {}, \
                 \"retire_reads\": {}, \"effective_writes\": {}, \"silent_writes_avoided\": {}, \
                 \"branches\": [",
                json_str(&t.trace),
                json_str(&t.category),
                t.uops,
                t.conditionals,
                t.mispredicts,
                t.penalty_cycles,
                t.predict_reads,
                t.retire_reads,
                t.effective_writes,
                t.silent_writes_avoided,
            ));
            if !t.branches.is_empty() {
                out.push('\n');
                for (j, b) in t.branches.iter().enumerate() {
                    out.push_str(&format!(
                        "      {{\"pc\": {}, \"executions\": {}, \"taken\": {}, \
                         \"mispredicts\": {}, \"penalty_cycles\": {}}}{}\n",
                        json_str(&b.pc),
                        b.executions,
                        b.taken,
                        b.mispredicts,
                        b.penalty_cycles,
                        if j + 1 < t.branches.len() { "," } else { "" }
                    ));
                }
                out.push_str("    ");
            }
            out.push_str(&format!("]}}{}\n", if i + 1 < self.traces.len() { "," } else { "" }));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses and validates a JSON document produced by
    /// [`RunArtifact::to_json`] (or any JSON with the same shape).
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, a schema string other than
    /// [`ARTIFACT_SCHEMA`], missing fields, or wrongly typed fields.
    pub fn from_json(text: &str) -> Result<Self, ArtifactError> {
        let value = Parser { bytes: text.as_bytes(), pos: 0 }.document()?;
        let schema = value.str_field("schema")?.to_string();
        if schema != ARTIFACT_SCHEMA {
            return Err(ArtifactError(format!(
                "schema `{schema}` is not `{ARTIFACT_SCHEMA}` — regenerate the artifact with this build"
            )));
        }
        let scenario = value.str_field("scenario")?.to_string();
        scenario_from_label(&scenario)?;
        let scheduler = match value.field("scheduler")? {
            Value::Null => None,
            obj @ Value::Obj(_) => Some(SchedulerBlock {
                sim_jobs_run: obj.int_field("sim_jobs_run")?,
                sim_jobs_requested: obj.int_field("sim_jobs_requested")?,
                suite_memo_hits: obj.int_field("suite_memo_hits")?,
            }),
            other => {
                return Err(ArtifactError(format!(
                    "field `scheduler` must be an object or null, got {}",
                    other.kind()
                )))
            }
        };
        // Optional block: absent in pre-sampling `/1` documents.
        let sampling = match value.field("sampling") {
            Err(_) | Ok(Value::Null) => None,
            Ok(obj @ Value::Obj(_)) => Some(SamplingBlock {
                phases: obj.int_field("phases")?,
                warmup: obj.int_field("warmup")?,
                measure: obj.int_field("measure")?,
                seed: obj.int_field("seed")?,
                total_events: obj.int_field("total_events")?,
                simulated_events: obj.int_field("simulated_events")?,
            }),
            Ok(other) => {
                return Err(ArtifactError(format!(
                    "field `sampling` must be an object or null, got {}",
                    other.kind()
                )))
            }
        };
        let mut traces = Vec::new();
        for t in value.arr_field("traces")? {
            let mut branches = Vec::new();
            for b in t.arr_field("branches")? {
                branches.push(BranchRow {
                    pc: b.str_field("pc")?.to_string(),
                    executions: b.int_field("executions")?,
                    taken: b.int_field("taken")?,
                    mispredicts: b.int_field("mispredicts")?,
                    penalty_cycles: b.int_field("penalty_cycles")?,
                });
            }
            traces.push(TraceRow {
                trace: t.str_field("trace")?.to_string(),
                category: t.str_field("category")?.to_string(),
                uops: t.int_field("uops")?,
                conditionals: t.int_field("conditionals")?,
                mispredicts: t.int_field("mispredicts")?,
                penalty_cycles: t.int_field("penalty_cycles")?,
                predict_reads: t.int_field("predict_reads")?,
                retire_reads: t.int_field("retire_reads")?,
                effective_writes: t.int_field("effective_writes")?,
                silent_writes_avoided: t.int_field("silent_writes_avoided")?,
                branches,
            });
        }
        Ok(Self {
            schema,
            spec: value.str_field("spec")?.to_string(),
            predictor: value.str_field("predictor")?.to_string(),
            scenario,
            scale: value.str_field("scale")?.to_string(),
            scheduler,
            sampling,
            traces,
        })
    }
}

/// Collects artifact paths from a mixed file/directory argument list:
/// files are taken as-is, directories contribute their `*.json` entries
/// sorted by file name (deterministic report order).
///
/// # Errors
///
/// Fails on unreadable directories or paths that are neither files nor
/// directories.
pub fn collect_paths(args: &[PathBuf]) -> Result<Vec<PathBuf>, ArtifactError> {
    let mut out = Vec::new();
    for arg in args {
        if arg.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(arg)
                .map_err(|e| ArtifactError(format!("{}: {e}", arg.display())))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            entries.sort();
            out.extend(entries);
        } else if arg.is_file() {
            out.push(arg.clone());
        } else {
            return Err(ArtifactError(format!("{}: not a file or directory", arg.display())));
        }
    }
    Ok(out)
}

/// Escapes a JSON string literal (same dialect as the writer in
/// `tage_lint`'s report). Public so the binaries' lighter JSON emitters
/// (`tage_trace inspect --json`) share one escaper.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The JSON subset the artifact writer emits.
#[derive(Clone, Debug)]
enum Value {
    Null,
    Int(u64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "integer",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    fn field(&self, key: &str) -> Result<&Value, ArtifactError> {
        match self {
            Value::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| ArtifactError(format!("missing field `{key}`"))),
            other => Err(ArtifactError(format!(
                "expected an object with field `{key}`, got {}",
                other.kind()
            ))),
        }
    }

    fn str_field(&self, key: &str) -> Result<&str, ArtifactError> {
        match self.field(key)? {
            Value::Str(s) => Ok(s),
            other => {
                Err(ArtifactError(format!("field `{key}` must be a string, got {}", other.kind())))
            }
        }
    }

    fn int_field(&self, key: &str) -> Result<u64, ArtifactError> {
        match self.field(key)? {
            Value::Int(n) => Ok(*n),
            other => Err(ArtifactError(format!(
                "field `{key}` must be an unsigned integer, got {}",
                other.kind()
            ))),
        }
    }

    fn arr_field(&self, key: &str) -> Result<&[Value], ArtifactError> {
        match self.field(key)? {
            Value::Arr(items) => Ok(items),
            other => {
                Err(ArtifactError(format!("field `{key}` must be an array, got {}", other.kind())))
            }
        }
    }
}

/// Recursive-descent parser over the writer's JSON subset. Depth is
/// capped (artifacts are three levels deep) so a hostile document cannot
/// exhaust the stack.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: usize = 16;

impl Parser<'_> {
    fn err(&self, msg: &str) -> ArtifactError {
        ArtifactError(format!("JSON byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn document(mut self) -> Result<Value, ArtifactError> {
        let v = self.value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing content after the document"));
        }
        Ok(v)
    }

    fn value(&mut self, depth: usize) -> Result<Value, ArtifactError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'0'..=b'9') => self.integer(),
            Some(b'n') => {
                if self.bytes[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(Value::Null)
                } else {
                    Err(self.err("expected `null`"))
                }
            }
            Some(_) => Err(self.err("expected an object, array, string, integer, or null")),
            None => Err(self.err("unexpected end of document")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ArtifactError> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.pos += 1;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ArtifactError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ArtifactError> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown string escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    match s.chars().next() {
                        Some(c) => {
                            out.push(c);
                            self.pos += c.len_utf8();
                        }
                        None => return Err(self.err("unterminated string")),
                    }
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn integer(&mut self) -> Result<Value, ArtifactError> {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let digits = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid integer"))?;
        if matches!(self.bytes.get(self.pos), Some(b'.' | b'e' | b'E' | b'-' | b'+')) {
            return Err(self.err("artifact numbers are unsigned integers"));
        }
        digits.parse::<u64>().map(Value::Int).map_err(|e| self.err(&format!("integer: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(scheduler: bool, branches: bool) -> RunArtifact {
        RunArtifact {
            schema: ARTIFACT_SCHEMA.to_string(),
            spec: "tage+ium".to_string(),
            predictor: "TAGE+IUM \"odd\\name\"".to_string(),
            scenario: "A".to_string(),
            scale: "tiny".to_string(),
            scheduler: scheduler.then_some(SchedulerBlock {
                sim_jobs_run: 40,
                sim_jobs_requested: 80,
                suite_memo_hits: 1,
            }),
            sampling: None,
            traces: vec![TraceRow {
                trace: "CLIENT01".to_string(),
                category: "CLIENT".to_string(),
                uops: 1_000_000,
                conditionals: 100_000,
                mispredicts: 5_000,
                penalty_cycles: 150_000,
                predict_reads: 100_000,
                retire_reads: 100_000,
                effective_writes: 10_000,
                silent_writes_avoided: 50_000,
                branches: if branches {
                    vec![
                        BranchRow {
                            pc: "0x40".to_string(),
                            executions: 60_000,
                            taken: 30_000,
                            mispredicts: 4_000,
                            penalty_cycles: 120_000,
                        },
                        BranchRow {
                            pc: "0xdeadbeefcafe".to_string(),
                            executions: 40_000,
                            taken: 39_000,
                            mispredicts: 1_000,
                            penalty_cycles: 30_000,
                        },
                    ]
                } else {
                    Vec::new()
                },
            }],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        for (sched, br) in [(false, false), (true, false), (false, true), (true, true)] {
            let a = sample(sched, br);
            let text = a.to_json();
            let b = RunArtifact::from_json(&text).unwrap();
            assert_eq!(a, b, "scheduler={sched} branches={br}");
            // And the re-render is byte-identical (canonical form).
            assert_eq!(text, b.to_json());
        }
    }

    #[test]
    fn sampling_block_round_trips_and_missing_field_is_tolerated() {
        let a = sample(false, false).with_sampling(SamplingBlock {
            phases: 8,
            warmup: 10_000,
            measure: 40_000,
            seed: 7,
            total_events: 4_000_000,
            simulated_events: 400_000,
        });
        let text = a.to_json();
        assert!(text.contains("\"sampling\": {\"phases\": 8"));
        let b = RunArtifact::from_json(&text).unwrap();
        assert_eq!(a, b);
        assert_eq!(text, b.to_json());

        // A pre-sampling document (no `sampling` field at all) still
        // loads: the optional block defaults to None.
        let legacy: String =
            sample(true, true).to_json().lines().filter(|l| !l.contains("\"sampling\"")).fold(
                String::new(),
                |mut s, l| {
                    s.push_str(l);
                    s.push('\n');
                    s
                },
            );
        let c = RunArtifact::from_json(&legacy).unwrap();
        assert_eq!(c.sampling, None);
        assert_eq!(c.traces, sample(true, true).traces);

        // But a wrongly typed block fails loudly.
        let bad = sample(false, false).to_json().replace("\"sampling\": null", "\"sampling\": 3");
        let err = RunArtifact::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("sampling"), "{err}");
    }

    #[test]
    fn suite_report_reconstructs_counters_and_metrics() {
        let a = sample(true, true);
        let suite = a.suite_report().unwrap();
        assert_eq!(suite.reports.len(), 1);
        let r = &suite.reports[0];
        assert_eq!(r.trace, "CLIENT01");
        assert_eq!(r.scenario, UpdateScenario::RereadAtRetire);
        assert_eq!(r.mispredicts, 5_000);
        assert!((r.mppki() - 150.0).abs() < 1e-9);
        let p = r.branches.as_ref().unwrap();
        assert_eq!(p.branches[0].pc, 0x40);
        assert_eq!(p.branches[1].pc, 0xdead_beef_cafe);
        // No branch rows → no profile.
        let plain = sample(true, false).suite_report().unwrap();
        assert!(plain.reports[0].branches.is_none());
    }

    #[test]
    fn schema_mismatch_and_malformed_inputs_fail_loudly() {
        let mut a = sample(false, false);
        a.schema = "tage.run/0".to_string();
        let err = RunArtifact::from_json(&a.to_json()).unwrap_err();
        assert!(err.to_string().contains("tage.run/0"), "{err}");

        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"schema\": \"tage.run/1\"}",
            "{\"schema\": \"tage.run/1\", \"spec\": 3}",
            "not json at all",
            "{\"schema\": \"tage.run/1\"} trailing",
        ] {
            assert!(RunArtifact::from_json(bad).is_err(), "accepted: {bad:?}");
        }
        // Floats and negatives are rejected (counters are u64).
        assert!(RunArtifact::from_json("{\"x\": 1.5}").is_err());
        assert!(RunArtifact::from_json("{\"x\": -2}").is_err());
    }

    #[test]
    fn scenario_labels_round_trip() {
        for s in UpdateScenario::ALL {
            assert_eq!(scenario_from_label(s.label()).unwrap(), s);
        }
        assert!(scenario_from_label("Z").is_err());
        assert!(scenario_from_label("").is_err());
    }

    #[test]
    fn file_name_is_sanitized_and_deterministic() {
        let mut a = sample(false, false);
        a.spec = "tage(base=gshare,chooser=always)+ium/as=X".to_string();
        assert_eq!(a.file_name(), "tage-base-gshare-chooser-always--ium-as-x__A.json");
        // Same content, same name — emission is idempotent.
        assert_eq!(a.file_name(), a.file_name());
    }

    #[test]
    fn write_load_and_collect_paths() {
        let dir = std::env::temp_dir()
            .join(format!("tage-artifact-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = sample(true, true);
        let path = a.write_to_dir(&dir).unwrap();
        let loaded = RunArtifact::load(&path).unwrap();
        assert_eq!(a, loaded);
        // Directory collection finds it (sorted), explicit file too.
        let mut b = sample(false, false);
        b.spec = "aaa".to_string();
        b.write_to_dir(&dir).unwrap();
        let found = collect_paths(std::slice::from_ref(&dir)).unwrap();
        assert_eq!(found.len(), 2);
        assert!(found[0].file_name().unwrap().to_string_lossy().starts_with("aaa"));
        let single = collect_paths(std::slice::from_ref(&path)).unwrap();
        assert_eq!(single, vec![path]);
        assert!(collect_paths(&[dir.join("missing.json")]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn string_escapes_survive_round_trip() {
        let mut a = sample(false, false);
        a.predictor = "tab\there \"quote\" back\\slash\nnewline \u{1} low".to_string();
        let b = RunArtifact::from_json(&a.to_json()).unwrap();
        assert_eq!(a.predictor, b.predictor);
    }
}
