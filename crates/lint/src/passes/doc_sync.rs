//! **doc-sync** — the grammar documentation cannot rot.
//!
//! Extracts every `SpecError` variant and every `PRESETS` row name from
//! the spec module, plus every `SCHEMES` row name from the `.ttr3`
//! block-compression registry, plus every `RunArtifact`/`TraceRow`
//! field and the `ARTIFACT_SCHEMA` version string from the run-artifact
//! module, plus every field of the pinned sampling-surface structs
//! (`SimWindow`, `Phase`, `SamplingBlock` — the skip/warmup/measure
//! contract of DESIGN.md §8), plus every `FRAMES` row, every
//! `Handshake` field, and the `WIRE_SCHEMA` version string from the
//! `tage.wire/2` protocol module (the server contract of DESIGN.md §9),
//! and requires each to appear in at least one of the configured
//! documentation files (DESIGN.md / EXPERIMENTS.md — the scheme-byte
//! table lives in DESIGN.md §3b, the artifact schema table in §7, the
//! wire frame table in §9; artifact, sampling, and handshake fields
//! must appear backticked, the way the schema tables render them). A
//! new error variant, preset, compression scheme, artifact field, wire
//! frame, or handshake knob that ships undocumented is a finding — as
//! is an artifact or wire schema version bump without a doc update; so
//! is a source file where the extraction anchors have moved (the pass
//! reports that instead of silently passing).
//!
//! Default severity is [`Severity::Advice`]: the CI gate runs with
//! `--deny-all`, which promotes it, while a quick local `tage_lint check`
//! still fails only on code-policy findings.

use super::{LintContext, Pass};
use crate::diag::{Diagnostic, Severity};
use crate::lexer::SourceFile;

pub struct DocSync;

impl Pass for DocSync {
    fn name(&self) -> &'static str {
        "doc-sync"
    }

    fn description(&self) -> &'static str {
        "every SpecError variant, PRESETS/SCHEMES/FRAMES row, RunArtifact and wire schema field/version, and sampling-surface struct field must appear in DESIGN.md/EXPERIMENTS.md"
    }

    fn default_severity(&self) -> Severity {
        Severity::Advice
    }

    fn run(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let sev = self.default_severity();
        let mut out = Vec::new();
        let Some(spec) = ctx.files.iter().find(|f| f.rel_path == ctx.config.spec_file) else {
            out.push(Diagnostic {
                pass: self.name(),
                file: ctx.config.spec_file.clone(),
                line: 0,
                severity: sev,
                message: "spec file not found in the walked workspace".to_string(),
            });
            return out;
        };
        let mut docs = String::new();
        for doc in &ctx.config.doc_files {
            match std::fs::read_to_string(ctx.config.root.join(doc)) {
                Ok(text) => docs.push_str(&text),
                Err(e) => out.push(Diagnostic {
                    pass: self.name(),
                    file: doc.clone(),
                    line: 0,
                    severity: sev,
                    message: format!("doc file unreadable: {e}"),
                }),
            }
        }
        let variants = enum_variants(spec, "SpecError");
        if variants.is_empty() {
            out.push(anchor_missing(self.name(), sev, spec, "enum SpecError"));
        }
        for (line, v) in variants {
            if !docs.contains(&v) {
                out.push(Diagnostic {
                    pass: self.name(),
                    file: spec.rel_path.clone(),
                    line,
                    severity: sev,
                    message: format!(
                        "SpecError variant `{v}` is documented in none of: {}",
                        ctx.config.doc_files.join(", ")
                    ),
                });
            }
        }
        let presets = table_names(spec, "const PRESETS");
        if presets.is_empty() {
            out.push(anchor_missing(self.name(), sev, spec, "const PRESETS table"));
        }
        for (line, p) in presets {
            if !contains_name(&docs, &p) {
                out.push(Diagnostic {
                    pass: self.name(),
                    file: spec.rel_path.clone(),
                    line,
                    severity: sev,
                    message: format!(
                        "PRESETS row `{p}` is documented in none of: {}",
                        ctx.config.doc_files.join(", ")
                    ),
                });
            }
        }
        let Some(scheme) = ctx.files.iter().find(|f| f.rel_path == ctx.config.scheme_file)
        else {
            out.push(Diagnostic {
                pass: self.name(),
                file: ctx.config.scheme_file.clone(),
                line: 0,
                severity: sev,
                message: "scheme file not found in the walked workspace".to_string(),
            });
            return out;
        };
        let schemes = table_names(scheme, "const SCHEMES");
        if schemes.is_empty() {
            out.push(anchor_missing(self.name(), sev, scheme, "const SCHEMES table"));
        }
        for (line, s) in schemes {
            if !contains_name(&docs, &s) {
                out.push(Diagnostic {
                    pass: self.name(),
                    file: scheme.rel_path.clone(),
                    line,
                    severity: sev,
                    message: format!(
                        "SCHEMES row `{s}` is documented in none of: {}",
                        ctx.config.doc_files.join(", ")
                    ),
                });
            }
        }
        let Some(artifact) = ctx.files.iter().find(|f| f.rel_path == ctx.config.artifact_file)
        else {
            out.push(Diagnostic {
                pass: self.name(),
                file: ctx.config.artifact_file.clone(),
                line: 0,
                severity: sev,
                message: "artifact file not found in the walked workspace".to_string(),
            });
            return out;
        };
        // Artifact schema pinning: every serialized field of the two
        // structural levels, plus the version literal itself. Fields are
        // required *backticked* — short names like `spec` or `trace`
        // would otherwise match ambient prose.
        for name in ["RunArtifact", "TraceRow"] {
            let fields = struct_fields(artifact, name);
            if fields.is_empty() {
                out.push(anchor_missing(self.name(), sev, artifact, &format!("struct {name}")));
            }
            for (line, fld) in fields {
                if !docs.contains(&format!("`{fld}`")) {
                    out.push(Diagnostic {
                        pass: self.name(),
                        file: artifact.rel_path.clone(),
                        line,
                        severity: sev,
                        message: format!(
                            "{name} schema field `{fld}` is documented (backticked) in none of: {}",
                            ctx.config.doc_files.join(", ")
                        ),
                    });
                }
            }
        }
        match const_string(artifact, "const ARTIFACT_SCHEMA") {
            Some((line, version)) => {
                if !docs.contains(&version) {
                    out.push(Diagnostic {
                        pass: self.name(),
                        file: artifact.rel_path.clone(),
                        line,
                        severity: sev,
                        message: format!(
                            "artifact schema version `{version}` is documented in none of: {}",
                            ctx.config.doc_files.join(", ")
                        ),
                    });
                }
            }
            None => {
                out.push(anchor_missing(self.name(), sev, artifact, "const ARTIFACT_SCHEMA"));
            }
        }
        // Sampling-surface pinning: the window/phase/artifact-block trio
        // is the user-facing sampling contract (DESIGN.md §8 and the
        // `sampling` block of §7). Same backtick rule as the artifact
        // schema — `skip` or `weight` unadorned would match prose.
        for (rel, name) in &ctx.config.sampling_structs {
            let Some(file) = ctx.files.iter().find(|f| &f.rel_path == rel) else {
                out.push(Diagnostic {
                    pass: self.name(),
                    file: rel.clone(),
                    line: 0,
                    severity: sev,
                    message: format!(
                        "sampling-surface file (for struct {name}) not found in the walked workspace"
                    ),
                });
                continue;
            };
            let fields = struct_fields(file, name);
            if fields.is_empty() {
                out.push(anchor_missing(self.name(), sev, file, &format!("struct {name}")));
            }
            for (line, fld) in fields {
                if !docs.contains(&format!("`{fld}`")) {
                    out.push(Diagnostic {
                        pass: self.name(),
                        file: file.rel_path.clone(),
                        line,
                        severity: sev,
                        message: format!(
                            "{name} sampling field `{fld}` is documented (backticked) in none of: {}",
                            ctx.config.doc_files.join(", ")
                        ),
                    });
                }
            }
        }
        // Wire-protocol pinning: the `tage.wire/2` surface of DESIGN.md
        // §9 — every FRAMES row, every Handshake field (backticked, same
        // rule as the artifact schema: `spec` or `batch` unadorned would
        // match ambient prose), and the schema version literal itself.
        match ctx.files.iter().find(|f| f.rel_path == ctx.config.wire_file) {
            None => out.push(Diagnostic {
                pass: self.name(),
                file: ctx.config.wire_file.clone(),
                line: 0,
                severity: sev,
                message: "wire file not found in the walked workspace".to_string(),
            }),
            Some(wire) => {
                let frames = table_names(wire, "const FRAMES");
                if frames.is_empty() {
                    out.push(anchor_missing(self.name(), sev, wire, "const FRAMES table"));
                }
                for (line, frame) in frames {
                    if !contains_name(&docs, &frame) {
                        out.push(Diagnostic {
                            pass: self.name(),
                            file: wire.rel_path.clone(),
                            line,
                            severity: sev,
                            message: format!(
                                "FRAMES row `{frame}` is documented in none of: {}",
                                ctx.config.doc_files.join(", ")
                            ),
                        });
                    }
                }
                let fields = struct_fields(wire, "Handshake");
                if fields.is_empty() {
                    out.push(anchor_missing(self.name(), sev, wire, "struct Handshake"));
                }
                for (line, fld) in fields {
                    if !docs.contains(&format!("`{fld}`")) {
                        out.push(Diagnostic {
                            pass: self.name(),
                            file: wire.rel_path.clone(),
                            line,
                            severity: sev,
                            message: format!(
                                "Handshake field `{fld}` is documented (backticked) in none of: {}",
                                ctx.config.doc_files.join(", ")
                            ),
                        });
                    }
                }
                match const_string(wire, "const WIRE_SCHEMA") {
                    Some((line, version)) => {
                        if !docs.contains(&version) {
                            out.push(Diagnostic {
                                pass: self.name(),
                                file: wire.rel_path.clone(),
                                line,
                                severity: sev,
                                message: format!(
                                    "wire schema version `{version}` is documented in none of: {}",
                                    ctx.config.doc_files.join(", ")
                                ),
                            });
                        }
                    }
                    None => {
                        out.push(anchor_missing(self.name(), sev, wire, "const WIRE_SCHEMA"));
                    }
                }
            }
        }
        out
    }
}

fn anchor_missing(
    pass: &'static str,
    severity: Severity,
    spec: &SourceFile,
    what: &str,
) -> Diagnostic {
    Diagnostic {
        pass,
        file: spec.rel_path.clone(),
        line: 0,
        severity,
        message: format!("extraction anchor `{what}` not found — update the doc-sync pass"),
    }
}

/// Variant names of `enum <name>`, with their 1-based lines. Brace-depth
/// tracking over stripped code: a variant is the leading identifier of a
/// depth-1 line inside the enum body.
fn enum_variants(file: &SourceFile, name: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let needle = format!("enum {name}");
    let mut depth = 0i64;
    let mut inside = false;
    for (i, line) in file.lines.iter().enumerate() {
        if !inside && depth == 0 && line.code.contains(&needle) {
            inside = true;
            // Fall through: the opening brace may be on this line.
        }
        if inside {
            if depth == 1 {
                if let Some(ident) = leading_ident(&line.code) {
                    if ident.chars().next().is_some_and(char::is_uppercase) {
                        out.push((i + 1, ident));
                    }
                }
            }
            for c in line.code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            return out;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

/// First-column names of a name-keyed const table (`PRESETS`,
/// `SCHEMES`): the first string literal on each tuple line between
/// `anchor` and the closing `];`.
fn table_names(file: &SourceFile, anchor: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut inside = false;
    for (i, line) in file.lines.iter().enumerate() {
        if !inside {
            if line.code.contains(anchor) {
                inside = true;
            }
            continue;
        }
        if line.code.contains("];") {
            break;
        }
        if line.code.trim_start().starts_with('(') {
            if let Some(name) = line.strings.first() {
                out.push((i + 1, name.clone()));
            }
        }
    }
    out
}

/// Field names of `struct <name>`, with their 1-based lines. Same
/// brace-depth tracking as [`enum_variants`]: a field is the
/// (`pub`-stripped) identifier before `:` on a depth-1 line of the
/// struct body.
fn struct_fields(file: &SourceFile, name: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let needle = format!("struct {name}");
    let mut depth = 0i64;
    let mut inside = false;
    for (i, line) in file.lines.iter().enumerate() {
        if !inside && depth == 0 && line.code.contains(&needle) {
            inside = true;
            // Fall through: the opening brace may be on this line.
        }
        if inside {
            if depth == 1 {
                let code = line.code.trim_start();
                let code = code.strip_prefix("pub ").unwrap_or(code).trim_start();
                if let Some(ident) = leading_ident(code) {
                    let is_field = code[ident.len()..].trim_start().starts_with(':')
                        && ident.chars().next().is_some_and(char::is_lowercase);
                    if is_field {
                        out.push((i + 1, ident));
                    }
                }
            }
            for c in line.code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            return out;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

/// The first string literal on the line declaring `anchor` (e.g. the
/// `ARTIFACT_SCHEMA` version constant), with its 1-based line.
fn const_string(file: &SourceFile, anchor: &str) -> Option<(usize, String)> {
    for (i, line) in file.lines.iter().enumerate() {
        if line.code.contains(anchor) {
            if let Some(s) = line.strings.first() {
                return Some((i + 1, s.clone()));
            }
        }
    }
    None
}

/// Leading identifier of a stripped code line, if any.
fn leading_ident(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let ident: String =
        trimmed.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    (!ident.is_empty()).then_some(ident)
}

/// Word-boundary-ish containment for preset names, whose alphabet is
/// `[a-z0-9-]`: `tage` must not count as documented merely because
/// `tage-lsc` is.
fn contains_name(docs: &str, name: &str) -> bool {
    let is_name_char = |c: char| c.is_ascii_alphanumeric() || c == '-';
    let mut start = 0;
    while let Some(pos) = docs[start..].find(name) {
        let at = start + pos;
        let before_ok = !docs[..at].chars().next_back().is_some_and(is_name_char);
        let after_ok = !docs[at + name.len()..].chars().next().is_some_and(is_name_char);
        if before_ok && after_ok {
            return true;
        }
        start = at + name.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::classify;

    #[test]
    fn extracts_variants_and_presets() {
        let src = "\
/// docs
pub enum SpecError {
    Empty,
    BadArg {
        token: String,
    },
}

pub const PRESETS: &[(&str, &str)] = &[
    // a comment line
    (\"tage\", \"tage\"),
    (\"isl-tage\", \"tage+ium+sc+loop\"),
];

pub const SCHEMES: &[(&str, u8)] = &[
    (\"raw\", 0),
    (\"lz\", 1),
];
";
        let f = classify("spec.rs", src);
        let vs: Vec<String> = enum_variants(&f, "SpecError").into_iter().map(|(_, v)| v).collect();
        assert_eq!(vs, vec!["Empty", "BadArg"]);
        let ps: Vec<String> = table_names(&f, "const PRESETS").into_iter().map(|(_, p)| p).collect();
        assert_eq!(ps, vec!["tage", "isl-tage"]);
        let ss: Vec<String> = table_names(&f, "const SCHEMES").into_iter().map(|(_, s)| s).collect();
        assert_eq!(ss, vec!["raw", "lz"]);
    }

    #[test]
    fn name_containment_respects_boundaries() {
        assert!(contains_name("the `tage` preset", "tage"));
        assert!(!contains_name("only tage-lsc here", "tage"));
        assert!(contains_name("| tage-lsc |", "tage-lsc"));
    }

    #[test]
    fn extracts_struct_fields_and_schema_version() {
        let src = "\
pub const ARTIFACT_SCHEMA: &str = \"tage.run/1\";

/// docs
pub struct RunArtifact {
    /// The version.
    pub schema: String,
    pub scheduler: Option<SchedulerBlock>,
    pub traces: Vec<TraceRow>,
}

impl RunArtifact {
    pub fn noop(&self) {
        let ignored: u64 = 0;
        let _ = ignored;
    }
}

pub struct TraceRow {
    pub trace: String,
    pub penalty_cycles: u64,
}
";
        let f = classify("artifact.rs", src);
        let fs: Vec<String> =
            struct_fields(&f, "RunArtifact").into_iter().map(|(_, v)| v).collect();
        assert_eq!(fs, vec!["schema", "scheduler", "traces"]);
        // Depth tracking stops at the struct's closing brace: the local
        // `ignored:` binding inside the impl is not a field, and the
        // second struct extracts independently.
        let ts: Vec<String> = struct_fields(&f, "TraceRow").into_iter().map(|(_, v)| v).collect();
        assert_eq!(ts, vec!["trace", "penalty_cycles"]);
        let (line, version) = const_string(&f, "const ARTIFACT_SCHEMA").expect("anchor");
        assert_eq!((line, version.as_str()), (1, "tage.run/1"));
        assert!(const_string(&f, "const MISSING").is_none());
    }
}
