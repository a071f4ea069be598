//! **exhaustiveness-guard** — designated generator/codec/spec modules
//! stay wildcard-free, so adding an enum variant breaks the build at the
//! match instead of silently falling through.
//!
//! In guarded files a `_ =>` arm is denied unless justified with
//! `// WILDCARD: <why>` (sanctioned uses are catch-alls over *open*
//! domains — unknown input tokens mapped to typed errors — never over our
//! own enums).

use super::{diag, justified, LintContext, Pass};
use crate::diag::Diagnostic;

/// Lines above a wildcard arm that may carry its `WILDCARD:` note.
const WILDCARD_WINDOW: usize = 3;

pub struct ExhaustivenessGuard;

impl Pass for ExhaustivenessGuard {
    fn name(&self) -> &'static str {
        "exhaustiveness-guard"
    }

    fn description(&self) -> &'static str {
        "no `_ =>` arms in designated generator/codec/spec modules unless annotated // WILDCARD:"
    }

    fn run(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let sev = self.default_severity();
        let mut out = Vec::new();
        for file in &ctx.files {
            if !ctx.config.wildcard_guarded_files.iter().any(|f| f == &file.rel_path) {
                continue;
            }
            for (i, line) in file.lines.iter().enumerate() {
                if line.in_test || !has_wildcard_arm(&line.code) {
                    continue;
                }
                if !justified(file, i, "WILDCARD:", WILDCARD_WINDOW) {
                    out.push(diag(
                        self.name(),
                        sev,
                        file,
                        i,
                        "wildcard `_ =>` arm in a guarded module: name the variants (so new \
                         ones break the build here), or justify with `// WILDCARD: <why>`"
                            .to_string(),
                    ));
                }
            }
        }
        out
    }
}

/// True when `code` contains a bare `_` pattern followed by `=>`.
fn has_wildcard_arm(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '_' {
            continue;
        }
        let before_ok =
            i == 0 || !(chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
        let mut j = i + 1;
        if j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
            continue; // `_name` binding, not a bare wildcard
        }
        while j < chars.len() && chars[j].is_whitespace() {
            j += 1;
        }
        if before_ok && chars.get(j) == Some(&'=') && chars.get(j + 1) == Some(&'>') {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_bare_wildcard_arms_only() {
        assert!(has_wildcard_arm("_ => None,"));
        assert!(has_wildcard_arm("            _ =>return Err(e),"));
        assert!(!has_wildcard_arm("other => None,"));
        assert!(!has_wildcard_arm("_x => None,"));
        assert!(!has_wildcard_arm("let _ = index;"));
        assert!(!has_wildcard_arm("(a, _) => a,"));
        assert!(!has_wildcard_arm("Behavior::Bias { .. } => (),"));
    }
}
