//! **atomics-ordering** — relaxed atomics are a claim about concurrency,
//! and claims get written down.
//!
//! Every `Ordering::Relaxed` in non-test code needs an `// ORDERING:
//! <why>` justification on the same line or just above: why no
//! happens-before edge is needed at this site (statistics counter, id
//! sequence, value re-checked under a lock, …). Acquire/Release/SeqCst
//! sites are self-describing — they *assert* an edge — and are not
//! flagged.

use super::{diag, justified, LintContext, Pass};
use crate::diag::Diagnostic;

/// Lines above a relaxed-atomic site that may carry its `ORDERING:` note.
const ORDERING_WINDOW: usize = 3;

pub struct AtomicsOrdering;

impl Pass for AtomicsOrdering {
    fn name(&self) -> &'static str {
        "atomics-ordering"
    }

    fn description(&self) -> &'static str {
        "every Ordering::Relaxed outside tests needs an // ORDERING: justification"
    }

    fn run(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let sev = self.default_severity();
        let mut out = Vec::new();
        for file in &ctx.files {
            for (i, line) in file.lines.iter().enumerate() {
                if line.in_test || !line.code.contains("Ordering::Relaxed") {
                    continue;
                }
                if !justified(file, i, "ORDERING:", ORDERING_WINDOW) {
                    out.push(diag(
                        self.name(),
                        sev,
                        file,
                        i,
                        "`Ordering::Relaxed` without an `// ORDERING: <why no happens-before \
                         edge is needed>` justification"
                            .to_string(),
                    ));
                }
            }
        }
        out
    }
}
