//! Golden-table equivalence: every experiment's rendered output at
//! `Scale::Tiny` must stay byte-identical to the checked-in golden
//! (`tests/golden/all_tiny.txt`), which was captured from the
//! pre-component-stack `tage_exp all --scale tiny` output (timing and
//! scheduler lines — the `#`-prefixed ones — stripped). Any
//! predictor-layer change that drifts a paper number fails here before
//! it can silently land. CI additionally runs the release binary and
//! diffs its filtered stdout against the same file.

use harness::experiments::{by_id, prefetch, ALL_EXPERIMENTS, EXPERIMENTS};
use harness::{ExpContext, ExpOptions};
use workloads::suite::Scale;

const GOLDEN: &str = include_str!("golden/all_tiny.txt");

/// The E15 chooser × base ablation section alone (a byte-identical slice
/// of the full golden), so the provider-decomposition experiment is
/// pinned independently of the pre-existing fifteen.
const GOLDEN_E15: &str = include_str!("golden/e15_chooser_base_tiny.txt");

/// Renders all experiments exactly as the binary prints them (each
/// render block followed by the blank line the `# [id] done` separator
/// leaves behind after filtering).
fn render_all(ctx: &ExpContext) -> String {
    let mut got = String::new();
    for exp in EXPERIMENTS {
        got.push_str(&exp.render(ctx));
        got.push('\n');
    }
    got
}

fn assert_matches_golden(got: &str) {
    if got == GOLDEN {
        return;
    }
    // Locate the first divergence for a readable failure.
    for (i, (g, e)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(
            g,
            e,
            "first table divergence at golden line {} — a predictor-layer \
             change moved the paper numbers (regenerate the golden only if \
             the change is intentional)",
            i + 1
        );
    }
    assert_eq!(
        got.lines().count(),
        GOLDEN.lines().count(),
        "rendered output and golden differ in length"
    );
    panic!("output differs from golden only in line endings");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full 15-experiment sweep; run with --release (CI does)"
)]
fn all_experiment_tables_match_the_checked_in_golden() {
    let ctx = ExpContext::with_options(Scale::Tiny, ExpOptions::default());
    prefetch(&ctx, &ALL_EXPERIMENTS);
    assert_matches_golden(&render_all(&ctx));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "12-composition suite sweep; run with --release (CI does)"
)]
fn e15_chooser_base_matrix_matches_its_golden() {
    let ctx = ExpContext::with_options(Scale::Tiny, ExpOptions::default());
    let exp = by_id("chooser-base").expect("E15 registered");
    exp.prefetch(&ctx);
    let got = exp.render(&ctx);
    assert_eq!(got, GOLDEN_E15, "E15 drifted from its checked-in golden");
    // The standalone golden is literally a slice of the full one.
    assert!(GOLDEN.ends_with(&format!("{GOLDEN_E15}\n")));
}
