//! The paper's tables and figures, as *data*: each experiment is an
//! [`Experiment`] record — an id, a one-line description, a declarative
//! table of [`Run`]s (predictor spec × update scenario), and a render
//! function that lays the resolved suite reports out next to the paper's
//! values. See EXPERIMENTS.md for the recorded runs.
//!
//! The run tables are the part that used to be hand-wired code: every
//! predictor an experiment sweeps is a [`PredictorSpec`] string, resolved
//! through [`ExpContext::run_spec`] — so the canonical spec string *is*
//! the scheduler memo label, and two experiments share a cached suite
//! exactly when they sweep the same composition. `tage_exp all` calls
//! [`prefetch`] first, which enqueues every experiment's suites onto the
//! worker pool eagerly (cross-experiment pipelining) before the first
//! table renders.
//!
//! Rendering goes to a `String`, byte-identical to the historical stdout
//! (pinned by `tests/golden_tables.rs` and the CI golden diff), so the
//! paper numbers cannot silently drift.

use crate::cost::CostComparison;
use crate::ctx::ExpContext;
use crate::spec::PredictorSpec;
use crate::table::{f1, f2, pct, Table};
use pipeline::SuiteReport;
use simkit::predictor::{BranchInfo, Predictor, UpdateScenario};
use std::fmt::Write as _;
use tage::{SystemSpec, Tage};
use workloads::suite::HARD_TRACES;

/// All experiment ids, in paper order (the last two are extensions: the
/// §8-cited storage-free confidence classes and the provider-internal
/// chooser × base ablation the decomposed provider opens up).
pub const ALL_EXPERIMENTS: [&str; 16] = [
    "bench-chars",
    "fig3",
    "writes",
    "scenarios",
    "interleave",
    "ium",
    "loop",
    "sc",
    "isl",
    "lsc",
    "ablation",
    "fig9",
    "fig10",
    "cost-eff",
    "confidence",
    "chooser-base",
];

// The compositions the experiments sweep, as canonical spec strings.
// These are the same strings `tage_exp system` accepts; the named ones
// are asserted against `tage::PRESETS` below so the two tables cannot
// drift apart.
const REF_TAGE: &str = "tage";
const GSHARE: &str = "gshare:512k";
const GEHL: &str = "gehl:520k";
const TAGE_IUM: &str = "tage+ium";
const TAGE_IUM_LOOP: &str = "tage+ium+loop";
const TAGE_IUM_LSC: &str = "tage+ium+lsc";
const ISL_TAGE: &str = "tage+ium+sc+loop/as=ISL-TAGE";
const TAGE_LSC: &str = "tage:lsc+ium+lsc/as=TAGE-LSC";
const FULL_STACK: &str = "tage+ium+sc+lsc+loop";
const TAGE_LSC_CE: &str = "tage:lsc+ium+lsc:2lht/ilv/as=TAGE-LSC-interleaved";
const TAGE_LSC_CE_LSCREREAD: &str = "tage:lsc+ium+lsc:2lht/ilv/lsc-reread/as=TAGE-LSC-interleaved";
const SNAP: &str = "snap:512k";
const FTL: &str = "ftl:512k";

/// One declarative simulation request: a predictor composition and the
/// §4.1.2 update scenario to run it under.
#[derive(Clone, Debug)]
pub struct Run {
    /// The predictor composition.
    pub spec: PredictorSpec,
    /// The update scenario.
    pub scenario: UpdateScenario,
}

impl Run {
    fn new(spec: &str, scenario: UpdateScenario) -> Self {
        // INVARIANT: run-table specs are static experiment data; the
        // registry test parses every row, so a bad entry never ships.
        let spec = PredictorSpec::parse(spec)
            .unwrap_or_else(|e| panic!("experiment table spec '{spec}': {e}"));
        Self { spec, scenario }
    }
}

/// Shorthand for a scenario-[A] run.
fn a(spec: &str) -> Run {
    Run::new(spec, UpdateScenario::RereadAtRetire)
}

/// One paper experiment: id, description, declarative run table, renderer.
pub struct Experiment {
    /// The CLI id.
    pub id: &'static str,
    /// One-line description (shown by `tage_exp --list`).
    pub description: &'static str,
    runs: fn() -> Vec<Run>,
    render: fn(&ExpContext, &[SuiteReport], &mut String),
}

impl Experiment {
    /// The declarative run table (spec × scenario rows).
    pub fn runs(&self) -> Vec<Run> {
        (self.runs)()
    }

    /// Enqueues every run's suite onto the scheduler without waiting.
    pub fn prefetch(&self, ctx: &ExpContext) {
        for run in self.runs() {
            ctx.prefetch_spec(&run.spec, run.scenario);
        }
    }

    /// Resolves the run table and renders the experiment's tables.
    pub fn render(&self, ctx: &ExpContext) -> String {
        let reports: Vec<SuiteReport> =
            self.runs().iter().map(|r| ctx.run_spec(&r.spec, r.scenario)).collect();
        let mut out = String::new();
        (self.render)(ctx, &reports, &mut out);
        out
    }
}

/// Looks up an experiment by id.
pub fn by_id(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Eagerly enqueues the suites of every listed experiment (deduplicated
/// by canonical spec label), so independent experiments overlap on the
/// worker pool instead of running serially.
pub fn prefetch(ctx: &ExpContext, ids: &[&str]) {
    for id in ids {
        if let Some(exp) = by_id(id) {
            exp.prefetch(ctx);
        }
    }
}

/// Dispatches one experiment by id, printing its tables. Returns false
/// for unknown ids.
pub fn run(id: &str, ctx: &ExpContext) -> bool {
    match by_id(id) {
        Some(exp) => {
            print!("{}", exp.render(ctx));
            true
        }
        None => false,
    }
}

/// The experiment registry, in [`ALL_EXPERIMENTS`] order.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "bench-chars",
        description: "§2.2 benchmark characterization on the reference TAGE",
        runs: || vec![a(REF_TAGE)],
        render: e00_bench_chars,
    },
    Experiment {
        id: "fig3",
        description: "Figure 3 bimodal delayed-update loop example",
        runs: Vec::new,
        render: e01_fig3,
    },
    Experiment {
        id: "writes",
        description: "§4.1.1 effective writes after silent-update elimination",
        runs: || vec![a(REF_TAGE), a(GEHL), a(GSHARE)],
        render: e02_writes,
    },
    Experiment {
        id: "scenarios",
        description: "§4.1.2 MPPKI under update scenarios [I]/[A]/[B]/[C]",
        runs: || {
            [GSHARE, GEHL, REF_TAGE]
                .iter()
                .flat_map(|spec| UpdateScenario::ALL.iter().map(|s| Run::new(spec, *s)))
                .collect()
        },
        render: e03_scenarios,
    },
    Experiment {
        id: "interleave",
        description: "§4.3 bank-interleaved single-ported TAGE",
        runs: || {
            vec![
                Run::new(REF_TAGE, UpdateScenario::RereadOnMispredict),
                Run::new("tage/ilv", UpdateScenario::RereadOnMispredict),
            ]
        },
        render: e04_interleave,
    },
    Experiment {
        id: "ium",
        description: "§5.1 Immediate Update Mimicker recovery",
        runs: || {
            UpdateScenario::ALL
                .iter()
                .flat_map(|s| [Run::new(REF_TAGE, *s), Run::new(TAGE_IUM, *s)])
                .collect()
        },
        render: e05_ium,
    },
    Experiment {
        id: "loop",
        description: "§5.2 loop predictor on top of TAGE+IUM",
        runs: || vec![a(TAGE_IUM), a(TAGE_IUM_LOOP)],
        render: e06_loop,
    },
    Experiment {
        id: "sc",
        description: "§5.3 global Statistical Corrector (ISL-TAGE)",
        runs: || vec![a(TAGE_IUM_LOOP), a(ISL_TAGE)],
        render: e07_sc,
    },
    Experiment {
        id: "isl",
        description: "§5.4 ISL-TAGE vs scaling the TAGE budget",
        runs: || vec![a(REF_TAGE), a(ISL_TAGE), a(&scaled_tage_spec(2))],
        render: e08_isl,
    },
    Experiment {
        id: "lsc",
        description: "§6.1 TAGE-LSC: local history through the corrector",
        runs: || vec![a(TAGE_IUM), a(FULL_STACK), a(TAGE_IUM_LSC), a(TAGE_LSC), a(ISL_TAGE)],
        render: e09_lsc,
    },
    Experiment {
        id: "ablation",
        description: "§6.2 robustness to history series and table count",
        runs: || E10_VARIANTS.iter().map(|(_, spec, _)| a(spec)).collect(),
        render: e10_ablation,
    },
    Experiment {
        id: "fig9",
        description: "Figure 9 TAGE vs TAGE-LSC across storage budgets",
        runs: || {
            (-2i32..=6)
                .flat_map(|d| [a(&scaled_tage_spec(d)), a(&scaled_tage_lsc_spec(d))])
                .collect()
        },
        render: e11_fig9,
    },
    Experiment {
        id: "fig10",
        description: "Figure 10/§6.3 the 7 hard traces vs neural contenders",
        runs: || vec![a(ISL_TAGE), a(TAGE_LSC), a(SNAP), a(FTL)],
        render: e12_fig10,
    },
    Experiment {
        id: "cost-eff",
        description: "§7 cost-effective 512 Kbit TAGE-LSC",
        runs: || {
            vec![
                a(TAGE_LSC),
                a(TAGE_LSC_CE),
                Run::new(TAGE_LSC_CE_LSCREREAD, UpdateScenario::RereadOnMispredict),
                Run::new(TAGE_LSC_CE, UpdateScenario::RereadOnMispredict),
                Run::new(TAGE_LSC_CE, UpdateScenario::FetchOnly),
            ]
        },
        render: e13_cost_eff,
    },
    Experiment {
        id: "confidence",
        description: "§8 cite [25] storage-free confidence classes",
        runs: Vec::new,
        render: e14_confidence,
    },
    Experiment {
        id: "chooser-base",
        description: "§3 ablation: chooser policy x base predictor matrix",
        runs: || {
            E15_BASES
                .iter()
                .flat_map(|(_, base)| {
                    E15_CHOOSERS.iter().map(move |(_, chooser)| a(&e15_spec(base, chooser)))
                })
                .collect()
        },
        render: e15_chooser_base,
    },
];

/// The Figure 9 scaled plain-TAGE spec (delta 0 canonicalizes onto the
/// reference spec, sharing its cached suite).
fn scaled_tage_spec(delta: i32) -> String {
    SystemSpec::scaled_tage(delta).to_string()
}

/// The Figure 9 scaled TAGE-LSC spec.
fn scaled_tage_lsc_spec(delta: i32) -> String {
    SystemSpec::scaled_tage_lsc(delta).to_string()
}

/// Storage of a spec string, in bits (run tables are validated at
/// construction, so this cannot fail for table entries).
fn spec_bits(spec: &str) -> u64 {
    // INVARIANT: same static run-table data as Run::new above.
    PredictorSpec::parse(spec).and_then(|s| s.storage_bits()).expect("experiment table spec")
}

// ---------------------------------------------------------------------
// E00 — §2.2 benchmark set characterization
// ---------------------------------------------------------------------

/// §2.2: per-trace misprediction counts on the reference TAGE; the 7 hard
/// traces should account for roughly ¾ of all mispredictions.
fn e00_bench_chars(ctx: &ExpContext, reports: &[SuiteReport], out: &mut String) {
    let suite = &reports[0];
    let mut t = Table::new(
        "E00 (§2.2) Benchmark characterization — reference TAGE, scenario [A]",
        &["trace", "hard", "uops", "branches", "static", "mispred", "MPKI", "MPPKI"],
    );
    for (r, trace) in suite.reports.iter().zip(ctx.traces()) {
        t.row(vec![
            r.trace.clone(),
            if HARD_TRACES.contains(&r.trace.as_str()) { "*".into() } else { "".into() },
            r.uops.to_string(),
            r.conditionals.to_string(),
            trace.static_conditional_count().to_string(),
            r.mispredicts.to_string(),
            f2(r.mpki()),
            f1(r.mppki()),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "hard-7 share of mispredictions: {} (paper: ~3/4)",
        pct(suite.mispredict_share(&HARD_TRACES))
    );
    let _ = writeln!(
        out,
        "suite MPPKI {} | hard-7 mean {} | easy-33 mean {}",
        f1(suite.mppki()),
        f1(suite.mppki_of(&HARD_TRACES)),
        f1(suite.mppki_excluding(&HARD_TRACES))
    );
}

// ---------------------------------------------------------------------
// E01 — Figure 3: bimodal delayed-update loop example
// ---------------------------------------------------------------------

/// Figure 3: a loop branch on a 2-bit counter starting strongly not-taken.
/// With immediate update it predicts correctly from iteration 3; re-read
/// at retire adds ~2 iterations per pipeline stage of staleness; using
/// only fetch-time values doubles the training time again.
fn e01_fig3(_ctx: &ExpContext, _reports: &[SuiteReport], out: &mut String) {
    let first_correct = |scenario: UpdateScenario| -> usize {
        let mut p = baselines::Bimodal::new(64, 2);
        // Drive to strongly not-taken (Figure 3 starts at C=0).
        let b = BranchInfo::conditional(0x40);
        for _ in 0..2 {
            let (pred, f) = p.predict(&b);
            p.retire(&b, false, pred, f, UpdateScenario::Immediate);
        }
        // Now run taken iterations with a 3-deep retire lag.
        let lag = 3usize;
        let mut inflight: std::collections::VecDeque<(bool, baselines::bimodal::BimodalFlight, usize)> =
            Default::default();
        for i in 0..32usize {
            let (pred, f) = p.predict(&b);
            if pred {
                return i + 1; // first correctly predicted iteration (1-based)
            }
            if scenario == UpdateScenario::Immediate {
                p.retire(&b, true, pred, f, scenario);
            } else {
                inflight.push_back((pred, f, i + lag));
                while inflight.front().is_some_and(|(_, _, at)| *at <= i) {
                    // INVARIANT: the loop condition just witnessed a front.
                    let (pred, f, _) = inflight.pop_front().unwrap();
                    p.retire(&b, true, pred, f, scenario);
                }
            }
        }
        33
    };
    let mut t = Table::new(
        "E01 (Fig. 3) Bimodal loop example: first correctly predicted iteration",
        &["update policy", "paper", "measured"],
    );
    t.row(vec![
        "immediate [I]".into(),
        "3".into(),
        first_correct(UpdateScenario::Immediate).to_string(),
    ]);
    t.row(vec![
        "reread at retire [A]".into(),
        "5".into(),
        first_correct(UpdateScenario::RereadAtRetire).to_string(),
    ]);
    t.row(vec![
        "fetch values only [B]".into(),
        "7".into(),
        first_correct(UpdateScenario::FetchOnly).to_string(),
    ]);
    out.push_str(&t.render());
    let _ = writeln!(out, "(absolute iteration numbers depend on the exact retire timing;");
    let _ = writeln!(out, " the shape — each level of staleness costs extra iterations, [B]");
    let _ = writeln!(out, " costing the most — is the Figure 3 claim)");
}

// ---------------------------------------------------------------------
// E02 — §4.1.1 effective writes after silent-update elimination
// ---------------------------------------------------------------------

/// §4.1.1: effective (non-silent) writes per misprediction and per 100
/// retired branches for TAGE / GEHL / gshare.
fn e02_writes(_ctx: &ExpContext, reports: &[SuiteReport], out: &mut String) {
    let rows: [(&str, &SuiteReport, f64, f64); 3] = [
        ("TAGE (ref 64KB)", &reports[0], 2.17, 9.06),
        ("GEHL 520Kbit", &reports[1], 1.94, 9.10),
        ("gshare 512Kbit", &reports[2], 1.54, 9.61),
    ];
    let mut t = Table::new(
        "E02 (§4.1.1) Effective writes after silent-update elimination, scenario [A]",
        &["predictor", "writes/mispredict", "paper", "writes/100br", "paper ", "silent frac"],
    );
    for (name, r, p_wpm, p_w100) in &rows {
        t.row(vec![
            name.to_string(),
            f2(r.writes_per_mispredict()),
            f2(*p_wpm),
            f2(r.writes_per_100_branches()),
            f2(*p_w100),
            pct(r.silent_fraction()),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(out, "(paper: silent updates are 'more than 90% in average')");
}

// ---------------------------------------------------------------------
// E03 — §4.1.2 the delayed-update scenario table
// ---------------------------------------------------------------------

/// §4.1.2: MPPKI under scenarios [I]/[A]/[B]/[C] for gshare, GEHL, TAGE.
/// The paper's key observation: TAGE barely suffers from skipping the
/// retire-time read ([B]/[C]), gshare and GEHL suffer badly.
fn e03_scenarios(_ctx: &ExpContext, reports: &[SuiteReport], out: &mut String) {
    let paper: [(&str, [f64; 4]); 3] = [
        ("gshare 512Kbit", [944.0, 970.0, 1292.0, 1011.0]),
        ("GEHL 520Kbit", [664.0, 685.0, 801.0, 744.0]),
        ("TAGE (ref 64KB)", [609.0, 617.0, 640.0, 625.0]),
    ];
    let mut t = Table::new(
        "E03 (§4.1.2) MPPKI by update scenario",
        &["predictor", "[I]", "[A]", "[B]", "[C]", "B/I", "paper B/I", "C/I", "paper C/I"],
    );
    for (i, (name, pvals)) in paper.iter().enumerate() {
        let measured: Vec<f64> = (0..4).map(|k| reports[i * 4 + k].mppki()).collect();
        t.row(vec![
            name.to_string(),
            f1(measured[0]),
            f1(measured[1]),
            f1(measured[2]),
            f1(measured[3]),
            f2(measured[2] / measured[0]),
            f2(pvals[2] / pvals[0]),
            f2(measured[3] / measured[0]),
            f2(pvals[3] / pvals[0]),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(out, "(paper MPPKI: gshare 944/970/1292/1011, GEHL 664/685/801/744,");
    let _ = writeln!(out, " TAGE 609/617/640/625 — shape: TAGE's relative loss is smallest)");
}

// ---------------------------------------------------------------------
// E04 — §4.3 bank-interleaved single-ported TAGE
// ---------------------------------------------------------------------

/// §4.3: 4-way interleaved single-ported TAGE under scenario [C] loses
/// almost nothing (627 vs 625 MPPKI) while the CACTI-style model reports
/// ~3.3× area and ~2× read-energy savings.
fn e04_interleave(_ctx: &ExpContext, reports: &[SuiteReport], out: &mut String) {
    let (base, inter) = (&reports[0], &reports[1]);
    let mut t = Table::new(
        "E04 (§4.3) Bank-interleaved single-ported TAGE, scenario [C]",
        &["configuration", "MPPKI", "paper", "accesses/branch"],
    );
    t.row(vec![
        "3-port monolithic".into(),
        f1(base.mppki()),
        "625".into(),
        f2(base.accesses_per_branch()),
    ]);
    t.row(vec![
        "4-way interleaved 1-port".into(),
        f1(inter.mppki()),
        "627".into(),
        f2(inter.accesses_per_branch()),
    ]);
    out.push_str(&t.render());
    let _ = writeln!(out, "{}", CostComparison::for_predictor(spec_bits(REF_TAGE)).summary());
    let _ = writeln!(
        out,
        "interleaving loss: {:+.1} MPPKI ({} of baseline; paper: +2 MPPKI)",
        inter.mppki() - base.mppki(),
        pct((inter.mppki() - base.mppki()) / base.mppki())
    );
}

// ---------------------------------------------------------------------
// E05 — §5.1 the Immediate Update Mimicker
// ---------------------------------------------------------------------

/// §5.1: the IUM recovers most of the delayed-update loss:
/// [A] 617→611 (vs oracle 609), [B] 640→624, [C] 625→614.
fn e05_ium(_ctx: &ExpContext, reports: &[SuiteReport], out: &mut String) {
    let paper = [
        ("[I] oracle", UpdateScenario::Immediate, 609.0, f64::NAN),
        ("[A] reread", UpdateScenario::RereadAtRetire, 617.0, 611.0),
        ("[B] fetch-only", UpdateScenario::FetchOnly, 640.0, 624.0),
        ("[C] reread-on-miss", UpdateScenario::RereadOnMispredict, 625.0, 614.0),
    ];
    let mut t = Table::new(
        "E05 (§5.1) Immediate Update Mimicker",
        &["scenario", "TAGE", "paper", "TAGE+IUM", "paper ", "recovered"],
    );
    let oracle = reports[0].mppki();
    for (i, (name, scen, p_no, p_ium)) in paper.into_iter().enumerate() {
        let without = reports[2 * i].mppki();
        let with = reports[2 * i + 1].mppki();
        let recovered = if (without - oracle).abs() < 1e-9 {
            "-".to_string()
        } else {
            pct(((without - with) / (without - oracle)).clamp(-9.0, 9.0))
        };
        t.row(vec![
            name.into(),
            f1(without),
            f1(p_no),
            if p_ium.is_nan() { "-".into() } else { f1(with) },
            if p_ium.is_nan() { "-".into() } else { f1(p_ium) },
            if scen == UpdateScenario::Immediate { "-".into() } else { recovered },
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(out, "(paper: IUM recovers ~3/4 of the delayed-update loss under [A],");
    let _ = writeln!(out, " ~1/2 under [B]; 'recovered' is the fraction of the gap to oracle)");
}

// ---------------------------------------------------------------------
// E06 — §5.2 the loop predictor
// ---------------------------------------------------------------------

/// §5.2: TAGE+IUM+loop reaches 593 MPPKI from 611 (≈3 % of the remaining
/// loss).
fn e06_loop(_ctx: &ExpContext, reports: &[SuiteReport], out: &mut String) {
    let (base, with) = (&reports[0], &reports[1]);
    let mut t = Table::new(
        "E06 (§5.2) Loop predictor on top of TAGE+IUM, scenario [A]",
        &["configuration", "MPPKI", "paper"],
    );
    t.row(vec!["TAGE+IUM".into(), f1(base.mppki()), "611".into()]);
    t.row(vec!["TAGE+IUM+loop".into(), f1(with.mppki()), "593".into()]);
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "reduction {} (paper ≈3%)",
        pct((base.mppki() - with.mppki()) / base.mppki())
    );
}

// ---------------------------------------------------------------------
// E07 — §5.3 the (global) Statistical Corrector
// ---------------------------------------------------------------------

/// §5.3: adding the global SC reaches 580 MPPKI from 593 (≈2 % more).
fn e07_sc(_ctx: &ExpContext, reports: &[SuiteReport], out: &mut String) {
    let (base, with) = (&reports[0], &reports[1]);
    let mut t = Table::new(
        "E07 (§5.3) Statistical Corrector on top of TAGE+IUM+loop, scenario [A]",
        &["configuration", "MPPKI", "paper"],
    );
    t.row(vec!["TAGE+IUM+loop".into(), f1(base.mppki()), "593".into()]);
    t.row(vec!["ISL-TAGE (+SC)".into(), f1(with.mppki()), "580".into()]);
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "reduction {} (paper ≈2%)",
        pct((base.mppki() - with.mppki()) / base.mppki())
    );
}

// ---------------------------------------------------------------------
// E08 — §5.4 ISL-TAGE vs scaling TAGE
// ---------------------------------------------------------------------

/// §5.4: the side predictors buy about what quadrupling the TAGE budget
/// buys (ISL-TAGE ≈ 6 % fewer mispredictions ≈ a 2 Mbit TAGE).
fn e08_isl(_ctx: &ExpContext, reports: &[SuiteReport], out: &mut String) {
    let (t512, isl, t2m) = (&reports[0], &reports[1], &reports[2]);
    let mut t = Table::new(
        "E08 (§5.4) ISL-TAGE vs scaling the TAGE budget, scenario [A]",
        &["configuration", "storage", "MPPKI", "vs TAGE 512K"],
    );
    let base = t512.mppki();
    for (name, r) in [
        ("TAGE 512Kbit", t512),
        ("ISL-TAGE (512Kbit + sides)", isl),
        ("TAGE 2Mbit", t2m),
    ] {
        t.row(vec![
            name.into(),
            format!("{}Kbit", spec_bits(REF_TAGE) / 1024 * if name.contains("2M") { 4 } else { 1 }),
            f1(r.mppki()),
            pct((base - r.mppki()) / base),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(out, "(paper: ISL-TAGE cuts ~6% — about what scaling TAGE to 2 Mbit buys)");
}

// ---------------------------------------------------------------------
// E09 — §6.1 TAGE-LSC
// ---------------------------------------------------------------------

/// §6.1: the local-history statistical corrector dwarfs the loop
/// predictor and the global SC: full stack 555, LSC alone on TAGE+IUM
/// 559, 512 Kbit TAGE-LSC 562 vs ISL-TAGE 581.
fn e09_lsc(_ctx: &ExpContext, reports: &[SuiteReport], out: &mut String) {
    let rows: [(&str, &SuiteReport, &str, &str); 5] = [
        ("TAGE+IUM", &reports[0], "611", TAGE_IUM),
        ("TAGE+IUM+loop+SC+LSC (full)", &reports[1], "555", FULL_STACK),
        ("TAGE+IUM+LSC (LSC alone)", &reports[2], "559", TAGE_IUM_LSC),
        ("TAGE-LSC (512Kbit budget)", &reports[3], "562", TAGE_LSC),
        ("ISL-TAGE (same budget)", &reports[4], "581", ISL_TAGE),
    ];
    let mut t = Table::new(
        "E09 (§6.1) TAGE-LSC: local history through the statistical corrector",
        &["configuration", "storage Kbit", "MPPKI", "paper"],
    );
    for (name, r, paper, spec) in &rows {
        t.row(vec![
            name.to_string(),
            (spec_bits(spec) / 1024).to_string(),
            f1(r.mppki()),
            paper.to_string(),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(out, "(paper shape: LSC alone captures most of what loop+SC capture,");
    let _ = writeln!(out, " and TAGE-LSC beats ISL-TAGE at the same storage budget)");
}

// ---------------------------------------------------------------------
// E10 — §6.2 robustness ablations
// ---------------------------------------------------------------------

/// The §6.2 ablation variants: (row label, spec, paper MPPKI).
const E10_VARIANTS: [(&str, &str, &str); 6] = [
    ("(6,2000) 13-comp [ref]", "tage:lsc+ium+lsc", "562"),
    ("(3,300) 13-comp", "tage:lsc:h3,300+ium+lsc", "575"),
    ("(4,1000) 13-comp", "tage:lsc:h4,1000+ium+lsc", "563"),
    ("(8,5000) 13-comp", "tage:lsc:h8,5000+ium+lsc", "563"),
    ("(6,1000) 9-comp", "tage:b8,6,1000+ium+lsc", "566"),
    ("(6,500) 6-comp", "tage:b5,6,500+ium+lsc", "583"),
];

/// §6.2: TAGE-LSC is robust to the history series and the table count.
fn e10_ablation(_ctx: &ExpContext, reports: &[SuiteReport], out: &mut String) {
    let mut t = Table::new(
        "E10 (§6.2) TAGE-LSC robustness to history series and table count",
        &["configuration", "storage Kbit", "MPPKI", "paper"],
    );
    for ((name, spec, paper), r) in E10_VARIANTS.iter().zip(reports) {
        let storage = spec_bits(spec) / 1024;
        t.row(vec![(*name).into(), storage.to_string(), f1(r.mppki()), (*paper).into()]);
    }
    out.push_str(&t.render());
    let _ = writeln!(out, "(paper shape: mild degradation for (3,300) and the 6-component");
    let _ = writeln!(out, " configuration; near-parity for the others)");
}

// ---------------------------------------------------------------------
// E11 — Figure 9: TAGE vs TAGE-LSC across storage budgets
// ---------------------------------------------------------------------

/// Figure 9: MPPKI of TAGE and TAGE-LSC from 128 Kbit to 32 Mbit.
/// TAGE-LSC should track a 4–8× larger TAGE in the 128K–512K range, and
/// CLIENT02 should fall off a cliff in the 2–8 Mbit region.
fn e11_fig9(_ctx: &ExpContext, reports: &[SuiteReport], out: &mut String) {
    let mut t = Table::new(
        "E11 (Fig. 9) TAGE vs TAGE-LSC across storage budgets, scenario [A]",
        &["budget", "TAGE Kbit", "TAGE MPPKI", "TAGE-LSC Kbit", "TAGE-LSC MPPKI", "CLIENT02 (LSC)"],
    );
    let labels = ["128K", "256K", "512K", "1M", "2M", "4M", "8M", "16M", "32M"];
    for (i, delta) in (-2i32..=6).enumerate() {
        let tage_r = &reports[2 * i];
        let lsc_r = &reports[2 * i + 1];
        let client02 = lsc_r
            .reports
            .iter()
            .find(|r| r.trace == "CLIENT02")
            .map(|r| f1(r.mppki()))
            .unwrap_or_default();
        t.row(vec![
            labels[i].into(),
            (spec_bits(&scaled_tage_spec(delta)) / 1024).to_string(),
            f1(tage_r.mppki()),
            (spec_bits(&scaled_tage_lsc_spec(delta)) / 1024).to_string(),
            f1(lsc_r.mppki()),
            client02,
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(out, "(paper shape: both curves fall monotonically and plateau at");
    let _ = writeln!(out, " 16-32Mbit; TAGE-LSC ≈ a 4-8x larger TAGE at 128K-512K;");
    let _ = writeln!(out, " CLIENT02 collapses in the multi-megabit range)");
}

// ---------------------------------------------------------------------
// E12 — Figure 10 / §6.3: the 7 hard traces vs neural contenders
// ---------------------------------------------------------------------

/// Figure 10 + §6.3: per-trace MPPKI on the 7 hardest traces for
/// ISL-TAGE / TAGE-LSC / OH-SNAP-style / FTL++-style predictors, plus the
/// easy-33 and hard-7 group means.
fn e12_fig10(_ctx: &ExpContext, reports: &[SuiteReport], out: &mut String) {
    let (isl, lsc, snap, ftl) = (&reports[0], &reports[1], &reports[2], &reports[3]);
    let mut t = Table::new(
        "E12 (Fig. 10) The 7 least predictable traces, MPPKI",
        &["trace", "ISL-TAGE", "TAGE-LSC", "OH-SNAP*", "FTL++*"],
    );
    for name in HARD_TRACES {
        let get = |s: &SuiteReport| {
            s.reports.iter().find(|r| r.trace == name).map(|r| f1(r.mppki())).unwrap_or_default()
        };
        t.row(vec![name.into(), get(isl), get(lsc), get(snap), get(ftl)]);
    }
    out.push_str(&t.render());
    let mut g = Table::new(
        "E12 (§6.3) Group means",
        &["group", "ISL-TAGE", "paper", "TAGE-LSC", "paper ", "OH-SNAP*", "paper  ", "FTL++*", "paper   "],
    );
    g.row(vec![
        "easy 33".into(),
        f1(isl.mppki_excluding(&HARD_TRACES)),
        "196".into(),
        f1(lsc.mppki_excluding(&HARD_TRACES)),
        "198".into(),
        f1(snap.mppki_excluding(&HARD_TRACES)),
        "254".into(),
        f1(ftl.mppki_excluding(&HARD_TRACES)),
        "232".into(),
    ]);
    g.row(vec![
        "hard 7".into(),
        f1(isl.mppki_of(&HARD_TRACES)),
        "2311".into(),
        f1(lsc.mppki_of(&HARD_TRACES)),
        "2287".into(),
        f1(snap.mppki_of(&HARD_TRACES)),
        "2227".into(),
        f1(ftl.mppki_of(&HARD_TRACES)),
        "2222".into(),
    ]);
    out.push_str(&g.render());
    let _ = writeln!(out, "(*simplified stand-ins, see DESIGN.md §1. Paper shape: the TAGE");
    let _ = writeln!(out, " family wins clearly on the easy 33; the neural predictors edge");
    let _ = writeln!(out, " ahead on the hard 7)");
}

// ---------------------------------------------------------------------
// E13 — §7 cost-effective TAGE-LSC
// ---------------------------------------------------------------------

/// §7: the cost-effective 512 Kbit TAGE-LSC — 4-way interleaved
/// single-ported tables (569), plus no-retire-read-on-correct (575);
/// TAGE-components-only elimination loses only ~2 MPPKI; full scenario
/// [B] (599) is rejected.
fn e13_cost_eff(_ctx: &ExpContext, reports: &[SuiteReport], out: &mut String) {
    let rows: [(&str, &SuiteReport, &str); 5] = [
        ("TAGE-LSC, 3-port, [A]", &reports[0], "562"),
        ("+4-way interleaved, [A]", &reports[1], "569"),
        ("+no reread on correct, TAGE only ([C], LSC rereads)", &reports[2], "571"),
        ("+no reread on correct, all components [C]", &reports[3], "575"),
        ("fetch-only values everywhere [B] (rejected)", &reports[4], "599"),
    ];
    let mut t = Table::new(
        "E13 (§7) Cost-effective 512Kbit TAGE-LSC",
        &["configuration", "MPPKI", "paper", "accesses/branch"],
    );
    for (name, r, paper) in &rows {
        t.row(vec![
            name.to_string(),
            f1(r.mppki()),
            paper.to_string(),
            f2(r.accesses_per_branch()),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(out, "{}", CostComparison::for_predictor(spec_bits(TAGE_LSC)).summary());
}

// ---------------------------------------------------------------------
// E14 — extension: storage-free confidence (§8 citation [25])
// ---------------------------------------------------------------------

/// Extension experiment: the conclusion cites "Storage Free Confidence
/// Estimation for the TAGE branch predictor" (Seznec, HPCA 2011) —
/// "simple and storage free". Classify every reference-TAGE prediction by
/// its providing counter strength and report accuracy per class over the
/// whole suite.
fn e14_confidence(ctx: &ExpContext, _reports: &[SuiteReport], out: &mut String) {
    use tage::confidence::{classify, Confidence, ConfidenceStats};
    let mut stats = ConfidenceStats::default();
    for trace in ctx.traces() {
        let mut p = Tage::reference_64kb();
        for ev in &trace.events {
            let b = ev.branch_info();
            if !b.kind.is_conditional() {
                p.note_uncond(&b);
                continue;
            }
            let (pred, mut f) = p.predict(&b);
            stats.record(classify(&f), pred == ev.taken);
            p.fetch_commit(&b, ev.taken, &mut f);
            p.retire(&b, ev.taken, pred, f, UpdateScenario::Immediate);
        }
    }
    let mut t = Table::new(
        "E14 (extension, §8 cite [25]) Storage-free confidence, reference TAGE",
        &["class", "coverage", "accuracy"],
    );
    for c in [Confidence::High, Confidence::Medium, Confidence::Low] {
        t.row(vec![
            format!("{c:?}"),
            pct(stats.coverage(c)),
            pct(stats.accuracy(c).unwrap_or(f64::NAN)),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(out, "(HPCA-2011 shape: accuracy strictly ordered High > Medium > Low,");
    let _ = writeln!(out, " with High covering the bulk of predictions — the provider");
    let _ = writeln!(out, " counter value is a free confidence signal)");
}

// ---------------------------------------------------------------------
// E15 — extension: the provider opened — chooser × base ablation
// ---------------------------------------------------------------------

/// The base-predictor rows of the E15 matrix: (row label, spec token).
const E15_BASES: [(&str, &str); 3] = [
    ("bimodal (shared hyst)", "bimodal"),
    ("2-bit counters", "2bc"),
    ("gshare-indexed", "gshare"),
];

/// The chooser-policy columns of the E15 matrix: (column label, token).
const E15_CHOOSERS: [(&str, &str); 4] = [
    ("altweak (§3.1)", "altweak"),
    ("always-provider", "always"),
    ("conf-weighted", "conf"),
    ("per-PC table", "table"),
];

/// The spec string for one E15 cell. The default cell
/// (`base=bimodal,chooser=altweak`) canonicalizes to plain `tage`, so it
/// shares the reference suite with E00/E03/E05/E08 through the memo
/// cache instead of re-simulating.
fn e15_spec(base: &str, chooser: &str) -> String {
    format!("tage(base={base},chooser={chooser})")
}

/// Extension experiment: the decomposed provider's §3-level ablations.
/// Sweeps every chooser policy against every base predictor under the
/// unchanged tagged bank — the matrix the fused predictor could not
/// express. Expected shape: the paper's `altweak` column wins (or ties)
/// everywhere; base choice matters far less than chooser choice because
/// the tagged bank provides on the overwhelming majority of branches.
fn e15_chooser_base(_ctx: &ExpContext, reports: &[SuiteReport], out: &mut String) {
    let mut columns = vec!["base \\ chooser", "Kbit"];
    columns.extend(E15_CHOOSERS.iter().map(|(label, _)| *label));
    let mut t = Table::new(
        "E15 (extension) Provider ablation: suite MPPKI by chooser policy x base predictor, scenario [A]",
        &columns,
    );
    for (b, (base_label, base)) in E15_BASES.iter().enumerate() {
        let mut row = vec![
            base_label.to_string(),
            (spec_bits(&e15_spec(base, "altweak")) / 1024).to_string(),
        ];
        row.extend((0..E15_CHOOSERS.len()).map(|c| f1(reports[b * E15_CHOOSERS.len() + c].mppki())));
        t.row(row);
    }
    out.push_str(&t.render());
    let reference = reports[0].mppki();
    let (mut worst_cell, mut worst_delta) = (String::new(), f64::MIN);
    for (b, (base_label, _)) in E15_BASES.iter().enumerate() {
        for (c, (chooser_label, _)) in E15_CHOOSERS.iter().enumerate() {
            let delta = reports[b * E15_CHOOSERS.len() + c].mppki() - reference;
            if delta > worst_delta {
                worst_delta = delta;
                worst_cell = format!("{base_label} / {chooser_label}");
            }
        }
    }
    let _ = writeln!(
        out,
        "reference cell (bimodal/altweak) {} | worst cell {} ({:+.1} MPPKI)",
        f1(reference),
        worst_cell,
        worst_delta
    );
    let _ = writeln!(out, "(expected shape: on the paper's own base the §3.1 altweak policy");
    let _ = writeln!(out, " beats always-provider clearly; under the ablation bases the");
    let _ = writeln!(out, " confidence-weighted chooser can edge ahead, and the history-hashed");
    let _ = writeln!(out, " gshare base loses badly — TAGE wants a history-free fallback)");
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::{simulate_engine, PipelineConfig, WindowEngine};
    use tage::TageSystem;
    use workloads::suite::{by_name, Scale};

    /// The registry stays in sync with the id list.
    #[test]
    fn registry_matches_id_list() {
        assert_eq!(EXPERIMENTS.len(), ALL_EXPERIMENTS.len());
        for (exp, id) in EXPERIMENTS.iter().zip(ALL_EXPERIMENTS) {
            assert_eq!(exp.id, id);
            assert!(!exp.description.is_empty());
        }
    }

    /// Every run-table spec parses, validates, and round-trips through
    /// its canonical form (the memo label).
    #[test]
    fn run_tables_are_valid_specs() {
        for exp in EXPERIMENTS {
            for run in exp.runs() {
                let canonical = run.spec.to_string();
                let reparsed = PredictorSpec::parse(&canonical)
                    .unwrap_or_else(|e| panic!("{}: '{canonical}': {e}", exp.id));
                assert_eq!(run.spec, reparsed, "{}: spec did not round-trip", exp.id);
            }
        }
    }

    /// The named spec-string constants match the core preset table, so
    /// the experiment tables and `tage::PRESETS` cannot drift apart.
    #[test]
    fn experiment_specs_match_core_presets() {
        for (preset, constant) in [
            ("tage", REF_TAGE),
            ("tage-ium", TAGE_IUM),
            ("isl-tage", ISL_TAGE),
            ("tage-lsc", TAGE_LSC),
            ("full-stack", FULL_STACK),
            ("tage-lsc-ce", TAGE_LSC_CE),
        ] {
            assert_eq!(
                SystemSpec::preset(preset).unwrap().to_string(),
                constant,
                "preset '{preset}' drifted from the experiment tables"
            );
        }
    }

    /// The provider redesign must not relabel any pre-existing cache
    /// key: E00–E14 sweep exactly 49 distinct (sim-key, scenario)
    /// suites — 1960 per-trace simulate jobs at `Scale::Tiny` — and the
    /// anchor labels are byte-stable. (E15 adds its own 11 new suites on
    /// top; the twelfth cell aliases onto the reference suite.)
    #[test]
    fn e00_e14_memo_labels_and_job_count_are_stable() {
        let pre_existing = &EXPERIMENTS[..15];
        let mut keys = std::collections::HashSet::new();
        for exp in pre_existing {
            for run in exp.runs() {
                keys.insert((run.spec.sim_key(), run.scenario));
            }
        }
        assert_eq!(
            keys.len() * 40,
            1960,
            "E00-E14 suite count regressed (cache keys relabeled?)"
        );
        for label in [
            "tage",
            "gshare:512k",
            "gehl:520k",
            "tage+ium",
            "tage+ium+sc+loop",
            "tage:lsc+ium+lsc",
            "tage:lsc+ium+lsc:2lht/ilv",
            "tage:x2",
        ] {
            assert!(
                keys.iter().any(|(k, _)| k == label),
                "pre-existing memo label '{label}' disappeared"
            );
        }
        // The full registry including E15: 11 fresh suites, one aliased.
        let mut all = keys.clone();
        for run in by_id("chooser-base").unwrap().runs() {
            all.insert((run.spec.sim_key(), run.scenario));
        }
        assert_eq!(all.len(), keys.len() + 11);
    }

    /// The E15 default cell canonicalizes onto the reference spec, so it
    /// shares the reference suite through the memo cache.
    #[test]
    fn e15_default_cell_aliases_onto_the_reference_suite() {
        let runs = by_id("chooser-base").unwrap().runs();
        assert_eq!(runs.len(), 12);
        assert_eq!(runs[0].spec.sim_key(), "tage");
        assert_eq!(runs[0].spec.to_string(), "tage");
        // Every other cell is a distinct composition.
        let keys: std::collections::HashSet<String> =
            runs.iter().map(|r| r.spec.sim_key()).collect();
        assert_eq!(keys.len(), 12);
    }

    /// Guards the delta-0 memo aliasing: the delta-0 Figure 9 point must
    /// be the reference TAGE bit-for-bit (and share its spec label).
    #[test]
    fn scaled_zero_is_the_reference_config() {
        assert_eq!(scaled_tage_spec(0), REF_TAGE);
        let scaled = TageSystem::scaled_tage(0);
        let reference = TageSystem::reference_tage();
        assert_eq!(scaled.storage_bits(), reference.storage_bits());
        let spec = by_name("CLIENT03", Scale::Tiny).unwrap();
        let cfg = PipelineConfig::default();
        let run = |p: TageSystem| {
            let mut engine = WindowEngine::new(p, UpdateScenario::RereadAtRetire, &cfg);
            simulate_engine(&mut engine, &mut spec.stream())
        };
        assert_eq!(run(TageSystem::scaled_tage(0)), run(TageSystem::reference_tage()));
    }
}
