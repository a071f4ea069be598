//! The 40-trace synthetic benchmark suite.
//!
//! Mirrors the CBP-3 benchmark set used by the paper: five categories
//! (CLIENT, INT, MM, SERVER, WS) of eight traces each. §2.2 of the paper
//! splits the set into 7 *hard* traces (CLIENT02, INT01, INT02, MM05,
//! MM07, WS03, WS04 — about ¾ of all mispredictions) and 33 easier ones;
//! the same names are hard here, by construction:
//!
//! * **CLIENT02** — two huge-period repetitive branches (the Figure 9
//!   capacity cliff);
//! * **INT01 / WS03** — sparse linear correlations buried in noise
//!   (neural-predictor-friendly, table-predictor-hostile);
//! * **INT02 / WS04** — weakly biased noise and irregular loops (hard for
//!   everyone);
//! * **MM05** — data-dependent, statistically biased branches;
//! * **MM07** — local periodic patterns drowned in global noise (the
//!   LSC showcase).

use crate::behavior::Behavior;
use crate::event::Trace;
use crate::program::{LoadModel, Node, PcAlloc, Program, Site, Trip};
use simkit::predictor::BranchKind;
use simkit::rng::Xoshiro256;

/// Benchmark category, matching the CBP-3 taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// Interactive client applications.
    Client,
    /// Integer codes.
    Int,
    /// Multimedia kernels.
    Mm,
    /// Server workloads (large static footprints, cold data).
    Server,
    /// Workstation applications.
    Ws,
}

impl Category {
    /// Upper-case name as used in trace names (`"CLIENT"` …).
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Client => "CLIENT",
            Category::Int => "INT",
            Category::Mm => "MM",
            Category::Server => "SERVER",
            Category::Ws => "WS",
        }
    }

    /// All five categories in suite order.
    pub const ALL: [Category; 5] =
        [Category::Client, Category::Int, Category::Mm, Category::Server, Category::Ws];
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Trace length scale. The paper's traces are ~50M µops; these scales trade
/// fidelity for laptop runtime, and which of the paper's claims hold
/// depends on the scale: the suite's TAGE MPPKI crosses the paper's 617
/// between `Small` (656.3) and `Default` (510.6), and the SC gain reaches
/// the paper's ~2 % only from `Default`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// ~6K conditional branches per trace — unit tests and the tiny golden
    /// tables.
    Tiny,
    /// ~30K — quick experiment previews.
    Small,
    /// ~120K — the default for `tage_exp`.
    Default,
    /// ~480K — closest to the paper; minutes of runtime.
    Full,
}

impl Scale {
    /// Conditional branches per trace at this scale.
    pub fn branches(self) -> usize {
        match self {
            Scale::Tiny => 6_000,
            Scale::Small => 30_000,
            Scale::Default => 120_000,
            Scale::Full => 480_000,
        }
    }

    /// Parses `"tiny" | "small" | "default" | "full"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "default" => Some(Scale::Default),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Lower-case name, the inverse of [`Scale::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A named, reproducible trace recipe.
#[derive(Clone, Debug)]
pub struct TraceSpec {
    /// Trace name, e.g. `"MM07"`.
    pub name: String,
    /// Category.
    pub category: Category,
    /// Whether this is one of the 7 hard traces of §2.2.
    pub hard: bool,
    program: Program,
    budget: usize,
}

impl TraceSpec {
    /// Materializes the trace (deterministic).
    pub fn generate(&self) -> Trace {
        self.program.generate(self.budget)
    }

    /// Streams the trace lazily (deterministic, bit-identical to
    /// [`TraceSpec::generate`]) without materializing it.
    pub fn stream(&self) -> crate::program::ProgramStream {
        self.program.stream(self.budget)
    }

    /// Conditional-branch budget of this spec.
    pub fn budget(&self) -> usize {
        self.budget
    }

}

/// The names of the 7 high-misprediction-rate traces (§2.2).
pub const HARD_TRACES: [&str; 7] =
    ["CLIENT02", "INT01", "INT02", "MM05", "MM07", "WS03", "WS04"];

/// Builds the full 40-trace suite at the given scale.
pub fn suite(scale: Scale) -> Vec<TraceSpec> {
    let mut specs = Vec::with_capacity(40);
    for cat in Category::ALL {
        for idx in 1..=8u32 {
            specs.push(build(cat, idx, scale));
        }
    }
    specs
}

/// Builds a single named trace (e.g. `"MM05"`) at the given scale.
/// Returns `None` for unknown names.
pub fn by_name(name: &str, scale: Scale) -> Option<TraceSpec> {
    for cat in Category::ALL {
        let pfx = cat.as_str();
        if let Some(rest) = name.strip_prefix(pfx) {
            if let Ok(idx) = rest.parse::<u32>() {
                if (1..=8).contains(&idx) {
                    return Some(build(cat, idx, scale));
                }
            }
        }
    }
    None
}

fn trace_seed(cat: Category, idx: u32) -> u64 {
    let mut h = 0xCBF29CE484222325u64;
    for b in cat.as_str().bytes().chain(idx.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

// ---------------------------------------------------------------------
// Building blocks
// ---------------------------------------------------------------------

/// A random balanced pattern of the given period.
fn random_pattern(period: usize, rng: &mut Xoshiro256) -> Behavior {
    let pattern: Vec<bool> = (0..period).map(|_| rng.gen_bool(0.5)).collect();
    Behavior::Pattern { pattern, pos: 0 }
}

/// A periodic branch surrounded by `noise` weakly-biased branches: the
/// companions inject enough history entropy that every occurrence of the
/// pattern branch sees a unique global history (hostile to TAGE), while
/// its *local* history stays perfectly periodic (the LSC lever, §6).
fn pattern_in_noise(a: &mut PcAlloc, period: usize, noise: usize, rng: &mut Xoshiro256) -> Node {
    let mut seq = vec![Node::Site(Site::new(a.pc(), random_pattern(period, rng)))];
    for i in 0..noise {
        // One moderately biased companion carries most of the entropy;
        // the rest are strongly biased (low intrinsic misprediction).
        let p = if i == 0 { 0.8 } else { 0.95 };
        seq.push(Node::Site(Site::new(a.pc(), Behavior::Bias { p })));
    }
    Node::Seq(seq)
}

/// A hot branch whose bias flips every `phase` executions, executed
/// `trip` times back-to-back inside a tight loop: several occurrences of
/// the same counter are in flight simultaneously, and the phase flips
/// force constant retraining — the §4.1.2 scenario-\[B\] stress.
fn hot_phased(a: &mut PcAlloc, p: f64, phase: usize, trip: u32) -> Node {
    Node::Loop {
        site: Site::new(a.pc(), Behavior::Random).uops(2),
        trip: Trip::Fixed(trip),
        body: Box::new(Node::Site(
            Site::new(a.pc(), Behavior::PhasedBias { p, phase, count: 0, flipped: false }).uops(2),
        )),
    }
}

/// A block of `n` pattern branches sharing one period, executed round
/// robin: the joint phase cycles with the period, so every (site, phase)
/// pair is a *repeating* global-history context — `n × period` contexts
/// in total. Blocks create genuine capacity pressure: a 512 Kbit TAGE
/// (≈37K tagged entries) thrashes on a few blocks that a 2–8 Mbit TAGE
/// holds comfortably (the Figure 9 slope).
fn pattern_block(a: &mut PcAlloc, n: usize, period: usize, rng: &mut Xoshiro256) -> Node {
    let seq: Vec<Node> =
        (0..n).map(|_| Node::Site(Site::new(a.pc(), random_pattern(period, rng)))).collect();
    Node::Seq(seq)
}

/// A periodic branch in *quiet* surroundings (biased companions): global
/// history carries the phase, so TAGE captures it (the longer the period,
/// the longer the history needed — gshare loses first).
fn quiet_pattern(a: &mut PcAlloc, period: usize, rng: &mut Xoshiro256) -> Node {
    Node::Seq(vec![
        Node::Site(Site::new(a.pc(), random_pattern(period, rng))),
        Node::Site(Site::new(a.pc(), Behavior::Bias { p: 0.98 })),
    ])
}

/// A constant-trip loop with a *noisy* body: the loop predictor's target
/// (§5.2). TAGE cannot count iterations through the noise.
fn noisy_const_loop(a: &mut PcAlloc, trip: u32, body_noise: usize) -> Node {
    let body: Vec<Node> =
        (0..body_noise).map(|_| Node::Site(Site::new(a.pc(), Behavior::Bias { p: 0.93 }))).collect();
    Node::Loop {
        site: Site::new(a.pc(), Behavior::Random),
        trip: Trip::Fixed(trip),
        body: Box::new(Node::Seq(body)),
    }
}

/// A constant-trip loop with a quiet, regular body — TAGE handles these.
fn regular_loop(a: &mut PcAlloc, trip: u32, rng: &mut Xoshiro256) -> Node {
    Node::Loop {
        site: Site::new(a.pc(), Behavior::Random),
        trip: Trip::Fixed(trip),
        body: Box::new(Node::Seq(vec![Node::Site(Site::new(a.pc(), random_pattern(4, rng)))])),
    }
}

/// A *tight* loop (small constant trip, minimal body) executed back to
/// back: several occurrences of the loop branch are in flight at once —
/// the delayed-update / IUM stress of §4–5.1.
fn tight_loop(a: &mut PcAlloc, trip: u32) -> Node {
    Node::Loop {
        site: Site::new(a.pc(), Behavior::Random).uops(2),
        trip: Trip::Fixed(trip),
        body: Box::new(Node::Seq(vec![])),
    }
}

/// An irregular loop (variable trip): mispredicts once per execution.
fn irregular_loop(a: &mut PcAlloc, lo: u32, hi: u32, body_noise: usize) -> Node {
    let body: Vec<Node> = (0..body_noise)
        .map(|_| Node::Site(Site::new(a.pc(), Behavior::Bias { p: 0.9 })))
        .collect();
    Node::Loop {
        site: Site::new(a.pc(), Behavior::Random),
        trip: Trip::Uniform(lo, hi),
        body: Box::new(Node::Seq(body)),
    }
}

/// `n` statistically biased branches with per-site bias in `[lo, hi]`
/// (statistical corrector targets, §5.3).
fn bias_field(a: &mut PcAlloc, n: usize, lo: f64, hi: f64, p_load: f64, rng: &mut Xoshiro256) -> Node {
    let seq: Vec<Node> = (0..n)
        .map(|_| {
            let p = lo + (hi - lo) * rng.next_f64();
            // Half taken-biased, half not-taken-biased.
            let p = if rng.gen_bool(0.5) { p } else { 1.0 - p };
            Node::Site(Site::new(a.pc(), Behavior::Bias { p }).load(p_load))
        })
        .collect();
    Node::Seq(seq)
}

/// Sparse linear correlation buried in noise — the neural-predictor lever.
fn sparse_corr_field(a: &mut PcAlloc, lags: &[usize], noise_sites: usize, noise: f64) -> Node {
    let mut seq = Vec::new();
    for &lag in lags {
        seq.push(Node::Site(Site::new(a.pc(), Behavior::SparseCorr { lag, invert: false, noise })));
    }
    for i in 0..noise_sites {
        // Alternate pure noise with weak bias so the field is hard but
        // not a 50% wall.
        let b = if i % 2 == 0 { Behavior::Random } else { Behavior::Bias { p: 0.62 } };
        seq.push(Node::Site(Site::new(a.pc(), b)));
    }
    Node::Seq(seq)
}

/// A large dispatch footprint: `pool` biased sites, `per_visit` executed
/// per round (SERVER pressure).
fn dispatch(a: &mut PcAlloc, pool: usize, per_visit: usize, p_load: f64, rng: &mut Xoshiro256) -> Node {
    let sites: Vec<Site> = (0..pool)
        .map(|_| {
            // Server code is mostly strongly biased: p in [0.85, 1.0),
            // skewed toward the top.
            let r = rng.next_f64();
            let p = 1.0 - 0.08 * r * r;
            let p = if rng.gen_bool(0.5) { p } else { 1.0 - p };
            Site::new(a.pc(), Behavior::Bias { p }).load(p_load)
        })
        .collect();
    Node::Select { sites, per_visit }
}

/// A call/return pair around nothing — feeds path history.
fn call_ret(a: &mut PcAlloc) -> [Node; 2] {
    let c = a.pc();
    let r = a.pc();
    [
        Node::Uncond { pc: c, kind: BranchKind::Call, target: r },
        Node::Uncond { pc: r, kind: BranchKind::Return, target: c + 8 },
    ]
}

// ---------------------------------------------------------------------
// The 40 recipes
// ---------------------------------------------------------------------

fn build(cat: Category, idx: u32, scale: Scale) -> TraceSpec {
    let seed = trace_seed(cat, idx);
    let mut rng = Xoshiro256::seed_from(seed ^ 0xA5A5_5A5A);
    let mut a = PcAlloc::new(0x40_0000 + u64::from(idx) * 0x10_0000);
    let name = format!("{}{:02}", cat.as_str(), idx);
    let hard = HARD_TRACES.contains(&name.as_str());

    let (root, loads) = match (cat, idx) {
        // ----- CLIENT ---------------------------------------------------
        (Category::Client, 1) => {
            // Easy: regular nested loops and short quiet patterns.
            let mut seq = vec![
                regular_loop(&mut a, 8, &mut rng),
                quiet_pattern(&mut a, 6, &mut rng),
                regular_loop(&mut a, 12, &mut rng),
                quiet_pattern(&mut a, 12, &mut rng),
            ];
            seq.extend(call_ret(&mut a));
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Client, 2) => {
            // HARD: the Figure 9 capacity cliff. Two huge-period repetitive
            // branches dominate the stream; only multi-megabit predictors
            // can memorize the periods.
            let h1 = Site::new(a.pc(), Behavior::huge_periodic(6000, seed ^ 1)).load(0.3);
            let h2 = Site::new(a.pc(), Behavior::huge_periodic(9000, seed ^ 2)).load(0.3);
            // A nearly-silent companion: the huge periods themselves are
            // the only real history content, so the (branch, window)
            // context count stays ≈ the period sum — learnable once the
            // predictor grows into the megabit range (the Figure 9 cliff).
            let seq = vec![
                Node::Site(h1),
                Node::Site(h2),
                Node::Site(Site::new(a.pc(), Behavior::Bias { p: 0.995 })),
            ];
            (Node::Seq(seq), LoadModel::cold(0.25, 1 << 17))
        }
        (Category::Client, 3) => {
            // Local patterns in noise (LSC benefit), moderate rate.
            let seq = vec![
                pattern_in_noise(&mut a, 17, 3, &mut rng),
                pattern_in_noise(&mut a, 23, 3, &mut rng),
                bias_field(&mut a, 4, 0.85, 0.97, 0.05, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Client, 4) => {
            // Tight loops + phase-flipping hot branches: delayed-update /
            // IUM stress (paper: >10% gap without IUM on CLIENT04/06).
            let seq = vec![
                hot_phased(&mut a, 0.97, 100, 8),
                tight_loop(&mut a, 3),
                hot_phased(&mut a, 0.96, 140, 8),
                quiet_pattern(&mut a, 9, &mut rng),
                tight_loop(&mut a, 5),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Client, 5) => {
            // Loop-predictor showcase: constant trips, noisy bodies.
            let seq = vec![
                noisy_const_loop(&mut a, 21, 2),
                noisy_const_loop(&mut a, 33, 3),
                bias_field(&mut a, 4, 0.88, 0.98, 0.05, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Client, 6) => {
            // Second delayed-update-sensitive client trace.
            let seq = vec![
                hot_phased(&mut a, 0.97, 80, 8),
                tight_loop(&mut a, 3),
                quiet_pattern(&mut a, 8, &mut rng),
                hot_phased(&mut a, 0.95, 180, 8),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Client, 7) => {
            // Easy: quiet patterns of growing period (the longest ones
            // only fit in scaled-up predictors — Figure 9 slope).
            let seq = vec![
                quiet_pattern(&mut a, 10, &mut rng),
                quiet_pattern(&mut a, 40, &mut rng),
                quiet_pattern(&mut a, 350, &mut rng),
                regular_loop(&mut a, 16, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Client, _) => {
            // Mixed easy/moderate.
            let seq = vec![
                regular_loop(&mut a, 24, &mut rng),
                bias_field(&mut a, 6, 0.85, 0.97, 0.08, &mut rng),
                pattern_block(&mut a, 40, 180, &mut rng),
                quiet_pattern(&mut a, 14, &mut rng),
                hot_phased(&mut a, 0.96, 500, 3),
            ];
            (Node::Seq(seq), LoadModel::default())
        }

        // ----- INT ------------------------------------------------------
        (Category::Int, 1) => {
            // HARD: sparse correlations in noise — neural predictors learn
            // these through the noise, tables cannot.
            let seq = vec![
                sparse_corr_field(&mut a, &[11, 19, 27], 4, 0.06),
                bias_field(&mut a, 2, 0.62, 0.72, 0.3, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::cold(0.3, 1 << 17))
        }
        (Category::Int, 2) => {
            // HARD: weak bias + irregular loops; high floor for everyone.
            let seq = vec![
                bias_field(&mut a, 4, 0.58, 0.68, 0.35, &mut rng),
                irregular_loop(&mut a, 2, 14, 1),
                Node::Site(Site::new(a.pc(), Behavior::Random).load(0.35)),
                irregular_loop(&mut a, 3, 11, 0),
                quiet_pattern(&mut a, 7, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::cold(0.35, 1 << 18))
        }
        (Category::Int, 3) => {
            let seq = vec![
                quiet_pattern(&mut a, 24, &mut rng),
                pattern_block(&mut a, 80, 300, &mut rng),
                regular_loop(&mut a, 10, &mut rng),
                bias_field(&mut a, 5, 0.85, 0.97, 0.05, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Int, 4) => {
            let mut seq = vec![regular_loop(&mut a, 6, &mut rng)];
            seq.push(Node::Loop {
                site: Site::new(a.pc(), Behavior::Random),
                trip: Trip::Fixed(9),
                body: Box::new(regular_loop(&mut a, 5, &mut rng)),
            });
            seq.extend(call_ret(&mut a));
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Int, 5) => {
            // Moderate LSC target.
            let seq = vec![
                pattern_in_noise(&mut a, 13, 2, &mut rng),
                pattern_in_noise(&mut a, 19, 2, &mut rng),
                quiet_pattern(&mut a, 7, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Int, 6) => {
            // Loop-predictor target.
            let seq = vec![
                noisy_const_loop(&mut a, 48, 2),
                bias_field(&mut a, 4, 0.9, 0.98, 0.05, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Int, 7) => {
            // Long-period quiet patterns: long-history TAGE advantage and
            // capacity sensitivity (the windows repeat, but the working
            // set of (branch, window) pairs exceeds small predictors).
            let seq = vec![
                quiet_pattern(&mut a, 600, &mut rng),
                quiet_pattern(&mut a, 120, &mut rng),
                quiet_pattern(&mut a, 60, &mut rng),
                regular_loop(&mut a, 18, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Int, _) => {
            let seq = vec![
                bias_field(&mut a, 8, 0.88, 0.99, 0.05, &mut rng),
                quiet_pattern(&mut a, 9, &mut rng),
                hot_phased(&mut a, 0.97, 250, 4),
            ];
            (Node::Seq(seq), LoadModel::default())
        }

        // ----- MM -------------------------------------------------------
        (Category::Mm, 1) => {
            let seq = vec![
                regular_loop(&mut a, 16, &mut rng),
                regular_loop(&mut a, 8, &mut rng),
                quiet_pattern(&mut a, 9, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Mm, 2) => {
            let seq = vec![noisy_const_loop(&mut a, 64, 1), regular_loop(&mut a, 32, &mut rng)];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Mm, 3) => {
            let seq = vec![
                quiet_pattern(&mut a, 5, &mut rng),
                quiet_pattern(&mut a, 15, &mut rng),
                regular_loop(&mut a, 12, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Mm, 4) => {
            let seq = vec![
                tight_loop(&mut a, 8),
                hot_phased(&mut a, 0.97, 250, 8),
                regular_loop(&mut a, 20, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Mm, 5) => {
            // HARD: data-dependent statistical bias (SC target) + noise.
            let seq = vec![
                bias_field(&mut a, 6, 0.6, 0.74, 0.3, &mut rng),
                irregular_loop(&mut a, 2, 9, 0),
                quiet_pattern(&mut a, 6, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::cold(0.3, 1 << 17))
        }
        (Category::Mm, 6) => {
            let seq = vec![
                quiet_pattern(&mut a, 500, &mut rng),
                quiet_pattern(&mut a, 200, &mut rng),
                regular_loop(&mut a, 25, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Mm, 7) => {
            // HARD: local periodic patterns drowned in noise — the LSC
            // showcase (§6).
            let seq = vec![
                pattern_in_noise(&mut a, 24, 4, &mut rng),
                pattern_in_noise(&mut a, 31, 4, &mut rng),
                bias_field(&mut a, 2, 0.62, 0.72, 0.3, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::cold(0.25, 1 << 16))
        }
        (Category::Mm, _) => {
            let seq = vec![
                regular_loop(&mut a, 40, &mut rng),
                pattern_block(&mut a, 44, 200, &mut rng),
                quiet_pattern(&mut a, 11, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }

        // ----- SERVER ---------------------------------------------------
        (Category::Server, i) => {
            // Large static footprints of biased branches + cold data.
            let pool = 350 + 200 * i as usize;
            let mut seq = vec![dispatch(&mut a, pool, 16, 0.2, &mut rng)];
            if i % 2 == 0 {
                seq.push(pattern_block(&mut a, 24 + 2 * i as usize, 140, &mut rng));
            }
            if i % 3 == 0 {
                seq.push(noisy_const_loop(&mut a, 12 + 4 * i, 1));
            }
            seq.extend(call_ret(&mut a));
            (Node::Seq(seq), LoadModel::cold(0.2, 1 << 17))
        }

        // ----- WS -------------------------------------------------------
        (Category::Ws, 1) => {
            let seq = vec![
                quiet_pattern(&mut a, 13, &mut rng),
                regular_loop(&mut a, 14, &mut rng),
                bias_field(&mut a, 4, 0.9, 0.99, 0.05, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Ws, 2) => {
            let seq = vec![
                regular_loop(&mut a, 30, &mut rng),
                quiet_pattern(&mut a, 22, &mut rng),
                quiet_pattern(&mut a, 420, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Ws, 3) => {
            // HARD: neural-friendly sparse correlations + noise.
            let seq = vec![
                sparse_corr_field(&mut a, &[7, 15], 4, 0.1),
                bias_field(&mut a, 2, 0.6, 0.7, 0.3, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::cold(0.3, 1 << 17))
        }
        (Category::Ws, 4) => {
            // HARD: irregular loops + weak bias.
            let seq = vec![
                irregular_loop(&mut a, 3, 28, 2),
                bias_field(&mut a, 4, 0.58, 0.7, 0.3, &mut rng),
                irregular_loop(&mut a, 2, 12, 0),
            ];
            (Node::Seq(seq), LoadModel::cold(0.3, 1 << 18))
        }
        (Category::Ws, 5) => {
            let seq = vec![
                pattern_in_noise(&mut a, 21, 3, &mut rng),
                quiet_pattern(&mut a, 16, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Ws, 6) => {
            let seq = vec![
                noisy_const_loop(&mut a, 27, 2),
                bias_field(&mut a, 4, 0.88, 0.98, 0.08, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Ws, 7) => {
            let seq = vec![
                quiet_pattern(&mut a, 18, &mut rng),
                pattern_block(&mut a, 36, 160, &mut rng),
                irregular_loop(&mut a, 5, 11, 1),
                bias_field(&mut a, 4, 0.85, 0.96, 0.1, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
        (Category::Ws, _) => {
            let seq = vec![
                bias_field(&mut a, 6, 0.88, 0.98, 0.08, &mut rng),
                quiet_pattern(&mut a, 26, &mut rng),
                hot_phased(&mut a, 0.96, 350, 5),
                regular_loop(&mut a, 9, &mut rng),
            ];
            (Node::Seq(seq), LoadModel::default())
        }
    };

    // CLIENT02 runs 3x longer: its huge-period branches need enough
    // repetitions for multi-megabit predictors to memorize them (the CBP-3
    // traces were similarly not all the same length).
    let budget_factor = if name == "CLIENT02" { 3 } else { 1 };
    TraceSpec {
        name: name.clone(),
        category: cat,
        hard,
        program: Program { name, category: cat.as_str().to_string(), seed, root, loads },
        budget: scale.branches() * budget_factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_40_unique_traces() {
        let specs = suite(Scale::Tiny);
        assert_eq!(specs.len(), 40);
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 40);
    }

    #[test]
    fn hard_flags_match_constant() {
        let specs = suite(Scale::Tiny);
        let hard: Vec<&str> =
            specs.iter().filter(|s| s.hard).map(|s| s.name.as_str()).collect();
        assert_eq!(hard.len(), 7);
        for h in HARD_TRACES {
            assert!(hard.contains(&h), "missing hard trace {h}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = by_name("MM05", Scale::Tiny).unwrap().generate();
        let b = by_name("MM05", Scale::Tiny).unwrap().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn budgets_respect_scale() {
        let t = by_name("WS01", Scale::Tiny).unwrap().generate();
        assert_eq!(t.conditional_count(), Scale::Tiny.branches() as u64);
    }

    #[test]
    fn by_name_rejects_unknown() {
        assert!(by_name("NOPE01", Scale::Tiny).is_none());
        assert!(by_name("CLIENT09", Scale::Tiny).is_none());
        assert!(by_name("CLIENT00", Scale::Tiny).is_none());
    }

    #[test]
    fn server_traces_have_large_footprints() {
        let t = by_name("SERVER08", Scale::Tiny).unwrap().generate();
        // Pool of 350 + 200*8 = 1950 sites; at Tiny scale most are visited.
        assert!(
            t.static_conditional_count() > 1000,
            "footprint {}",
            t.static_conditional_count()
        );
    }

    #[test]
    fn hard_traces_have_load_dependences() {
        let t = by_name("INT02", Scale::Tiny).unwrap().generate();
        let with_loads = t.events.iter().filter(|e| e.load_addr.is_some()).count();
        assert!(with_loads > t.events.len() / 20);
    }

    #[test]
    fn taken_rate_reasonable() {
        // Typical programs are taken-biased or near half; our synthetic mix
        // should land in a broad sane band.
        let t = by_name("INT04", Scale::Tiny).unwrap().generate();
        let conditionals = t.events.iter().filter(|e| e.kind.is_conditional());
        let taken = conditionals.clone().filter(|e| e.taken).count();
        let rate = taken as f64 / conditionals.count() as f64;
        assert!((0.3..=0.95).contains(&rate), "taken rate {rate}");
    }

    #[test]
    fn scale_parse_round_trips() {
        for (s, v) in [
            ("tiny", Scale::Tiny),
            ("small", Scale::Small),
            ("default", Scale::Default),
            ("full", Scale::Full),
        ] {
            assert_eq!(Scale::parse(s), Some(v));
            assert_eq!(Scale::parse(v.as_str()), Some(v));
            assert_eq!(v.to_string(), s);
        }
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn spec_stream_matches_generate() {
        let spec = by_name("CLIENT02", Scale::Tiny).unwrap();
        use crate::event::EventSource;
        assert_eq!(spec.stream().collect_trace(), spec.generate());
    }

    #[test]
    fn categories_display() {
        assert_eq!(Category::Client.to_string(), "CLIENT");
        assert_eq!(Category::ALL.len(), 5);
    }

    #[test]
    fn call_ret_events_present_in_client01() {
        let t = by_name("CLIENT01", Scale::Tiny).unwrap().generate();
        assert!(t.events.iter().any(|e| e.kind == BranchKind::Call));
        assert!(t.events.iter().any(|e| e.kind == BranchKind::Return));
    }
}
