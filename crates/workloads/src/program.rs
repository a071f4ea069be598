//! Synthetic program model: a small control-flow tree whose execution emits
//! a branch trace.
//!
//! A [`Program`] is a tree of [`Node`]s executed repeatedly until the
//! requested number of conditional branches has been emitted. The tree
//! gives precise control over the *structure* around each branch — how
//! noisy a loop body is, how quickly a loop branch re-occurs (in-flight
//! pressure), how many static branches compete for predictor entries.

use crate::behavior::{Behavior, GenCtx};
use crate::event::{EventSource, Trace, TraceEvent};
use simkit::predictor::BranchKind;
use std::collections::VecDeque;

/// A static conditional branch site.
#[derive(Clone, Debug)]
pub struct Site {
    /// Instruction address (unique per site).
    pub pc: u64,
    /// Outcome model.
    pub behavior: Behavior,
    /// Average non-branch micro-ops preceding this branch.
    pub uops: u8,
    /// Probability that an execution of this branch depends on a load
    /// (whose address comes from the program's [`LoadModel`]).
    pub p_load: f64,
}

impl Site {
    /// A site with default micro-op padding (5) and no load dependence.
    pub fn new(pc: u64, behavior: Behavior) -> Self {
        Self { pc, behavior, uops: 5, p_load: 0.0 }
    }

    /// Sets the micro-op padding.
    pub fn uops(mut self, uops: u8) -> Self {
        self.uops = uops;
        self
    }

    /// Sets the load-dependence probability.
    pub fn load(mut self, p: f64) -> Self {
        self.p_load = p;
        self
    }
}

/// Loop trip-count model.
#[derive(Clone, Copy, Debug)]
pub enum Trip {
    /// Always exactly `n` iterations — the regular loops the loop predictor
    /// (§5.2) captures with high confidence.
    Fixed(u32),
    /// Uniform in `[lo, hi]` — irregular loops the loop predictor refuses.
    Uniform(u32, u32),
}

impl Trip {
    fn draw(self, ctx: &mut GenCtx) -> u32 {
        match self {
            Trip::Fixed(n) => n.max(1),
            Trip::Uniform(lo, hi) => {
                let (lo, hi) = (lo.max(1), hi.max(1));
                if hi <= lo {
                    lo
                } else {
                    lo + ctx.rng.gen_range(u64::from(hi - lo + 1)) as u32
                }
            }
        }
    }
}

/// A control-flow tree node.
#[derive(Clone, Debug)]
pub enum Node {
    /// Execute children in order.
    Seq(Vec<Node>),
    /// Execute one conditional branch site.
    Site(Site),
    /// A bottom-tested loop: execute `body`, then the loop branch
    /// (taken = continue) `trip` times per entry. The loop-exit
    /// not-taken occurs once per loop execution.
    Loop {
        /// The backward conditional branch.
        site: Site,
        /// Iteration count model.
        trip: Trip,
        /// Loop body (may be empty `Seq`).
        body: Box<Node>,
    },
    /// A dispatch region: each visit executes `per_visit` sites drawn
    /// at random from a large pool — models switch/indirect-call-heavy
    /// code with a large static footprint.
    Select {
        /// The site pool.
        sites: Vec<Site>,
        /// Sites executed per visit.
        per_visit: usize,
    },
    /// An unconditional control transfer (call/return/jump) — not
    /// predicted, but visible to path history.
    Uncond {
        /// Instruction address.
        pc: u64,
        /// Kind (`DirectJump`, `Call`, `Return`, `IndirectJump`).
        kind: BranchKind,
        /// Target address.
        target: u64,
    },
}

/// Model of the load addresses branch conditions depend on: a small hot
/// set (cache-resident) and a large cold set (misses), mixed by `p_cold`.
#[derive(Clone, Copy, Debug)]
pub struct LoadModel {
    /// Number of distinct hot 64-byte lines.
    pub hot_lines: u64,
    /// Number of distinct cold lines.
    pub cold_lines: u64,
    /// Probability a load goes to the cold set.
    pub p_cold: f64,
    /// Base address of the data region.
    pub base: u64,
}

impl Default for LoadModel {
    fn default() -> Self {
        // Mostly cache-friendly: a few KB of hot data, rare cold misses.
        Self { hot_lines: 64, cold_lines: 1 << 16, p_cold: 0.02, base: 0x10_0000_0000 }
    }
}

impl LoadModel {
    /// A memory-hostile model (server-like): large hot set, frequent cold
    /// accesses — drives up the average misprediction penalty.
    pub fn cold(p_cold: f64, cold_lines: u64) -> Self {
        Self { hot_lines: 1 << 12, cold_lines, p_cold, base: 0x10_0000_0000 }
    }

    fn sample(&self, ctx: &mut GenCtx) -> u64 {
        let line = if ctx.rng.gen_bool(self.p_cold) {
            self.hot_lines + ctx.rng.gen_range(self.cold_lines.max(1))
        } else {
            ctx.rng.gen_range(self.hot_lines.max(1))
        };
        self.base + line * 64
    }
}

/// A complete synthetic program.
#[derive(Clone, Debug)]
pub struct Program {
    /// Trace name (e.g. `"CLIENT02"`).
    pub name: String,
    /// Category (e.g. `"CLIENT"`).
    pub category: String,
    /// RNG seed: the same seed always regenerates the same trace.
    pub seed: u64,
    /// Control-flow tree executed repeatedly.
    pub root: Node,
    /// Load address model for branch-dependent loads.
    pub loads: LoadModel,
}

struct Emitter {
    events: Vec<TraceEvent>,
    conditionals: usize,
    budget: usize,
    loads: LoadModel,
}

impl Emitter {
    fn full(&self) -> bool {
        self.conditionals >= self.budget
    }

    fn emit_site(&mut self, site: &mut Site, ctx: &mut GenCtx) {
        let taken = site.behavior.next(ctx);
        self.emit_site_with(site, taken, ctx);
        ctx.push_outcome(taken);
    }

    fn emit_site_with(&mut self, site: &Site, taken: bool, ctx: &mut GenCtx) {
        let jitter = ctx.rng.gen_range(3) as u16;
        let load_addr = if site.p_load > 0.0 && ctx.rng.gen_bool(site.p_load) {
            Some(self.loads.sample(ctx))
        } else {
            None
        };
        self.events.push(TraceEvent {
            pc: site.pc,
            kind: BranchKind::Conditional,
            taken,
            target: site.pc.wrapping_add(if taken { 0x40 } else { 8 }),
            uops_before: u16::from(site.uops) + jitter,
            load_addr,
        });
        self.conditionals += 1;
    }

    fn emit_uncond(&mut self, pc: u64, kind: BranchKind, target: u64) {
        self.events.push(TraceEvent {
            pc,
            kind,
            taken: true,
            target,
            uops_before: 2,
            load_addr: None,
        });
    }
}

fn exec(node: &mut Node, ctx: &mut GenCtx, em: &mut Emitter) {
    if em.full() {
        return;
    }
    match node {
        Node::Seq(children) => {
            for c in children {
                exec(c, ctx, em);
                if em.full() {
                    return;
                }
            }
        }
        Node::Site(site) => em.emit_site(site, ctx),
        Node::Loop { site, trip, body } => {
            let n = trip.draw(ctx);
            for i in 1..=n {
                exec(body, ctx, em);
                if em.full() {
                    return;
                }
                // Bottom-tested: taken = continue looping.
                let taken = i != n;
                em.emit_site_with(site, taken, ctx);
                ctx.push_outcome(taken);
            }
        }
        Node::Select { sites, per_visit } => {
            for _ in 0..*per_visit {
                if em.full() {
                    return;
                }
                let i = ctx.rng.gen_range(sites.len() as u64) as usize;
                em.emit_site(&mut sites[i], ctx);
            }
        }
        Node::Uncond { pc, kind, target } => em.emit_uncond(*pc, *kind, *target),
    }
}

impl Program {
    /// Executes the program until `budget` conditional branches have been
    /// emitted, returning the materialized trace.
    ///
    /// The same `Program` (same seed) always produces the same trace, and
    /// this is exactly [`Program::stream`] collected — the two paths are
    /// bit-identical by construction.
    pub fn generate(&self, budget: usize) -> Trace {
        self.stream(budget).collect_trace()
    }

    /// Lazily executes the program as an [`EventSource`], holding only one
    /// control-flow-tree pass of events in memory at a time instead of the
    /// whole trace.
    pub fn stream(&self, budget: usize) -> ProgramStream {
        ProgramStream {
            name: self.name.clone(),
            category: self.category.clone(),
            root: self.root.clone(),
            ctx: GenCtx::new(self.seed),
            loads: self.loads,
            budget,
            conditionals: 0,
            buf: VecDeque::new(),
        }
    }
}

/// A lazily generated program execution: events are produced one
/// control-flow-tree pass at a time, so memory stays proportional to the
/// tree (not the conditional-branch budget). Produced by
/// [`Program::stream`].
#[derive(Clone, Debug)]
pub struct ProgramStream {
    name: String,
    category: String,
    root: Node,
    ctx: GenCtx,
    loads: LoadModel,
    budget: usize,
    conditionals: usize,
    buf: VecDeque<TraceEvent>,
}

impl ProgramStream {
    /// Runs one pass over the control-flow tree, buffering its events.
    /// Mirrors the generation loop: the tree state (pattern positions,
    /// phase counters) and the RNG persist across passes.
    fn refill(&mut self) {
        let mut em = Emitter {
            events: Vec::new(),
            conditionals: self.conditionals,
            budget: self.budget,
            loads: self.loads,
        };
        exec(&mut self.root, &mut self.ctx, &mut em);
        self.conditionals = em.conditionals;
        self.buf = em.events.into();
    }
}

impl EventSource for ProgramStream {
    fn name(&self) -> &str {
        &self.name
    }

    fn category(&self) -> &str {
        &self.category
    }

    fn next_event(&mut self) -> Option<TraceEvent> {
        while self.buf.is_empty() {
            if self.conditionals >= self.budget {
                return None;
            }
            let before = self.conditionals;
            self.refill();
            if self.buf.is_empty() && self.conditionals == before {
                // A tree that emits nothing can never fill the budget;
                // end the stream instead of spinning.
                return None;
            }
        }
        self.buf.pop_front()
    }
}

impl Iterator for ProgramStream {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        self.next_event()
    }
}

/// Allocates distinct, realistically spaced branch PCs.
#[derive(Clone, Debug)]
pub struct PcAlloc {
    next: u64,
}

impl PcAlloc {
    /// Starts allocating at `base`.
    pub fn new(base: u64) -> Self {
        Self { next: base }
    }

    /// Returns a fresh branch PC.
    pub fn pc(&mut self) -> u64 {
        let pc = self.next;
        // Space sites 12–36 bytes apart like straight-line code.
        self.next += 12 + (pc >> 4) % 24;
        pc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(root: Node) -> Program {
        Program {
            name: "test".into(),
            category: "TEST".into(),
            seed: 42,
            root,
            loads: LoadModel::default(),
        }
    }

    #[test]
    fn generates_exact_budget() {
        let p = prog(Node::Site(Site::new(0x100, Behavior::Random)));
        let t = p.generate(500);
        assert_eq!(t.conditional_count(), 500);
    }

    #[test]
    fn deterministic_generation() {
        let p = prog(Node::Seq(vec![
            Node::Site(Site::new(0x100, Behavior::Bias { p: 0.7 })),
            Node::Site(Site::new(0x140, Behavior::Random)),
        ]));
        assert_eq!(p.generate(1000), p.generate(1000));
    }

    #[test]
    fn fixed_loop_emits_constant_trip() {
        let p = prog(Node::Loop {
            site: Site::new(0x200, Behavior::Random),
            trip: Trip::Fixed(5),
            body: Box::new(Node::Seq(vec![])),
        });
        let t = p.generate(50);
        // Pattern: 4 taken then 1 not-taken, repeated.
        for chunk in t.events.chunks(5) {
            if chunk.len() == 5 {
                assert_eq!(
                    chunk.iter().map(|e| e.taken).collect::<Vec<_>>(),
                    [true, true, true, true, false]
                );
            }
        }
    }

    #[test]
    fn uniform_trip_varies() {
        let p = prog(Node::Loop {
            site: Site::new(0x200, Behavior::Random),
            trip: Trip::Uniform(2, 9),
            body: Box::new(Node::Seq(vec![])),
        });
        let t = p.generate(2000);
        // Count run lengths of taken+1.
        let mut lens = std::collections::HashSet::new();
        let mut run = 0;
        for e in &t.events {
            run += 1;
            if !e.taken {
                lens.insert(run);
                run = 0;
            }
        }
        assert!(lens.len() >= 4, "trip counts observed: {lens:?}");
    }

    #[test]
    fn select_covers_footprint() {
        let mut alloc = PcAlloc::new(0x40_0000);
        let sites: Vec<Site> =
            (0..256).map(|_| Site::new(alloc.pc(), Behavior::Bias { p: 0.8 })).collect();
        let p = prog(Node::Select { sites, per_visit: 16 });
        let t = p.generate(4000);
        assert!(t.static_conditional_count() > 200, "footprint {}", t.static_conditional_count());
    }

    #[test]
    fn uncond_events_present() {
        let p = prog(Node::Seq(vec![
            Node::Site(Site::new(0x100, Behavior::Random)),
            Node::Uncond { pc: 0x110, kind: BranchKind::Call, target: 0x8000 },
        ]));
        let t = p.generate(10);
        assert!(t.events.iter().any(|e| e.kind == BranchKind::Call));
    }

    #[test]
    fn load_probability_respected() {
        let site = Site::new(0x100, Behavior::Random).load(1.0);
        let p = prog(Node::Site(site));
        let t = p.generate(100);
        assert!(t.events.iter().all(|e| e.load_addr.is_some()));
    }

    #[test]
    fn stream_is_bit_identical_to_generate() {
        // Cover every node kind: loops, select, uncond, plain sites.
        let mut alloc = PcAlloc::new(0x50_0000);
        let sites: Vec<Site> =
            (0..32).map(|_| Site::new(alloc.pc(), Behavior::Bias { p: 0.9 })).collect();
        let p = prog(Node::Seq(vec![
            Node::Site(Site::new(0x100, Behavior::Bias { p: 0.7 }).load(0.5)),
            Node::Loop {
                site: Site::new(0x200, Behavior::Random),
                trip: Trip::Uniform(2, 9),
                body: Box::new(Node::Site(Site::new(0x240, Behavior::Random))),
            },
            Node::Select { sites, per_visit: 4 },
            Node::Uncond { pc: 0x300, kind: BranchKind::Call, target: 0x8000 },
        ]));
        let materialized = p.generate(3000);
        let streamed: Vec<TraceEvent> = p.stream(3000).collect();
        assert_eq!(streamed, materialized.events);
    }

    #[test]
    fn stream_metadata_and_exhaustion() {
        let p = prog(Node::Site(Site::new(0x100, Behavior::Random)));
        let mut s = p.stream(10);
        assert_eq!(s.name(), "test");
        assert_eq!(s.category(), "TEST");
        let n = s.by_ref().count();
        assert_eq!(n, 10);
        assert_eq!(s.next_event(), None);
    }

    #[test]
    fn empty_tree_stream_terminates() {
        let p = prog(Node::Seq(vec![]));
        assert_eq!(p.stream(5).count(), 0);
    }

    #[test]
    fn pc_alloc_unique() {
        let mut a = PcAlloc::new(0x1000);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(a.pc()));
        }
    }
}
