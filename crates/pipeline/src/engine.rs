//! The in-flight window engine: delayed execute/retire and the §4.1.2
//! update scenarios.
//!
//! Every conditional branch is predicted at fetch, extends the speculative
//! history immediately (exact on the correct path, §5.1), *executes* after
//! its resolution lag (when the IUM learns its outcome) and *retires* — in
//! program order — [`RETIRE_LAG`] branches later, at which point the
//! predictor tables are updated according to the chosen scenario.
//!
//! There is one simulation route: a [`WindowEngine`] (predictor plus
//! window, behind the object-safe [`BlockSim`]) fed block by block by a
//! [`ChunkDriver`]. [`simulate_engine`] runs a driver to the end of its
//! source.

use crate::core_model::{mispredict_penalty, CoreModel, MAX_EXEC_LAG};
use crate::report::{BranchProfile, BranchStat, SimReport};
use simkit::predictor::{Predictor, UpdateScenario};
use simkit::stats::AccessStats;
use std::collections::{HashMap, VecDeque};
use workloads::event::{EventBlock, EventSource, TraceEvent};

/// Events pulled from a source per block. Big enough to amortize the
/// per-block virtual calls to nothing, small enough that the reusable
/// [`EventBlock`] stays cache-resident (~160 KiB of events).
pub const DEFAULT_BATCH: usize = 4096;

/// Branches fetched between a branch's fetch and its in-order retire.
pub const RETIRE_LAG: usize = 32;

// A branch retires `RETIRE_LAG` fetches after its own, so it must have
// executed by then, whatever its execute lag.
const _: () = assert!(MAX_EXEC_LAG < RETIRE_LAG);

/// Buckets of the execute wheel: longer than the longest execute lag, so
/// due times within reach never share a bucket.
const WHEEL: usize = (MAX_EXEC_LAG + 1).next_power_of_two();

/// Warmup/measure windows over the event stream (sampled simulation).
/// Positions count *trace events* — conditional or not — from the
/// source's current position, matching [`EventSource::skip`] units and
/// the `.ttr` per-block event counts. A prefix is skipped on the source
/// itself, with [`EventSource::skip`], before the engine sees an event.
///
/// * the first `warmup` events train the predictor (the full
///   predict/update path through the in-flight window) but score
///   nothing;
/// * the next `measure` events train *and* count; everything after is
///   fast-forwarded (the drivers stop pulling events once the window is
///   spent).
///
/// [`AccessStats`] are reset at the first measured event, so table
/// traffic counts over the same window as `conditionals` and
/// `mispredicts`: the paper divides accesses by measured branches
/// (§4.2's accesses per retired branch). Warm-up branches still in
/// flight at that event retire inside the window, and their retire
/// traffic counts. A stream that ends before the measured window begins
/// reports no traffic.
///
/// The default (`warmup = 0`, `measure = u64::MAX`) runs the identical
/// arithmetic path as the unwindowed engine, so its reports are
/// bit-identical to the pre-window goldens.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SimWindow {
    /// Events that train the predictor without scoring.
    pub warmup: u64,
    /// Events that are scored (`u64::MAX` = to the end of the trace).
    pub measure: u64,
}

impl Default for SimWindow {
    fn default() -> Self {
        Self { warmup: 0, measure: u64::MAX }
    }
}

/// What a simulation's caller chooses; the modelled core itself is fixed
/// ([`crate::core_model`], [`RETIRE_LAG`]). Every field can change a
/// report, so the suite scheduler keys its memo cache on the
/// configuration itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    /// Collect per-static-branch counters ([`BranchProfile`]) during
    /// simulation. Off by default: the collector never perturbs prediction
    /// (it only observes outcomes already computed), so reports with it on
    /// match the aggregate counters of reports with it off bit-for-bit.
    pub branch_stats: bool,
    /// Warmup/measure windowing over the event stream. The default
    /// measures every event.
    pub window: SimWindow,
}

struct Inflight<F> {
    branch: simkit::BranchInfo,
    outcome: bool,
    predicted: bool,
    flight: F,
    retire_at: usize,
    executed: bool,
}

/// The in-flight window plus the accumulated counters of one simulation.
/// [`WindowEngine::run_block`] is the only caller of its per-event body,
/// [`WindowState::step`].
struct WindowState<F> {
    // INVARIANT: `base` is the sequence number of `window.front()`, and
    // bucket `i % WHEEL` of `exec_wheel` holds, in program order, the
    // sequence numbers of the not-yet-executed window entries due at
    // fetch index `i` — `step` maintains both with every push/pop.
    window: VecDeque<Inflight<F>>,
    exec_wheel: [Vec<usize>; WHEEL],
    base: usize,
    fetch_index: usize,
    core: CoreModel,
    scenario: UpdateScenario,
    immediate: bool,
    mispredicts: u64,
    penalty: u64,
    uops: u64,
    conditionals: u64,
    // Sampled-simulation bounds (`PipelineConfig::window`), precomputed
    // as event positions: [0, measure_start) trains without counting,
    // [measure_start, window_end) trains and counts.
    position: u64,
    measure_start: u64,
    window_end: u64,
    // Whether the predictor's access counters still await their reset at
    // `measure_start`. False when measuring starts at event 0: the engine
    // hands `step` a predictor whose counters are already clear.
    stats_reset_pending: bool,
    // Opt-in per-static-branch accumulators (`PipelineConfig::branch_stats`).
    // `None` on the default path, so the only cost when off is one branch
    // per conditional; collection reads only values `step` already
    // computed, so it can never perturb prediction.
    profile: Option<HashMap<u64, BranchStat>>,
}

impl<F> WindowState<F> {
    fn new(scenario: UpdateScenario, cfg: &PipelineConfig) -> Self {
        let SimWindow { warmup, measure } = cfg.window;
        Self {
            window: VecDeque::with_capacity(RETIRE_LAG + 64),
            exec_wheel: std::array::from_fn(|_| Vec::new()),
            base: 0,
            fetch_index: 0,
            core: CoreModel::new(),
            scenario,
            immediate: scenario == UpdateScenario::Immediate,
            mispredicts: 0,
            penalty: 0,
            uops: 0,
            conditionals: 0,
            position: 0,
            measure_start: warmup,
            window_end: warmup.saturating_add(measure),
            stats_reset_pending: warmup > 0,
            profile: cfg.branch_stats.then(HashMap::new),
        }
    }

    /// How many of the next `len` events run before the access counters
    /// are reset at `measure_start`: all of them unless that reset is
    /// pending and falls among them.
    fn events_before_reset(&self, len: usize) -> usize {
        if !self.stats_reset_pending {
            return len;
        }
        // INVARIANT: `run_block` resets at `measure_start`, so `position`
        // cannot pass it while the reset is pending.
        let warm = self.measure_start - self.position;
        usize::try_from(warm).map_or(len, |warm| warm.min(len))
    }

    /// Whether the measurement window is spent: every further event would
    /// be fast-forwarded, so drivers may stop pulling from the source.
    /// Never true for the default full-trace window.
    fn complete(&self) -> bool {
        self.position >= self.window_end
    }

    /// Advances the simulation by exactly one trace event: *the* per-event
    /// body. Block boundaries never reach it, so the same events fed in
    /// any slicing produce the same predict/execute/retire sequence.
    #[inline]
    fn step<P: Predictor<Flight = F>>(&mut self, predictor: &mut P, ev: &TraceEvent) {
        // Window gating. The default full-trace window resolves to
        // `measuring = true` on every event, taking the identical
        // arithmetic path as the pre-window engine (golden bit-identity).
        let pos = self.position;
        self.position += 1;
        if pos >= self.window_end {
            // Fast-forward: events past the window never touch the
            // predictor, the core model, or any counter — exactly as if
            // the source had been cut after them.
            return;
        }
        let measuring = pos >= self.measure_start;
        if measuring {
            self.uops += ev.uops();
        }
        let b = ev.branch_info();
        if !b.kind.is_conditional() {
            // Non-conditional events do not occupy a fetch slot:
            // `fetch_index` counts conditionals only.
            predictor.note_uncond(&b);
            return;
        }
        if measuring {
            self.conditionals += 1;
        }
        let (pred, mut flight) = predictor.predict(&b);
        let (resolution, exec_lag) = self.core.resolve(ev.load_addr);
        let mut event_penalty = 0;
        if pred != ev.taken && measuring {
            self.mispredicts += 1;
            event_penalty = mispredict_penalty(resolution);
            self.penalty += event_penalty;
        }
        if measuring {
            if let Some(profile) = &mut self.profile {
                let stat = profile.entry(b.pc).or_insert_with(|| BranchStat::new(b.pc));
                stat.executions += 1;
                stat.taken += ev.taken as u64;
                stat.mispredicts += (pred != ev.taken) as u64;
                stat.penalty_cycles += event_penalty;
            }
        }
        predictor.fetch_commit(&b, ev.taken, &mut flight);

        if self.immediate {
            predictor.execute(&b, ev.taken, &mut flight);
            predictor.retire(&b, ev.taken, pred, flight, self.scenario);
        } else {
            debug_assert!(exec_lag <= MAX_EXEC_LAG, "execute lag beyond the wheel");
            let due_at = (self.fetch_index + exec_lag) % WHEEL;
            self.exec_wheel[due_at].push(self.base + self.window.len());
            self.window.push_back(Inflight {
                branch: b,
                outcome: ev.taken,
                predicted: pred,
                flight,
                retire_at: self.fetch_index + RETIRE_LAG,
                executed: false,
            });
            // Execute every branch whose resolution completed, in program
            // order. Every fetch index is visited, so exactly the branches
            // due at this one complete now, and its bucket holds them in
            // the order they were fetched.
            let due = &mut self.exec_wheel[self.fetch_index % WHEEL];
            for &seq in due.iter() {
                let inflight = &mut self.window[seq - self.base];
                predictor.execute(&inflight.branch, inflight.outcome, &mut inflight.flight);
                inflight.executed = true;
            }
            due.clear();
            // Retire in order.
            while self.window.front().is_some_and(|f| f.retire_at <= self.fetch_index) {
                // INVARIANT: the loop condition just witnessed a front.
                let f = self.window.pop_front().unwrap();
                // `retire_at` lies past the due index, so the branch has
                // executed.
                debug_assert!(f.executed, "branch retired before it executed");
                self.base += 1;
                predictor.retire(&f.branch, f.outcome, f.predicted, f.flight, self.scenario);
            }
        }
        self.fetch_index += 1;
    }

    /// Drains the window at trace end, executing what has not executed
    /// yet (`base` and `exec_wheel` no longer need maintaining: nothing
    /// indexes the window after this).
    fn drain<P: Predictor<Flight = F>>(&mut self, predictor: &mut P) {
        while let Some(mut f) = self.window.pop_front() {
            if !f.executed {
                predictor.execute(&f.branch, f.outcome, &mut f.flight);
            }
            predictor.retire(&f.branch, f.outcome, f.predicted, f.flight, self.scenario);
        }
    }

    fn report<P: Predictor<Flight = F>>(
        &self,
        predictor: &P,
        name: &str,
        category: &str,
    ) -> SimReport {
        SimReport {
            trace: name.to_string(),
            category: category.to_string(),
            predictor: predictor.name(),
            scenario: self.scenario,
            uops: self.uops,
            conditionals: self.conditionals,
            mispredicts: self.mispredicts,
            penalty_cycles: self.penalty,
            stats: predictor.stats(),
            branches: self.profile.as_ref().map(BranchProfile::from_map),
        }
    }
}

/// An object-safe whole-window simulation engine: predictor, in-flight
/// window, and counters behind one vtable, driven a *block* of events at a
/// time.
///
/// [`WindowEngine`] monomorphizes the entire hot loop over the concrete
/// predictor (typed flights, inlined table access) and erases *outside*
/// the loop — one virtual [`run_block`](BlockSim::run_block) call per
/// [`EventBlock`].
pub trait BlockSim: Send {
    /// The composed predictor's display name (for reports).
    fn predictor_name(&self) -> String;

    /// Total storage of the composed predictor, in bits (the budget axis
    /// of Figure 9).
    fn storage_bits(&self) -> u64;

    /// Feeds `events` through the window in order.
    fn run_block(&mut self, events: &[TraceEvent]);

    /// Whether the engine's measurement window is spent — further blocks
    /// would be fast-forwarded without effect, so the driver may stop
    /// pulling events. Default: never (full-trace simulation).
    fn done(&self) -> bool {
        false
    }

    /// Drains the in-flight window and assembles the final report. The
    /// engine is spent afterwards; build a fresh one per simulation.
    fn finish(&mut self, trace: &str, category: &str) -> SimReport;
}

/// The concrete [`BlockSim`] implementation: a predictor plus its
/// [`WindowState`], monomorphized together.
pub struct WindowEngine<P: Predictor> {
    predictor: P,
    state: WindowState<P::Flight>,
}

impl<P: Predictor> WindowEngine<P> {
    /// A fresh engine (stats reset, empty window) for one simulation.
    pub fn new(predictor: P, scenario: UpdateScenario, cfg: &PipelineConfig) -> Self {
        let mut predictor = predictor;
        predictor.reset_stats();
        Self { predictor, state: WindowState::new(scenario, cfg) }
    }

    /// The predictor being simulated, for state the report does not carry
    /// (e.g. a stack's IUM override and corrector revert counts).
    pub fn predictor(&self) -> &P {
        &self.predictor
    }
}

impl<P: Predictor + Send> BlockSim for WindowEngine<P>
where
    P::Flight: Send,
{
    fn predictor_name(&self) -> String {
        self.predictor.name()
    }

    fn storage_bits(&self) -> u64 {
        self.predictor.storage_bits()
    }

    fn run_block(&mut self, events: &[TraceEvent]) {
        // The block is split at the first measured event, if it holds
        // one, and the access counters are cleared there: the per-event
        // body stays free of the check, any block slicing resets on the
        // same event, and `step` keeps its one call site.
        let mut events = events;
        loop {
            let (now, rest) = events.split_at(self.state.events_before_reset(events.len()));
            for ev in now {
                self.state.step(&mut self.predictor, ev);
            }
            if rest.is_empty() {
                return;
            }
            self.predictor.reset_stats();
            self.state.stats_reset_pending = false;
            events = rest;
        }
    }

    fn done(&self) -> bool {
        self.state.complete()
    }

    fn finish(&mut self, trace: &str, category: &str) -> SimReport {
        self.state.drain(&mut self.predictor);
        if self.state.stats_reset_pending {
            // The stream ended before the measured window began: nothing
            // was measured, so no table traffic counts either.
            self.predictor.reset_stats();
        }
        self.state.report(&self.predictor, trace, category)
    }
}

/// Runs `engine` over all of `source` (or until its measurement window is
/// spent) and returns the report: one [`ChunkDriver`] run to the end.
pub fn simulate_engine<S: EventSource + ?Sized>(
    engine: &mut dyn BlockSim,
    source: &mut S,
) -> SimReport {
    let mut driver = ChunkDriver::new();
    driver.run_chunk(engine, source, usize::MAX);
    driver.finish(engine, source)
}

/// The block loop: pulls [`DEFAULT_BATCH`] events at a time from a source
/// into a reusable [`EventBlock`] and feeds them to a [`BlockSim`] — two
/// virtual calls per block — stopping on stream end or a spent window.
/// Callers bound each [`run_chunk`](ChunkDriver::run_chunk) so they can
/// interleave other work (the prediction server emits a `stats` frame
/// between chunks). Chunking never changes block boundaries, pull order
/// or the stop condition, so a chunked run equals one
/// [`simulate_engine`] call.
pub struct ChunkDriver {
    block: EventBlock,
    events_fed: u64,
    done: bool,
}

impl Default for ChunkDriver {
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkDriver {
    /// A fresh driver.
    pub fn new() -> Self {
        Self { block: EventBlock::with_capacity(DEFAULT_BATCH), events_fed: 0, done: false }
    }

    /// Total trace events fed to the engine so far.
    pub fn events_fed(&self) -> u64 {
        self.events_fed
    }

    /// Whether the run is over: the source ended or the engine's
    /// measurement window is spent. Further chunks feed nothing.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Feeds up to `max_blocks` blocks (clamped to ≥ 1) from `source`
    /// into `engine`, returning the events fed by this chunk (0 once
    /// [`ChunkDriver::is_done`]).
    pub fn run_chunk<S: EventSource + ?Sized>(
        &mut self,
        engine: &mut dyn BlockSim,
        source: &mut S,
        max_blocks: usize,
    ) -> u64 {
        if self.done {
            return 0;
        }
        let mut fed = 0u64;
        for _ in 0..max_blocks.max(1) {
            let n = source.next_block(&mut self.block, DEFAULT_BATCH);
            if n == 0 {
                self.done = true;
                break;
            }
            engine.run_block(&self.block.events);
            fed += n as u64;
            if engine.done() {
                self.done = true;
                break;
            }
        }
        self.events_fed += fed;
        fed
    }

    /// Drains the window and assembles the final report. The engine is
    /// spent afterwards.
    pub fn finish<S: EventSource + ?Sized>(
        self,
        engine: &mut dyn BlockSim,
        source: &S,
    ) -> SimReport {
        engine.finish(source.name(), source.category())
    }
}

/// Convenience: merged access statistics over a set of reports.
pub fn merged_stats(reports: &[SimReport]) -> AccessStats {
    let mut s = AccessStats::default();
    for r in reports {
        s.merge(&r.stats);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{Bimodal, Gshare};
    use workloads::event::{Trace, TraceStream};
    use workloads::suite::{by_name, Scale};

    fn tiny(name: &str) -> Trace {
        by_name(name, Scale::Tiny).unwrap().generate()
    }

    /// One cold predictor over a whole source.
    fn run<P, S>(p: P, src: &mut S, scenario: UpdateScenario, cfg: &PipelineConfig) -> SimReport
    where
        P: Predictor + Send,
        P::Flight: Send,
        S: EventSource,
    {
        simulate_engine(&mut WindowEngine::new(p, scenario, cfg), src)
    }

    fn run_trace<P>(p: P, t: &Trace, scenario: UpdateScenario) -> SimReport
    where
        P: Predictor + Send,
        P::Flight: Send,
    {
        run(p, &mut TraceStream::new(t), scenario, &PipelineConfig::default())
    }

    #[test]
    fn counts_are_consistent() {
        let t = tiny("CLIENT01");
        let r = run_trace(Gshare::new(12), &t, UpdateScenario::RereadAtRetire);
        assert_eq!(r.conditionals, t.conditional_count());
        assert_eq!(r.uops, t.total_uops());
        assert!(r.mispredicts <= r.conditionals);
        assert!(r.penalty_cycles >= r.mispredicts * crate::core_model::REFILL_PENALTY);
        // One predict read per conditional.
        assert_eq!(r.stats.predict_reads, r.conditionals);
    }

    #[test]
    fn immediate_beats_delayed_scenarios_on_aggregate() {
        // Pointwise per-trace inversions are possible (stale updates can
        // act as accidental hysteresis); the §4.1.2 ordering is an
        // aggregate claim — assert it over several traces.
        let traces: Vec<Trace> =
            ["CLIENT04", "CLIENT06", "MM04", "WS06"].iter().map(|n| tiny(n)).collect();
        let total = |s| -> u64 {
            traces.iter().map(|t| run_trace(Gshare::new(12), t, s).mispredicts).sum()
        };
        let i = total(UpdateScenario::Immediate);
        let a = total(UpdateScenario::RereadAtRetire);
        let b = total(UpdateScenario::FetchOnly);
        let c = total(UpdateScenario::RereadOnMispredict);
        // [I] vs [A] can invert slightly on small noisy subsets (stale
        // updates act as a slower, sometimes beneficial learning rate);
        // the strict suite-wide ordering is asserted in the workspace
        // integration tests. Allow 5% here.
        assert!(i <= a + a / 20, "[I] {i} should not exceed [A] {a} by >5%");
        assert!(a <= b, "[A] {a} should not exceed [B] {b}");
        assert!(c <= b, "[C] {c} should not exceed [B] {b}");
    }

    #[test]
    fn retire_reads_only_on_mispredicts_under_c() {
        let t = tiny("WS01");
        let r = run_trace(Bimodal::new(4096, 2), &t, UpdateScenario::RereadOnMispredict);
        assert_eq!(r.stats.retire_reads, r.mispredicts);
        let r2 = run_trace(Bimodal::new(4096, 2), &t, UpdateScenario::RereadAtRetire);
        assert_eq!(r2.stats.retire_reads, r2.conditionals);
    }

    #[test]
    fn streamed_source_matches_materialized_bit_for_bit() {
        // The same spec driven as a lazy ProgramStream and as a
        // materialized trace must produce identical SimReports, for every
        // scenario, for a cheap and a stateful predictor (TAGE-LSC
        // exercises IUM execute ordering).
        let spec = by_name("MM05", Scale::Tiny).unwrap();
        let trace = spec.generate();
        let cfg = PipelineConfig::default();
        for scenario in UpdateScenario::ALL {
            let materialized = run_trace(Gshare::new(12), &trace, scenario);
            let streamed = run(Gshare::new(12), &mut spec.stream(), scenario, &cfg);
            assert_eq!(streamed, materialized, "gshare diverged under {scenario}");
            let materialized = run_trace(tage::TageSystem::tage_lsc(), &trace, scenario);
            let streamed = run(tage::TageSystem::tage_lsc(), &mut spec.stream(), scenario, &cfg);
            assert_eq!(streamed, materialized, "TAGE-LSC diverged under {scenario}");
        }
    }

    #[test]
    fn boxed_dyn_source_matches_concrete_source() {
        // Foreign-format decoders arrive as `Box<dyn EventSource>`; the
        // engine must produce identical reports through the boxed path.
        let spec = by_name("CLIENT03", Scale::Tiny).unwrap();
        let cfg = PipelineConfig::default();
        let scenario = UpdateScenario::FetchOnly;
        let concrete = run(Gshare::new(12), &mut spec.stream(), scenario, &cfg);
        let mut boxed: Box<dyn EventSource + Send> = Box::new(spec.stream());
        let via_box = run(Gshare::new(12), &mut boxed, scenario, &cfg);
        assert_eq!(via_box, concrete);
    }

    #[test]
    fn run_block_slicing_never_changes_the_report() {
        // Block boundaries are invisible to the per-event body: one trace
        // fed in slices of 1, 7 (shorter than the retire lag, so slices
        // straddle window boundaries), DEFAULT_BATCH and whole must give
        // the same report — every scenario, profile on, and a
        // warmup/measure window whose edges fall mid-slice.
        let trace = tiny("MM05");
        let n = trace.events.len() as u64;
        let cfg = PipelineConfig {
            branch_stats: true,
            window: SimWindow { warmup: 333, measure: n / 2 },
        };
        let feed = |engine: &mut dyn BlockSim, slice: usize| {
            for block in trace.events.chunks(slice) {
                engine.run_block(block);
            }
            engine.finish(&trace.name, &trace.category)
        };
        for scenario in UpdateScenario::ALL {
            let mut whole = WindowEngine::new(tage::TageSystem::isl_tage(), scenario, &cfg);
            let want = feed(&mut whole, trace.events.len());
            assert!(want.branches.is_some(), "profile requested");
            assert!(want.conditionals > 0 && want.conditionals < trace.conditional_count());
            for slice in [1usize, 7, DEFAULT_BATCH] {
                let mut engine = WindowEngine::new(tage::TageSystem::isl_tage(), scenario, &cfg);
                assert_eq!(feed(&mut engine, slice), want, "slice {slice} diverged under {scenario}");
                let mut engine = WindowEngine::new(Gshare::new(12), scenario, &cfg);
                let mut gshare_whole = WindowEngine::new(Gshare::new(12), scenario, &cfg);
                assert_eq!(
                    feed(&mut engine, slice),
                    feed(&mut gshare_whole, trace.events.len()),
                    "gshare slice {slice} diverged under {scenario}"
                );
            }
        }
    }

    #[test]
    fn chunked_driver_is_bit_identical_to_simulate_engine() {
        // The server's resumable driver must reproduce one-shot
        // `simulate_engine` exactly for any chunk granularity — same
        // block boundaries, same stop condition — across scenarios.
        let spec = by_name("INT02", Scale::Tiny).unwrap();
        let cfg = PipelineConfig::default();
        for scenario in UpdateScenario::ALL {
            let whole = run(tage::TageSystem::isl_tage(), &mut spec.stream(), scenario, &cfg);
            for max_blocks in [1usize, 3, usize::MAX] {
                let mut engine = WindowEngine::new(tage::TageSystem::isl_tage(), scenario, &cfg);
                let mut src = spec.stream();
                let mut driver = ChunkDriver::new();
                let mut fed = 0u64;
                while !driver.is_done() {
                    fed += driver.run_chunk(&mut engine, &mut src, max_blocks);
                }
                assert_eq!(fed, driver.events_fed());
                let r = driver.finish(&mut engine, &src);
                assert_eq!(r, whole, "chunked run (max_blocks {max_blocks}) diverged under {scenario}");
            }
        }
    }

    #[test]
    fn chunked_driver_stops_when_the_window_is_spent() {
        // A spent measurement window must end the chunk loop exactly
        // like simulate_engine's `done()` break — not at stream end.
        let spec = by_name("MM05", Scale::Tiny).unwrap();
        let cfg = PipelineConfig {
            window: SimWindow { warmup: 100, measure: 500 },
            ..PipelineConfig::default()
        };
        let scenario = UpdateScenario::FetchOnly;
        let whole = run(tage::TageSystem::isl_tage(), &mut spec.stream(), scenario, &cfg);
        let mut engine = WindowEngine::new(tage::TageSystem::isl_tage(), scenario, &cfg);
        let mut src = spec.stream();
        let mut driver = ChunkDriver::new();
        while !driver.is_done() {
            driver.run_chunk(&mut engine, &mut src, 2);
        }
        // Stopped by the window, well short of the whole trace.
        assert!(driver.events_fed() < spec.generate().events.len() as u64);
        let r = driver.finish(&mut engine, &src);
        assert_eq!(r, whole);
    }

    /// Logs the order of the engine's execute and retire calls; the
    /// flight is the branch's position among the conditionals.
    #[derive(Default)]
    struct CallLog {
        fetched: u64,
        log: Vec<(char, u64)>,
    }

    impl Predictor for CallLog {
        type Flight = u64;

        fn name(&self) -> String {
            "log".into()
        }

        fn storage_bits(&self) -> u64 {
            0
        }

        fn predict(&mut self, _: &simkit::BranchInfo) -> (bool, u64) {
            self.fetched += 1;
            (true, self.fetched - 1)
        }

        fn fetch_commit(&mut self, _: &simkit::BranchInfo, _: bool, _: &mut u64) {}

        fn execute(&mut self, _: &simkit::BranchInfo, _: bool, id: &mut u64) {
            self.log.push(('E', *id));
        }

        fn retire(&mut self, _: &simkit::BranchInfo, _: bool, _: bool, id: u64, _: UpdateScenario) {
            self.log.push(('R', id));
        }

        fn stats(&self) -> AccessStats {
            AccessStats::default()
        }

        fn reset_stats(&mut self) {}
    }

    /// The call order of the window as a scan over every unexecuted
    /// branch at each fetch (the algorithm the execute wheel replaced).
    fn scanned_call_order(t: &Trace) -> Vec<(char, u64)> {
        let mut core = CoreModel::new();
        let mut log = Vec::new();
        // (id, exec_at, retire_at, executed), oldest first.
        let mut window: VecDeque<(u64, usize, usize, bool)> = VecDeque::new();
        let conditionals = t.events.iter().filter(|e| e.kind.is_conditional());
        for (fetch, ev) in conditionals.enumerate() {
            let (_, lag) = core.resolve(ev.load_addr);
            window.push_back((fetch as u64, fetch + lag, fetch + RETIRE_LAG, false));
            for b in window.iter_mut().filter(|b| !b.3 && b.1 <= fetch) {
                log.push(('E', b.0));
                b.3 = true;
            }
            while window.front().is_some_and(|b| b.2 <= fetch) {
                let b = window.pop_front().unwrap();
                log.push(('R', b.0));
            }
        }
        for b in window {
            if !b.3 {
                log.push(('E', b.0));
            }
            log.push(('R', b.0));
        }
        log
    }

    #[test]
    fn execute_wheel_matches_a_scan_of_the_window() {
        // Load-heavy cold-data trace, so execute lags vary from the
        // minimum to the longest the core model returns.
        let t = tiny("INT02");
        let cfg = PipelineConfig::default();
        let mut engine = WindowEngine::new(CallLog::default(), UpdateScenario::FetchOnly, &cfg);
        simulate_engine(&mut engine, &mut TraceStream::new(&t));
        assert_eq!(engine.predictor().log, scanned_call_order(&t));
    }

    #[test]
    fn engine_reports_the_predictor_name_and_storage() {
        let engine =
            WindowEngine::new(Gshare::new(12), UpdateScenario::Immediate, &PipelineConfig::default());
        assert_eq!(engine.predictor_name(), Predictor::name(&Gshare::new(12)));
        assert_eq!(BlockSim::storage_bits(&engine), Predictor::storage_bits(&Gshare::new(12)));
        assert_eq!(Predictor::name(engine.predictor()), engine.predictor_name());
    }

    #[test]
    fn branch_profile_sums_to_aggregate_for_every_scenario() {
        // The tentpole invariant: per-branch counters partition the
        // aggregate exactly, under every §4.1.2 update scenario (each
        // exercises the window bookkeeping differently).
        let spec = by_name("INT02", Scale::Tiny).unwrap();
        let cfg = PipelineConfig { branch_stats: true, ..PipelineConfig::default() };
        for scenario in UpdateScenario::ALL {
            let r = run(tage::TageSystem::isl_tage(), &mut spec.stream(), scenario, &cfg);
            let p = r.branches.as_ref().expect("branch_stats=true attaches a profile");
            assert_eq!(p.total_executions(), r.conditionals, "executions diverged under {scenario}");
            assert_eq!(p.total_mispredicts(), r.mispredicts, "mispredicts diverged under {scenario}");
            assert_eq!(
                p.total_penalty_cycles(),
                r.penalty_cycles,
                "penalty diverged under {scenario}"
            );
            assert!(p.total_taken() <= p.total_executions());
            assert!(!p.branches.is_empty());
            // Sorted ascending by PC (deterministic serialization order).
            assert!(p.branches.windows(2).all(|w| w[0].pc < w[1].pc));
        }
    }

    #[test]
    fn branch_profile_is_free_when_off() {
        // Switching collection on must leave every aggregate counter
        // untouched, and a config with it on never equals (so never
        // shares a memo key with) one without.
        let spec = by_name("MM05", Scale::Tiny).unwrap();
        let scenario = UpdateScenario::RereadAtRetire;
        let off = PipelineConfig::default();
        let on = PipelineConfig { branch_stats: true, ..off };
        assert_ne!(off, on);
        let plain = run(Gshare::new(12), &mut spec.stream(), scenario, &off);
        assert!(plain.branches.is_none());
        let profiled = run(Gshare::new(12), &mut spec.stream(), scenario, &on);
        assert!(profiled.branches.is_some());
        assert_eq!(SimReport { branches: None, ..profiled }, plain);
    }

    #[test]
    fn deterministic_simulation() {
        let t = tiny("INT03");
        let a = run_trace(Gshare::new(12), &t, UpdateScenario::RereadAtRetire);
        let b = run_trace(Gshare::new(12), &t, UpdateScenario::RereadAtRetire);
        assert_eq!(a, b);
    }

    #[test]
    fn merged_stats_sums_every_report() {
        let reports: Vec<SimReport> = ["MM01", "MM02"]
            .iter()
            .map(|n| run_trace(Gshare::new(10), &tiny(n), UpdateScenario::RereadAtRetire))
            .collect();
        assert_eq!(reports[0].trace, "MM01");
        let merged = merged_stats(&reports);
        assert_eq!(merged.predict_reads, reports.iter().map(|r| r.stats.predict_reads).sum::<u64>());
    }

    #[test]
    fn hard_traces_have_higher_penalty_per_mispredict() {
        let penalty_per_miss = |t: &Trace| {
            let r = run_trace(Gshare::new(14), t, UpdateScenario::RereadAtRetire);
            r.penalty_cycles as f64 / r.mispredicts.max(1) as f64
        };
        assert!(
            penalty_per_miss(&tiny("INT02")) > penalty_per_miss(&tiny("MM01")),
            "cold-data traces should pay more per misprediction"
        );
    }
}
