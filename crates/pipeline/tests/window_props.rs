//! Property tests for skip/warmup/measure windowing: the window must be
//! pure *accounting* over the same per-event arithmetic, never a second
//! simulation path. Three equivalences pin that:
//!
//! * under `Immediate` update, a `{skip: 0, warmup: w, measure: m}` run
//!   reproduces the full run's measure-region counters exactly, access
//!   statistics included, as the difference of two measured prefixes;
//! * the default window (and an explicit `{0, 0, len}` one) is
//!   bit-identical to the unwindowed engine under *every* scenario;
//! * skipping via the window and skipping via [`EventSource::skip`] land
//!   on the same stream position, so a data-path seek (`.ttr` v3 index)
//!   and a window skip are interchangeable.

use pipeline::{simulate_engine, PipelineConfig, SimWindow, WindowEngine};
use proptest::collection::vec;
use proptest::prelude::*;
use simkit::predictor::{BranchKind, UpdateScenario};
use workloads::event::{EventSource, Trace, TraceEvent, TraceStream};

const ALL_SCENARIOS: [UpdateScenario; 4] = [
    UpdateScenario::Immediate,
    UpdateScenario::RereadAtRetire,
    UpdateScenario::FetchOnly,
    UpdateScenario::RereadOnMispredict,
];

type RawEvent = ((u64, u8, bool), (u16, u64));

/// Small-footprint event streams: a handful of static branches so the
/// predictor actually learns (and mispredict counts move when the
/// window does), with occasional unconditional and load-carrying events
/// to exercise the non-predicted and penalty paths.
fn event_strategy() -> impl Strategy<Value = Vec<RawEvent>> {
    vec(((0u64..64, 0u8..8, any::<bool>()), (0u16..16, 0u64..4)), 1usize..250)
}

fn trace_of(raw: Vec<RawEvent>) -> Trace {
    let events = raw
        .into_iter()
        .map(|((slot, kind, taken), (uops, load))| {
            let pc = 0x1000 + slot * 4;
            let kind = match kind {
                0 => BranchKind::DirectJump,
                1 => BranchKind::Return,
                _ => BranchKind::Conditional,
            };
            TraceEvent {
                pc,
                kind,
                taken: taken || kind != BranchKind::Conditional,
                target: pc.wrapping_add(if taken { 0x40 } else { 8 }),
                uops_before: uops,
                load_addr: (load != 0).then(|| 0x10_0000 + load * 0x40),
            }
        })
        .collect();
    Trace { name: "PROP01".into(), category: "PROP".into(), events }
}

fn windowed(window: SimWindow) -> PipelineConfig {
    PipelineConfig { window, ..PipelineConfig::default() }
}

fn run_source(
    src: &mut TraceStream<'_>,
    scenario: UpdateScenario,
    cfg: &PipelineConfig,
) -> pipeline::SimReport {
    let mut engine = WindowEngine::new(baselines::Gshare::cbp_512k(), scenario, cfg);
    simulate_engine(&mut engine, src)
}

fn run(t: &Trace, scenario: UpdateScenario, cfg: &PipelineConfig) -> pipeline::SimReport {
    run_source(&mut TraceStream::new(t), scenario, cfg)
}

proptest! {
    #[test]
    fn warmup_and_measure_partition_the_full_run_under_immediate(
        raw in event_strategy(), w in 0u64..120, m in 1u64..120,
    ) {
        // Under `Immediate` the predictor (and cache) state at event k is
        // the same in every run, so counters are per-event values summed
        // over the measured region: a `{0, w, m}` window must equal the
        // difference of the two measured prefixes `[0, w+m)` and `[0, w)`.
        let t = trace_of(raw);
        let sc = UpdateScenario::Immediate;
        let win = run(&t, sc, &windowed(SimWindow { skip: 0, warmup: w, measure: m }));
        let long = run(&t, sc, &windowed(SimWindow { skip: 0, warmup: 0, measure: w + m }));
        let short = run(&t, sc, &windowed(SimWindow { skip: 0, warmup: 0, measure: w }));
        prop_assert_eq!(win.mispredicts, long.mispredicts - short.mispredicts);
        prop_assert_eq!(win.penalty_cycles, long.penalty_cycles - short.penalty_cycles);
        prop_assert_eq!(win.uops, long.uops - short.uops);
        prop_assert_eq!(win.conditionals, long.conditionals - short.conditionals);
        // Table traffic is counted from the first measured event on, so
        // it partitions the same way.
        let (ws, ls, ss) = (win.stats, long.stats, short.stats);
        prop_assert_eq!(ws.predict_reads, ls.predict_reads - ss.predict_reads);
        prop_assert_eq!(ws.retire_reads, ls.retire_reads - ss.retire_reads);
        prop_assert_eq!(ws.effective_writes, ls.effective_writes - ss.effective_writes);
        prop_assert_eq!(
            ws.silent_writes_avoided,
            ls.silent_writes_avoided - ss.silent_writes_avoided
        );
    }

    #[test]
    fn zero_warmup_full_measure_is_bit_identical_under_all_scenarios(raw in event_strategy()) {
        let t = trace_of(raw);
        let n = t.events.len() as u64;
        for sc in ALL_SCENARIOS {
            let full = run(&t, sc, &PipelineConfig::default());
            let explicit = run(&t, sc, &windowed(SimWindow::default()));
            let exact = run(&t, sc, &windowed(SimWindow { skip: 0, warmup: 0, measure: n }));
            prop_assert_eq!(&full, &explicit, "default window drifted under {:?}", sc);
            prop_assert_eq!(&full, &exact, "measure == len drifted under {:?}", sc);
        }
    }

    #[test]
    fn window_skip_equals_source_skip(
        raw in event_strategy(), s in 0u64..150, w in 0u64..60, m in 1u64..60,
    ) {
        // Fast-forwarding `s` events inside the window must equal
        // positioning the source itself `s` events in (the sampled
        // slice driver does the latter via the `.ttr` v3 index).
        let t = trace_of(raw);
        for sc in [UpdateScenario::Immediate, UpdateScenario::RereadAtRetire] {
            let via_window =
                run(&t, sc, &windowed(SimWindow { skip: s, warmup: w, measure: m }));
            let mut source = TraceStream::new(&t);
            let skipped = EventSource::skip(&mut source, s);
            prop_assert_eq!(skipped, s.min(t.events.len() as u64));
            let via_source =
                run_source(&mut source, sc, &windowed(SimWindow { skip: 0, warmup: w, measure: m }));
            prop_assert_eq!(via_window.mispredicts, via_source.mispredicts, "{:?}", sc);
            prop_assert_eq!(via_window.penalty_cycles, via_source.penalty_cycles, "{:?}", sc);
            prop_assert_eq!(via_window.uops, via_source.uops, "{:?}", sc);
            prop_assert_eq!(via_window.conditionals, via_source.conditionals, "{:?}", sc);
            prop_assert_eq!(via_window.stats, via_source.stats, "{:?}", sc);
        }
    }
}
