//! Property-based tests (proptest) on the core data structures and
//! invariants of the reproduction.

use proptest::prelude::*;
use simkit::counter::{SignedCounter, UnsignedCounter};
use simkit::history::{FoldedHistory, GlobalHistory, LocalHistories};
use simkit::{BranchInfo, Predictor, UpdateScenario};
use tage::{BaseChoice, ChooserChoice, ProviderSpec, SpecError, StageSpec, SystemSpec, TageBase};
use workloads::event::{Trace, TraceEvent};

/// Builds an arbitrary-but-valid [`SystemSpec`] from sampled raw values.
#[allow(clippy::too_many_arguments)]
fn arb_spec(
    base_sel: u8,
    tables: usize,
    hist: bool,
    h_l1: usize,
    h_span: usize,
    scale: i32,
    slot_sel: u8,
    chooser_sel: u8,
    stage_mask: u8,
    reverse_chain: bool,
    ium_pow: u32,
    lsc_2lht: bool,
    lsc_scale: i32,
    loop_pow: u32,
    loop_ways: usize,
    ilv: bool,
    reread: bool,
    label_sel: u8,
) -> SystemSpec {
    let base = match base_sel {
        0 => TageBase::Reference,
        1 => TageBase::LscCore,
        _ => TageBase::Balanced { tables, l1: h_l1, lmax: h_l1 + h_span },
    };
    let provider = ProviderSpec {
        base,
        history: hist.then_some((h_l1, h_l1 + h_span)),
        scale,
        base_slot: match slot_sel {
            0 => BaseChoice::Bimodal,
            1 => BaseChoice::TwoBit,
            _ => BaseChoice::Gshare,
        },
        chooser: match chooser_sel {
            0 => ChooserChoice::AltOnWeak,
            1 => ChooserChoice::AlwaysProvider,
            2 => ChooserChoice::Confidence,
            _ => ChooserChoice::Table,
        },
    };
    let mut stages = Vec::new();
    if stage_mask & 1 != 0 {
        stages.push(StageSpec::Ium { capacity: 1 << ium_pow });
    }
    if stage_mask & 2 != 0 {
        stages.push(StageSpec::Gsc);
    }
    if stage_mask & 4 != 0 {
        stages.push(StageSpec::Lsc { double_lht: lsc_2lht, scale: lsc_scale });
    }
    if stage_mask & 8 != 0 {
        stages.push(StageSpec::Loop { entries: loop_ways << loop_pow, ways: loop_ways });
    }
    if reverse_chain {
        // Chain order is free — novel orders must serialize too.
        stages.reverse();
    }
    let label = match label_sel {
        0 => None,
        1 => Some("X".to_string()),
        _ => Some("TAGE-LSC+like.v2".to_string()),
    };
    SystemSpec { provider, stages, interleaved: ilv, lsc_always_reread: reread, label }
}

proptest! {
    #[test]
    fn system_spec_round_trips_through_canonical_form(
        base_sel in 0u8..3,
        tables in 2usize..17,
        hist in any::<bool>(),
        h_l1 in 1usize..10,
        h_span in 1usize..2000,
        scale in -3i32..4,
        slot_sel in 0u8..3,
        chooser_sel in 0u8..4,
        stage_mask in 0u8..16,
        reverse_chain in any::<bool>(),
        ium_pow in 4u32..10,
        lsc_2lht in any::<bool>(),
        lsc_scale in -2i32..3,
        loop_pow in 2u32..8,
        loop_ways in 1usize..5,
        ilv in any::<bool>(),
        reread in any::<bool>(),
        label_sel in 0u8..3,
    ) {
        let spec = arb_spec(
            base_sel, tables, hist, h_l1, h_span, scale, slot_sel, chooser_sel,
            stage_mask, reverse_chain, ium_pow, lsc_2lht, lsc_scale, loop_pow,
            loop_ways, ilv, reread, label_sel,
        );
        prop_assert!(spec.validate().is_ok(), "generated spec must be valid: {spec:?}");
        // Serialized form round-trips structurally.
        let canonical = spec.to_string();
        let reparsed: SystemSpec = canonical.parse().unwrap();
        prop_assert_eq!(&spec, &reparsed, "'{}' did not round-trip", canonical);
        // Canonicalization is idempotent.
        prop_assert_eq!(canonical.clone(), reparsed.to_string());
        // And the built stack's per-component budget sums to the whole.
        let stack = spec.build().unwrap();
        let total: u64 = stack.budget().iter().map(|(_, b)| b).sum();
        prop_assert_eq!(total, stack.storage_bits());
        prop_assert_eq!(stack.stages().len(), spec.stages.len());
    }

    #[test]
    fn stack_assembly_rejects_ill_formed_chains(
        kind in 0u8..4,
        extra in 0u8..4,
        dup_at in 0usize..5,
    ) {
        let token = ["ium", "sc", "lsc", "loop"][kind as usize];
        // A stage in the provider position ("chooser before any provider").
        let err = format!("{token}+tage").parse::<SystemSpec>().unwrap_err();
        prop_assert!(
            matches!(&err, SpecError::StackMustStartWithProvider { found } if found == token),
            "got {err:?}"
        );
        // A duplicated stage kind, at any chain position.
        let stage = |k: u8| match k {
            0 => StageSpec::ium(),
            1 => StageSpec::Gsc,
            2 => StageSpec::lsc(),
            _ => StageSpec::loop_pred(),
        };
        let mut spec = SystemSpec::reference();
        spec.stages = vec![stage(kind), stage(extra)];
        spec.stages.insert(dup_at.min(spec.stages.len()), stage(kind));
        let err = spec.build().unwrap_err();
        prop_assert!(matches!(err, SpecError::DuplicateStage { .. }), "got {err:?}");
        // A second provider anywhere in the chain.
        let err = format!("tage+{token}+tage").parse::<SystemSpec>().unwrap_err();
        prop_assert_eq!(err, SpecError::DuplicateProvider);
    }

    #[test]
    fn provider_params_reject_ill_formed_combos(
        key_sel in 0u8..2,
        val_sel in 0u8..6,
        dup in any::<bool>(),
    ) {
        // Every (key, wrong-domain-or-bogus value) combination is a typed
        // error: base= only accepts base tokens, chooser= only chooser
        // tokens, and no key may repeat.
        let key = ["base", "chooser"][key_sel as usize];
        let wrong = match (key, val_sel) {
            // Values from the *other* production's domain.
            ("base", 0..=2) => ["altweak", "always", "conf"][val_sel as usize],
            ("chooser", 0..=2) => ["bimodal", "2bc", "gshare"][val_sel as usize],
            // Bogus and empty values.
            (_, 3) => "bogus",
            (_, 4) => "",
            // A stage token leaking into the provider group.
            _ => "ium",
        };
        let s = format!("tage({key}={wrong})");
        let err = s.parse::<SystemSpec>().unwrap_err();
        prop_assert!(
            matches!(&err, SpecError::BadProviderParam { .. }),
            "'{}' gave {:?}", s, err
        );
        if dup {
            let good = if key == "base" { "bimodal" } else { "altweak" };
            let s = format!("tage({key}={good},{key}={good})");
            let err = s.parse::<SystemSpec>().unwrap_err();
            prop_assert!(matches!(&err, SpecError::BadProviderParam { .. }), "got {err:?}");
        }
    }

    #[test]
    fn decomposed_default_provider_is_bit_identical_to_canonical(
        stage_mask in 0u8..16,
        reverse_chain in any::<bool>(),
        scale in -2i32..1,
        pcs in proptest::collection::vec(1u64..1 << 14, 50..300),
        outcomes in proptest::collection::vec(any::<bool>(), 300),
    ) {
        // A random spec with the provider-internal defaults written out
        // explicitly must canonicalize onto — and predict bit-for-bit
        // like — the undecorated spec: the decomposed provider path *is*
        // the fused path when the default base and chooser are selected.
        let mut spec = arb_spec(
            0, 4, false, 3, 100, scale, 0, 0, stage_mask, reverse_chain,
            6, false, 0, 4, 2, false, false, 0,
        );
        spec.provider.base_slot = BaseChoice::Bimodal;
        spec.provider.chooser = ChooserChoice::AltOnWeak;
        let canonical = spec.to_string();
        prop_assert!(!canonical.contains('('), "defaults must canonicalize away: {canonical}");
        let explicit: SystemSpec = canonical
            .replacen("tage", "tage(base=bimodal,chooser=altweak)", 1)
            .parse()
            .unwrap();
        prop_assert_eq!(&spec, &explicit);
        let mut a = spec.build().unwrap();
        let mut b = explicit.build().unwrap();
        for (i, pc) in pcs.iter().enumerate() {
            let br = BranchInfo::conditional(pc << 2);
            let outcome = outcomes[i % outcomes.len()];
            let (pa, mut fa) = a.predict(&br);
            let (pb, mut fb) = b.predict(&br);
            prop_assert_eq!(pa, pb, "prediction diverged at branch {}", i);
            a.fetch_commit(&br, outcome, &mut fa);
            b.fetch_commit(&br, outcome, &mut fb);
            a.execute(&br, outcome, &mut fa);
            b.execute(&br, outcome, &mut fb);
            a.retire(&br, outcome, pa, fa, UpdateScenario::RereadOnMispredict);
            b.retire(&br, outcome, pb, fb, UpdateScenario::RereadOnMispredict);
        }
        prop_assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn signed_counter_never_leaves_range(bits in 1u8..=8, steps in proptest::collection::vec(any::<bool>(), 0..200)) {
        let mut c = SignedCounter::new(bits);
        for s in steps {
            c.update(s);
            prop_assert!(c.get() >= c.min() && c.get() <= c.max());
            prop_assert_eq!(c.is_taken(), c.get() >= 0);
        }
    }

    #[test]
    fn unsigned_counter_never_leaves_range(bits in 1u8..=8, steps in proptest::collection::vec(any::<bool>(), 0..200)) {
        let mut c = UnsignedCounter::new(bits);
        for s in steps {
            c.update(s);
            prop_assert!(c.get() <= c.max());
        }
    }

    #[test]
    fn counter_monotone_in_taken_count(bits in 2u8..=6, n in 0usize..40) {
        // More taken updates from the same start never yield a smaller value.
        let run = |takens: usize, total: usize| {
            let mut c = SignedCounter::new(bits);
            for i in 0..total {
                c.update(i < takens);
            }
            c.get()
        };
        let total = 40;
        prop_assert!(run(n, total) <= run((n + 1).min(total), total) + 2);
    }

    #[test]
    fn folded_history_matches_naive_recompute(
        lengths in proptest::collection::vec(1usize..300, 1..4),
        width in 5u32..14,
        bits in proptest::collection::vec(any::<bool>(), 1..600)
    ) {
        let mut gh = GlobalHistory::new();
        let mut folds: Vec<FoldedHistory> =
            lengths.iter().map(|&l| FoldedHistory::new(l, width)).collect();
        for b in bits {
            gh.push(b);
            for f in &mut folds {
                f.update(&gh);
                prop_assert_eq!(f.value(), f.recompute(&gh));
            }
        }
    }

    #[test]
    fn local_histories_only_keep_width_bits(width in 1u32..40, updates in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..200)) {
        let mut lh = LocalHistories::new(32, width);
        for (pc, taken) in updates {
            lh.update(pc, taken);
            prop_assert!(lh.history(pc) <= simkit::bits::mask(width));
        }
    }

    #[test]
    fn interleaved_index_is_a_bijection_per_bank(size_bits in 2u32..16, bank in 0u8..4) {
        let n = 1usize << size_bits;
        let mut seen = vec![false; n];
        let inner = n / 4;
        for idx in 0..inner {
            let m = tage::banking::interleaved_index(idx, bank, size_bits);
            prop_assert!(m < n);
            prop_assert!(!seen[m], "collision at {m}");
            seen[m] = true;
        }
    }

    #[test]
    fn bank_selector_never_repeats_within_three(pcs in proptest::collection::vec(any::<u64>(), 3..300)) {
        let mut sel = tage::banking::BankSelector::new();
        let mut last: Vec<u8> = Vec::new();
        for pc in pcs {
            let b = sel.bank(pc);
            for &p in last.iter().rev().take(2) {
                prop_assert_ne!(b, p);
            }
            last.push(b);
        }
    }

    #[test]
    fn program_stream_prefix_matches_generate(budget in 1usize..900) {
        // Streaming any budget yields exactly the materialized events.
        let spec = workloads::suite::by_name("WS07", workloads::suite::Scale::Tiny).unwrap();
        let program_stream = spec.stream();
        let full = spec.generate();
        let streamed: Vec<workloads::TraceEvent> =
            program_stream.take(budget).collect();
        prop_assert_eq!(&streamed[..], &full.events[..streamed.len()]);
    }

    #[test]
    fn tage_prediction_lifecycle_never_panics(
        pcs in proptest::collection::vec(1u64..1 << 20, 1..400),
        outcomes in proptest::collection::vec(any::<bool>(), 400)
    ) {
        let mut p = tage::TageSystem::tage_lsc();
        for (i, pc) in pcs.iter().enumerate() {
            let b = BranchInfo::conditional(pc << 2);
            let outcome = outcomes[i % outcomes.len()];
            let (pred, mut f) = p.predict(&b);
            p.fetch_commit(&b, outcome, &mut f);
            p.execute(&b, outcome, &mut f);
            p.retire(&b, outcome, pred, f, UpdateScenario::RereadOnMispredict);
        }
        // Access accounting invariants.
        let s = p.stats();
        prop_assert_eq!(s.predict_reads, pcs.len() as u64);
        prop_assert!(s.retire_reads <= s.predict_reads);
    }

    #[test]
    fn scenario_b_counters_move_at_most_one_step(
        pc in 1u64..1 << 16,
        k in 2usize..8
    ) {
        // k retires from the SAME snapshot must be idempotent (one step).
        let mut p = baselines::Gshare::new(12);
        let b = BranchInfo::conditional(pc << 2);
        let (pred, f) = p.predict(&b);
        for _ in 0..k {
            p.retire(&b, true, pred, f, UpdateScenario::FetchOnly);
        }
        let (_, f2) = p.predict(&b);
        // Counter started at 1 (weakly NT), one stale step to 2.
        let _ = f2;
        let mut q = baselines::Gshare::new(12);
        let (qpred, qf) = q.predict(&b);
        q.retire(&b, true, qpred, qf, UpdateScenario::FetchOnly);
        let (p1, _) = p.predict(&b);
        let (q1, _) = q.predict(&b);
        prop_assert_eq!(p1, q1, "k stale retires must equal 1 stale retire");
    }

    #[test]
    fn suite_traces_have_declared_budgets(idx in 0usize..40) {
        let specs = workloads::suite::suite(workloads::suite::Scale::Tiny);
        let spec = &specs[idx];
        let t = spec.generate();
        prop_assert_eq!(t.conditional_count() as usize, spec.budget());
    }
}

#[test]
fn trace_events_have_sane_fields() {
    // Deterministic sweep (not proptest: generation is already seeded).
    let t: Trace = workloads::suite::by_name("SERVER01", workloads::suite::Scale::Tiny)
        .unwrap()
        .generate();
    for e in &t.events {
        let _: &TraceEvent = e;
        assert!(e.pc > 0);
        assert!(e.uops_before < 64);
        if !e.kind.is_conditional() {
            assert!(e.taken, "unconditional events are always taken");
        }
    }
}
