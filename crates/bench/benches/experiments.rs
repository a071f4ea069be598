//! One benchmark per paper table/figure (E00–E13): each runs a
//! scaled-down (Tiny, few traces) kernel of the corresponding experiment
//! so `cargo bench` exercises every experiment code path end to end.

use bench::{bench_trace, run_once};
use criterion::{criterion_group, criterion_main, Criterion};
use simkit::UpdateScenario;
use std::hint::black_box;
use tage::{Tage, TageSystem};
use workloads::Trace;

fn traces() -> Vec<Trace> {
    ["CLIENT04", "MM05", "WS03"].iter().map(|n| bench_trace(n)).collect()
}

fn experiments(c: &mut Criterion) {
    let ts = traces();
    let mut g = c.benchmark_group("experiments");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(800));

    // E00 — benchmark characterization kernel.
    g.bench_function("e00_bench_chars", |b| {
        b.iter(|| {
            for t in &ts {
                black_box(run_once(
                    TageSystem::reference_tage(),
                    t,
                    UpdateScenario::RereadAtRetire,
                ));
            }
        })
    });
    // E01 — Figure 3 kernel (bimodal, tiny).
    g.bench_function("e01_fig3", |b| {
        b.iter(|| {
            let p = baselines::Bimodal::new(64, 2);
            black_box(run_once(p, &ts[0], UpdateScenario::FetchOnly))
        })
    });
    // E02 — silent-update accounting.
    g.bench_function("e02_writes", |b| {
        b.iter(|| {
            let r = run_once(Tage::reference_64kb(), &ts[0], UpdateScenario::RereadAtRetire);
            black_box((r.writes_per_mispredict(), r.stats.silent_fraction()))
        })
    });
    // E03 — scenario sweep.
    g.bench_function("e03_scenarios", |b| {
        b.iter(|| {
            for s in UpdateScenario::ALL {
                black_box(run_once(baselines::Gshare::cbp_512k(), &ts[0], s));
            }
        })
    });
    // E04 — bank interleaving.
    g.bench_function("e04_interleave", |b| {
        b.iter(|| {
            black_box(run_once(
                Tage::reference_64kb().with_interleaving(),
                &ts[0],
                UpdateScenario::RereadOnMispredict,
            ))
        })
    });
    // E05 — IUM.
    g.bench_function("e05_ium", |b| {
        b.iter(|| {
            black_box(run_once(TageSystem::tage_ium(), &ts[0], UpdateScenario::FetchOnly))
        })
    });
    // E06 — loop predictor.
    g.bench_function("e06_loop", |b| {
        b.iter(|| {
            black_box(run_once(
                TageSystem::tage_ium().with_loop(tage::LoopPredictor::cbp_64()),
                &ts[0],
                UpdateScenario::RereadAtRetire,
            ))
        })
    });
    // E07/E08 — ISL-TAGE.
    g.bench_function("e07_e08_isl", |b| {
        b.iter(|| {
            black_box(run_once(TageSystem::isl_tage(), &ts[1], UpdateScenario::RereadAtRetire))
        })
    });
    // E09 — TAGE-LSC.
    g.bench_function("e09_lsc", |b| {
        b.iter(|| {
            black_box(run_once(TageSystem::tage_lsc(), &ts[2], UpdateScenario::RereadAtRetire))
        })
    });
    // E10 — ablation configuration.
    g.bench_function("e10_ablation", |b| {
        b.iter(|| {
            let cfg = tage::TageConfig::balanced(8, 6, 1000);
            black_box(run_once(
                TageSystem::new(cfg).with_ium(64).with_lsc(tage::Lsc::cbp_30kbit()),
                &ts[0],
                UpdateScenario::RereadAtRetire,
            ))
        })
    });
    // E11 — Figure 9 point (scaled predictor).
    g.bench_function("e11_fig9_point", |b| {
        b.iter(|| {
            black_box(run_once(
                TageSystem::scaled_tage_lsc(2),
                &ts[0],
                UpdateScenario::RereadAtRetire,
            ))
        })
    });
    // E12 — Figure 10 contenders.
    g.bench_function("e12_fig10_contenders", |b| {
        b.iter(|| {
            black_box(run_once(baselines::Snap::cbp_512k(), &ts[2], UpdateScenario::RereadAtRetire));
            black_box(run_once(baselines::Ftl::cbp_512k(), &ts[2], UpdateScenario::RereadAtRetire));
        })
    });
    // E13 — cost-effective TAGE-LSC.
    g.bench_function("e13_cost_eff", |b| {
        b.iter(|| {
            black_box(run_once(
                TageSystem::tage_lsc_cost_effective(),
                &ts[0],
                UpdateScenario::RereadOnMispredict,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, experiments);
criterion_main!(benches);
