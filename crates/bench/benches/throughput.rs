//! Prediction throughput of every predictor in the workspace: how many
//! simulated branches per second the simulation engine sustains.

use bench::{bench_trace, run_once, run_streamed};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use simkit::UpdateScenario;
use std::hint::black_box;

fn throughput(c: &mut Criterion) {
    let trace = bench_trace("CLIENT08");
    let branches = trace.conditional_count();
    let mut g = c.benchmark_group("predict_throughput");
    g.throughput(Throughput::Elements(branches));
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(800));

    g.bench_function("bimodal", |b| {
        b.iter(|| {
            let p = baselines::Bimodal::new(1 << 15, 2);
            black_box(run_once(p, &trace, UpdateScenario::RereadAtRetire))
        })
    });
    g.bench_function("gshare_512k", |b| {
        b.iter(|| {
            let p = baselines::Gshare::cbp_512k();
            black_box(run_once(p, &trace, UpdateScenario::RereadAtRetire))
        })
    });
    g.bench_function("gehl_520k", |b| {
        b.iter(|| {
            let p = baselines::Gehl::cbp_520k();
            black_box(run_once(p, &trace, UpdateScenario::RereadAtRetire))
        })
    });
    g.bench_function("perceptron", |b| {
        b.iter(|| {
            let p = baselines::Perceptron::new(512, 32);
            black_box(run_once(p, &trace, UpdateScenario::RereadAtRetire))
        })
    });
    g.bench_function("snap_512k", |b| {
        b.iter(|| {
            let p = baselines::Snap::cbp_512k();
            black_box(run_once(p, &trace, UpdateScenario::RereadAtRetire))
        })
    });
    g.bench_function("ftl_512k", |b| {
        b.iter(|| {
            let p = baselines::Ftl::cbp_512k();
            black_box(run_once(p, &trace, UpdateScenario::RereadAtRetire))
        })
    });
    g.bench_function("tage_ref", |b| {
        b.iter(|| {
            let p = tage::Tage::reference_64kb();
            black_box(run_once(p, &trace, UpdateScenario::RereadAtRetire))
        })
    });
    g.bench_function("isl_tage", |b| {
        b.iter(|| {
            let p = tage::TageSystem::isl_tage();
            black_box(run_once(p, &trace, UpdateScenario::RereadAtRetire))
        })
    });
    g.bench_function("isl_tage_from_spec", |b| {
        // Spec-assembled chain: measures the stage-chain walk against the
        // preset constructor path.
        let spec: tage::SystemSpec = "tage+ium+sc+loop/as=ISL-TAGE".parse().unwrap();
        b.iter(|| {
            let p = spec.build().unwrap();
            black_box(run_once(p, &trace, UpdateScenario::RereadAtRetire))
        })
    });
    g.bench_function("tage_lsc", |b| {
        b.iter(|| {
            let p = tage::TageSystem::tage_lsc();
            black_box(run_once(p, &trace, UpdateScenario::RereadAtRetire))
        })
    });
    g.bench_function("tage_ref_streamed", |b| {
        // Generation fused into simulation: no materialized event vector.
        b.iter(|| {
            let p = tage::Tage::reference_64kb();
            black_box(run_streamed(p, "CLIENT08", UpdateScenario::RereadAtRetire))
        })
    });
    g.finish();

    let mut g = c.benchmark_group("components");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(800));
    g.bench_function("trace_generation_tiny", |b| {
        b.iter(|| black_box(bench_trace("SERVER04")))
    });
    g.bench_function("folded_history_update", |b| {
        let mut gh = simkit::GlobalHistory::new();
        let mut fh = simkit::FoldedHistory::new(2000, 12);
        let mut bit = false;
        b.iter(|| {
            bit = !bit;
            gh.push(bit);
            fh.update(&gh);
            black_box(fh.value())
        })
    });
    g.finish();
}

criterion_group!(benches, throughput);
criterion_main!(benches);
