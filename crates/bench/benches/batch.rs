//! Block-engine throughput on the ISL-TAGE stack and gshare: the two ends
//! of the per-event cost spectrum. ISL-TAGE's table walks dominate its
//! per-event cost; on gshare the window and the per-block dispatch are
//! most of it. Both rows drive a `pipeline::WindowEngine` through
//! `simulate_engine`, the one simulation route.

use bench::bench_trace;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pipeline::{simulate_engine, PipelineConfig, WindowEngine, DEFAULT_BATCH};
use simkit::UpdateScenario;
use std::hint::black_box;
use workloads::event::TraceStream;

fn batch(c: &mut Criterion) {
    let trace = bench_trace("CLIENT08");
    let branches = trace.conditional_count();
    let cfg = PipelineConfig::default();
    let scenario = UpdateScenario::RereadAtRetire;
    let mut g = c.benchmark_group("batch_throughput");
    g.throughput(Throughput::Elements(branches));
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(800));

    g.bench_function(&format!("isl_tage_engine_batch{DEFAULT_BATCH}"), |b| {
        b.iter(|| {
            let mut e = WindowEngine::new(tage::TageSystem::isl_tage(), scenario, &cfg);
            black_box(simulate_engine(&mut e, &mut TraceStream::new(&trace)))
        })
    });
    g.bench_function(&format!("gshare_engine_batch{DEFAULT_BATCH}"), |b| {
        b.iter(|| {
            let mut e = WindowEngine::new(baselines::Gshare::cbp_512k(), scenario, &cfg);
            black_box(simulate_engine(&mut e, &mut TraceStream::new(&trace)))
        })
    });
    g.finish();
}

criterion_group!(benches, batch);
criterion_main!(benches);
