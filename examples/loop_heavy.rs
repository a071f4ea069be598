//! The §5.2 motivation: constant-trip loops with irregular bodies.
//!
//! Builds a custom workload (not from the suite) with a long constant-trip
//! loop whose body contains weakly biased branches, then shows that the
//! loop predictor turns the loop-exit mispredictions off while plain TAGE
//! cannot count iterations through the body noise.
//!
//! ```text
//! cargo run --release --example loop_heavy
//! ```

use pipeline::{simulate_engine, PipelineConfig, WindowEngine};
use simkit::UpdateScenario;
use tage::{SystemSpec, TageSystem};
use workloads::behavior::Behavior;
use workloads::program::{LoadModel, Node, PcAlloc, Program, Site, Trip};

fn main() {
    // for (i = 0; i < 37; i++) { if (noisy_condition) ... } — repeatedly.
    let mut a = PcAlloc::new(0x40_0000);
    let body = Node::Seq(vec![
        Node::Site(Site::new(a.pc(), Behavior::Bias { p: 0.85 })),
        Node::Site(Site::new(a.pc(), Behavior::Bias { p: 0.9 })),
    ]);
    let program = Program {
        name: "loop-heavy".into(),
        category: "EXAMPLE".into(),
        seed: 0xC0FFEE,
        root: Node::Loop {
            site: Site::new(a.pc(), Behavior::Random),
            trip: Trip::Fixed(37),
            body: Box::new(body),
        },
        loads: LoadModel::default(),
    };
    let trace = program.generate(60_000);
    let cfg = PipelineConfig::default();
    let scenario = UpdateScenario::RereadAtRetire;

    let run = |p: TageSystem| {
        simulate_engine(&mut WindowEngine::new(p, scenario, &cfg), &mut trace.stream())
    };
    let plain = run(TageSystem::tage_ium());
    let spec: SystemSpec = "tage+ium+loop".parse().expect("valid spec");
    let looped = run(spec.build().expect("spec builds"));

    println!("constant trip 37, noisy body — {} branches", trace.conditional_count());
    println!("TAGE+IUM       : {:6} mispredictions ({:.2} MPKI)", plain.mispredicts, plain.mpki());
    println!(
        "TAGE+IUM+loop  : {:6} mispredictions ({:.2} MPKI)",
        looped.mispredicts,
        looped.mpki()
    );
    let saved = plain.mispredicts.saturating_sub(looped.mispredicts);
    println!(
        "\nthe loop predictor removed {saved} mispredictions — roughly one per\n\
         loop execution ({} executions), which is exactly the §5.2 claim:\n\
         a 64-entry side predictor predicts regular loop exits that TAGE\n\
         cannot see through an irregular body.",
        trace.conditional_count() / 38
    );
}
