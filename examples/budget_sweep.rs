//! A miniature Figure 9: sweep the storage budget of TAGE and TAGE-LSC
//! over a few traces and watch the curves.
//!
//! ```text
//! cargo run --release --example budget_sweep
//! ```

use pipeline::{simulate_engine, PipelineConfig, WindowEngine};
use simkit::UpdateScenario;
use tage::TageSystem;
use workloads::suite::{by_name, Scale};

fn main() {
    let names = ["CLIENT07", "INT03", "MM06", "WS07"];
    let traces: Vec<workloads::Trace> =
        names.iter().map(|n| by_name(n, Scale::Small).unwrap().generate()).collect();
    let cfg = PipelineConfig::default();
    let labels = ["128K", "256K", "512K", "1M", "2M", "4M"];

    println!("mean MPKI over {:?}\n", names);
    println!("{:>8} {:>12} {:>12} {:>14}", "budget", "TAGE", "TAGE-LSC", "LSC advantage");
    // Cold predictor per trace, per size — the CBP convention.
    let mean = |make: &dyn Fn() -> TageSystem| -> f64 {
        let sum: f64 = traces
            .iter()
            .map(|tr| {
                let mut engine = WindowEngine::new(make(), UpdateScenario::RereadAtRetire, &cfg);
                simulate_engine(&mut engine, &mut tr.stream()).mpki()
            })
            .sum();
        sum / traces.len() as f64
    };
    for (i, delta) in (-2i32..=3).enumerate() {
        let t = mean(&|| TageSystem::scaled_tage(delta));
        let l = mean(&|| TageSystem::scaled_tage_lsc(delta));
        println!("{:>8} {:>12.3} {:>12.3} {:>13.1}%", labels[i], t, l, (t - l) / t * 100.0);
    }
    println!("\nBoth curves fall with budget; TAGE-LSC stays ahead at every");
    println!("size — §6.2's claim that a small LSC is worth a 4-8x budget");
    println!("multiplication of the main predictor in this range.");
}
