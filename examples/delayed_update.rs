//! The §4 motivation: what delayed, stale predictor updates cost — and
//! why TAGE tolerates them while gshare and GEHL do not.
//!
//! Runs the three predictors under the four update scenarios of §4.1.2 on
//! a delayed-update-sensitive trace (tight loops + phase-flipping hot
//! branches) and prints the relative accuracy loss.
//!
//! ```text
//! cargo run --release --example delayed_update
//! ```

use baselines::{Gehl, Gshare};
use pipeline::{simulate_engine, PipelineConfig, WindowEngine};
use simkit::{Predictor, UpdateScenario};
use tage::TageSystem;
use workloads::suite::{by_name, Scale};

fn main() {
    let trace = by_name("CLIENT04", Scale::Small).expect("known trace").generate();
    let cfg = PipelineConfig::default();
    println!("trace {}: tight loops + phase-flipping branches\n", trace.name);
    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7}",
        "predictor", "[I]", "[A]", "[B]", "[C]", "B vs I", "C vs I"
    );

    run("gshare", &trace, &cfg, Gshare::cbp_512k);
    run("GEHL", &trace, &cfg, Gehl::cbp_520k);
    run("TAGE", &trace, &cfg, TageSystem::reference_tage);
    run("TAGE+IUM", &trace, &cfg, TageSystem::tage_ium);

    println!("\n[I] oracle immediate update  [A] reread at retire");
    println!("[B] fetch-time values only   [C] reread only on mispredictions");
    println!("The paper's case: TAGE can skip the retire-time read ([C], even");
    println!("[B]) almost for free, enabling single-ported predictor tables;");
    println!("the IUM (§5.1) recovers most of what remains.");
}

fn run<P>(name: &str, trace: &workloads::Trace, cfg: &PipelineConfig, make: impl Fn() -> P)
where
    P: Predictor + Send,
    P::Flight: Send,
{
    let mut m = [0u64; 4];
    for (k, scen) in UpdateScenario::ALL.iter().enumerate() {
        let mut engine = WindowEngine::new(make(), *scen, cfg);
        m[k] = simulate_engine(&mut engine, &mut trace.stream()).mispredicts;
    }
    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>6.1}% {:>6.1}%",
        name,
        m[0],
        m[1],
        m[2],
        m[3],
        (m[2] as f64 / m[0] as f64 - 1.0) * 100.0,
        (m[3] as f64 / m[0] as f64 - 1.0) * 100.0
    );
}
