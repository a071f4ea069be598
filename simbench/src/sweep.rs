//! `sweep-small`: every registry experiment (E00–E15) at `Scale::Small`
//! through one `ExpContext` per round, with a materialised suite.

use harness::experiments::{by_id, prefetch, Experiment, ALL_EXPERIMENTS};
use harness::{ExpContext, ExpOptions};
use std::io;
use std::time::Duration;
use workloads::suite::Scale;

use crate::check::DigestStore;
use crate::sim::{self, digest, fnv};
use crate::spans::Tracer;
use crate::{Pass, Stopwatch, Workload, THREADS};

/// The workload state: the context the next round runs on.
pub struct Sweep {
    clk_tck: u64,
    seed: u64,
    ctx: Option<ExpContext>,
}

impl Sweep {
    pub fn new(clk_tck: u64, seed: u64) -> Self {
        Self {
            clk_tck,
            seed,
            ctx: None,
        }
    }
}

/// Set-up: generate the Small suite behind a fresh scheduler and memo.
fn context() -> ExpContext {
    ExpContext::with_options(
        Scale::Small,
        ExpOptions {
            threads: Some(THREADS),
            ..Default::default()
        },
    )
}

fn experiment(id: &str) -> &'static Experiment {
    // INVARIANT: ids come from ALL_EXPERIMENTS, the registry's own list.
    by_id(id).expect("registered experiment")
}

impl Workload for Sweep {
    fn setup(&mut self) -> io::Result<()> {
        self.ctx = None;
        self.ctx = Some(context());
        Ok(())
    }

    fn pass(&mut self, seconds: f64, traced: bool, store: &mut DigestStore) -> io::Result<Pass> {
        // The seed permutes the order experiments are submitted and
        // rendered in; the memo makes the set of simulations the same.
        let order: Vec<&str> = sim::permutation(ALL_EXPERIMENTS.len(), self.seed)
            .into_iter()
            .map(|i| ALL_EXPERIMENTS[i])
            .collect();
        let mut pass = Pass::default();
        let mut tracer = Tracer::new(traced, std::time::Instant::now());
        let mut rounds = 0u32;
        let mut round_ms = Vec::new();
        // Whole rounds, as many as fit in `seconds` (at least one); each
        // round gets a fresh context, built outside the timed region.
        loop {
            let ctx = self.ctx.take().unwrap_or_else(context);
            let sw = Stopwatch::start(self.clk_tck);
            tracer.time("harness.prefetch", rounds, || prefetch(&ctx, &order));
            let rendered: Vec<String> = order
                .iter()
                .map(|id| tracer.time("harness.render", rounds, || experiment(id).render(&ctx)))
                .collect();
            let (wall, cpu) = sw.read();
            pass.wall += wall;
            pass.cpu += cpu;
            round_ms.push(wall.as_secs_f64() * 1e3);
            let stats = ctx.scheduler_stats();
            pass.jobs_run += stats.sim_jobs_run;
            pass.jobs_requested += stats.sim_jobs_requested;
            pass.busy += Duration::from_nanos(stats.sim_busy_nanos);

            // Checks, after the counters were read: every requested cell
            // again (memo hits), and every rendered table.
            for (id, text) in order.iter().zip(&rendered) {
                pass.failed +=
                    u64::from(!store.check(format!("render {id}"), fnv(text.as_bytes())));
                for run in experiment(id).runs() {
                    let key = format!("{} {}", run.spec.sim_key(), run.scenario.label());
                    for r in &ctx.run_spec(&run.spec, run.scenario).reports {
                        pass.ops += 1;
                        pass.predictions += r.conditionals;
                        pass.failed +=
                            u64::from(!store.check(format!("{key} {}", r.trace), digest(r)));
                    }
                }
            }
            rounds += 1;
            if (pass.wall + pass.wall / rounds).as_secs_f64() > seconds {
                break;
            }
        }
        pass.spans = tracer.into_spans();
        pass.latency_blocks = vec![round_ms];
        Ok(pass)
    }
}
