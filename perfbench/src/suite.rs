//! `paper_suite`: every figure and table `repro all` prints.
//!
//! One pass calls the same public `willow_sim::experiments` and
//! `willow_testbed::experiments` functions as `repro all`, with the run's
//! seed (the default seed is `repro`'s 2011) and `repro`'s tick
//! constants. A pass is this workload's unit of work: the end-to-end
//! tick figures are per pass, i.e. the suite's wall time. After one
//! warm-up pass, passes repeat until the time is up and each must
//! reproduce the first pass's results exactly.

use crate::harness::{self, Digest, RunResult};
use std::fmt::Debug;
use std::time::Instant;
use willow_sim::experiments as sim_exp;
use willow_sim::metrics::FabricSnapshot;
use willow_sim::{SimConfig, Simulation};
use willow_testbed::experiments as tb_exp;

/// `repro`'s tick and seed-count constants.
const TICKS: usize = 300;
const N_SEEDS: usize = 5;
/// Set-up repetitions: one paper-sized simulation built and warmed up.
const SETUPS: usize = 16;

/// Host time spent per layer in one pass.
#[derive(Default)]
struct Spans {
    sim: f64,
    testbed: f64,
    thermal: f64,
}

/// Run `f`, fold its result into `digest`, and return the seconds taken.
fn call<T: Debug>(digest: &mut Digest, f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    let out = f();
    let dt = harness::secs(t0);
    digest.bytes(format!("{out:?}").as_bytes());
    dt
}

fn pass(seed: u64, spans: &mut Spans) -> Digest {
    let mut d = Digest::default();
    // Thermal calibration: Fig. 4, Fig. 14 and the c1/c2 refit.
    spans.thermal += call(&mut d, sim_exp::fig4);
    spans.thermal += call(&mut d, sim_exp::fig14);
    spans.thermal += call(&mut d, tb_exp::parameter_estimation);
    // Simulator experiments.
    spans.sim += call(&mut d, || sim_exp::fig5_fig6(seed, TICKS, N_SEEDS));
    spans.sim += call(&mut d, || sim_exp::fig7(seed, TICKS, N_SEEDS));
    spans.sim += call(&mut d, || sim_exp::fig9_fig10(seed, TICKS, N_SEEDS));
    spans.sim += call(&mut d, || sim_exp::fig11_fig12(seed, TICKS, N_SEEDS));
    spans.sim += call(&mut d, || sim_exp::ext_imbalance(seed, TICKS, N_SEEDS));
    spans.sim += call(&mut d, || sim_exp::ext_baseline(seed, TICKS));
    // Testbed emulation: Tables I–II, Figs. 15–18, Fig. 19 + Table III.
    spans.testbed += call(&mut d, || tb_exp::measure_table1(seed));
    spans.testbed += call(&mut d, willow_testbed::apps::table2);
    spans.testbed += call(&mut d, || tb_exp::deficit_experiment(seed));
    spans.testbed += call(&mut d, || tb_exp::consolidation_experiment(seed));
    d
}

/// Set-up of one of the suite's simulations: the paper's 18-server
/// hot/cold configuration, built and run through its warm-up ticks.
fn setup(seed: u64) -> f64 {
    let t0 = Instant::now();
    let cfg = SimConfig::paper_hot_cold(seed, 0.4);
    let warmup = cfg.warmup;
    let mut sim = Simulation::new(cfg).expect("valid paper config");
    let mut report = willow_core::migration::TickReport::default();
    let mut fabric = FabricSnapshot::default();
    for _ in 0..warmup {
        sim.step_into_buffers(&mut report, &mut fabric);
    }
    std::hint::black_box(&report);
    harness::secs(t0)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut res = RunResult {
        setup_s: (0..SETUPS).map(|_| setup(seed)).collect(),
        ..RunResult::default()
    };
    let mut spans = Spans::default();
    let first = pass(seed, &mut spans);
    spans = Spans::default();
    let t_run = Instant::now();
    let mut passes = 0u64;
    while passes < 2 || harness::secs(t_run) < seconds {
        let t0 = Instant::now();
        let d = pass(seed, &mut spans);
        res.tick_s.push(harness::secs(t0));
        res.outcomes.failed_ticks += u64::from(d != first);
        res.check(d == first, || {
            format!("paper_suite: pass {passes} differs from the warm-up pass (same seed)")
        });
        passes += 1;
    }
    if trace {
        let per_pass = |s: f64| 1e3 * s / passes as f64;
        res.layers
            .insert("sim.experiments_ms_per_pass", per_pass(spans.sim));
        res.layers
            .insert("testbed.ms_per_pass", per_pass(spans.testbed));
        res.layers
            .insert("thermal.calibration_ms_per_pass", per_pass(spans.thermal));
    }
    res
}
