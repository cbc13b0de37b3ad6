//! `steady_fleet`: the quiet 100k-server regime.
//!
//! 104,976 servers (`[16, 9, 9, 9, 9]`), one app of each simulation class
//! per server at U = 0.4, ample supply, Reactive defaults. Inputs are the
//! constant per-app means with a seeded ±5 % perturbation of 1 % of the
//! apps per tick, generated outside the timed region. One timed tick is
//! `Willow::step_into` followed by `Auditor::check`, as the engine runs
//! them. The engine itself is bypassed: its tick-0 consolidation storm on
//! the random mix does not finish at this size.
//!
//! The timed run is serial. On a 2-vCPU host the sharded step stalls at
//! its barrier whenever the hypervisor preempts either vCPU, which made
//! run-to-run spread of the 2-thread tick 10–50 % against 4 % serial.
//! The sharded pipeline (`min(2, host_cpus)` threads) runs as a twin
//! that replays the first ticks: it must match the serial run bit for
//! bit, and a traced run reports its speed-up.

use crate::harness::{self, Digest, Mode, RunResult, Tracing};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use willow_core::audit::Auditor;
use willow_core::config::ControllerConfig;
use willow_core::controller::Willow;
use willow_core::migration::TickReport;
use willow_core::server::ServerSpec;
use willow_core::Disturbances;
use willow_thermal::units::Watts;
use willow_topology::Tree;
use willow_workload::app::{AppId, Application, SIM_APP_CLASSES};

const BRANCHING: [usize; 5] = [16, 9, 9, 9, 9];
const UTILIZATION: f64 = 0.4;
/// Warm-up ticks inside set-up: covers the first supply (η1 = 4) and
/// consolidation (η2 = 7) ticks.
const WARMUP: usize = 8;
/// Ticks replayed by the sharded twin and the serial repeat run.
const CHECK_TICKS: usize = 24;
/// One app in this many is perturbed per tick.
const PERTURB_EVERY: usize = 100;
const PERTURB_AMPLITUDE: f64 = 0.05;

struct Fleet {
    willow: Willow,
    auditor: Auditor,
    base: Vec<Watts>,
    demands: Vec<Watts>,
    touched: Vec<usize>,
    rng: StdRng,
    supply: Watts,
    quiet: Disturbances,
    report: TickReport,
}

impl Fleet {
    /// Build the fleet and run the warm-up; returns it with its set-up
    /// time in seconds.
    fn build(seed: u64, threads: usize) -> (Fleet, f64) {
        let t0 = Instant::now();
        let tree = Tree::uniform(&BRANCHING);
        let mut id = 0u32;
        let specs: Vec<ServerSpec> = tree
            .leaves()
            .map(|leaf| {
                let apps: Vec<Application> = (0..SIM_APP_CLASSES.len())
                    .map(|class| {
                        let a = Application::new(AppId(id), class, &SIM_APP_CLASSES[class]);
                        id += 1;
                        a
                    })
                    .collect();
                ServerSpec::simulation_default(leaf).with_apps(apps)
            })
            .collect();
        let servers = specs.len();
        let config = ControllerConfig {
            threads,
            ..ControllerConfig::default()
        };
        let willow = Willow::new(tree, specs, config).expect("valid steady fleet");
        let auditor = Auditor::new(&willow);
        let base: Vec<Watts> = (0..id as usize)
            .map(|i| SIM_APP_CLASSES[i % SIM_APP_CLASSES.len()].mean_power * UTILIZATION)
            .collect();
        let mut fleet = Fleet {
            willow,
            auditor,
            demands: base.clone(),
            base,
            touched: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            supply: Watts(servers as f64 * 450.0),
            quiet: Disturbances::none(),
            report: TickReport::default(),
        };
        for _ in 0..WARMUP {
            fleet.perturb();
            fleet.step();
            fleet.audit();
        }
        (fleet, harness::secs(t0))
    }

    /// Restore last tick's perturbed apps and perturb a fresh 1 %.
    fn perturb(&mut self) {
        for &i in &self.touched {
            self.demands[i] = self.base[i];
        }
        self.touched.clear();
        let n = self.base.len();
        for _ in 0..n / PERTURB_EVERY {
            let i = self.rng.gen_range(0..n);
            let f = 1.0 + PERTURB_AMPLITUDE * (2.0 * self.rng.gen::<f64>() - 1.0);
            self.demands[i] = self.base[i] * f;
            self.touched.push(i);
        }
    }

    fn step(&mut self) {
        self.willow
            .step_into(&self.demands, self.supply, &self.quiet, &mut self.report);
    }

    fn audit(&mut self) -> usize {
        self.auditor.check(&self.willow).len()
    }
}

/// Digest of `ticks` ticks of a freshly built fleet with `threads`
/// threads, plus its set-up time and mean step time.
fn replay(seed: u64, threads: usize, ticks: usize) -> (Digest, f64, f64) {
    let (mut fleet, setup) = Fleet::build(seed, threads);
    let mut digest = Digest::default();
    let mut step_s = 0.0;
    for _ in 0..ticks {
        fleet.perturb();
        let t0 = Instant::now();
        fleet.step();
        step_s += harness::secs(t0);
        fleet.audit();
        digest.report(&fleet.report);
    }
    (digest, setup, step_s / ticks as f64)
}

/// Threads of the sharded twin.
pub fn shard_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(2)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut res = RunResult::default();
    let (mut fleet, setup) = Fleet::build(seed, 1);
    res.setup_s.push(setup);
    res.servers = fleet.willow.servers().len();
    let apps = fleet.base.len();

    let mut tracing = Tracing::new(trace);
    let mut attached = None;
    let mut digest = Digest::default();
    let (mut step_all, mut step_dense, mut audit_dense) = (Vec::new(), Vec::new(), Vec::new());
    let (mut step_allocs, mut tick_allocs) = (0u64, 0u64);
    let mut packing = [0u64; 3];
    let t_run = Instant::now();
    let mut n: u64 = 0;
    while harness::secs(t_run) < seconds || n < CHECK_TICKS as u64 {
        let mode = tracing.mode(n, 0);
        if let Some(registry) = tracing.attach(mode, &mut attached) {
            fleet.willow.attach_telemetry(registry);
        }
        fleet.perturb();
        let stats0 = fleet.willow.stats();
        let a0 = harness::allocations();
        let t0 = Instant::now();
        fleet.step();
        let t1 = Instant::now();
        let a1 = harness::allocations();
        let violations = fleet.audit();
        let t2 = Instant::now();
        let a2 = harness::allocations();

        let (step, tick) = ((t1 - t0).as_secs_f64(), (t2 - t0).as_secs_f64());
        res.tick_s.push(tick);
        step_all.push(step);
        step_allocs += a1 - a0;
        tick_allocs += a2 - a0;
        tracing.record(mode, tick);
        if mode == Mode::Dense {
            step_dense.push(step);
            audit_dense.push((t2 - t1).as_secs_f64());
        }
        crate::add_packing(&mut packing, stats0, fleet.willow.stats());
        if (n as usize) < CHECK_TICKS {
            digest.report(&fleet.report);
        }
        res.outcomes.zone_report(&fleet.report);
        res.outcomes.end_tick(violations > 0);
        n += 1;
    }
    res.allocs_per_tick = tick_allocs as f64 / n as f64;
    let hosted = harness::hosted_apps(&fleet.willow);
    drop(fleet);

    // Correctness: the sharded twin and a serial repeat replay the first
    // ticks and must match the measured run bit for bit.
    let (sharded, _, sharded_step) = replay(seed, shard_threads(), CHECK_TICKS);
    res.check(sharded == digest, || {
        "steady_fleet: sharded twin differs from the serial run".into()
    });
    let (repeat, repeat_setup, _) = replay(seed, 1, CHECK_TICKS);
    res.setup_s.push(repeat_setup);
    res.check(repeat == digest, || {
        "steady_fleet: repeat with the same seed differs".into()
    });
    // A third serial set-up, so set-up time is a median of three.
    res.setup_s.push(Fleet::build(seed, 1).1);
    let o = res.outcomes.clone();
    res.check(o.failed_ticks == 0, || {
        format!(
            "steady_fleet: {} ticks with audit violations",
            o.failed_ticks
        )
    });
    res.check(hosted == apps, || {
        format!("steady_fleet: {hosted} apps hosted, {apps} placed")
    });
    // Validity: the quiet regime must stay quiet.
    res.check(o.migrations == 0 && o.sleeps == 0, || {
        format!(
            "steady_fleet: {} migrations and {} sleeps (want 0 and 0)",
            o.migrations, o.sleeps
        )
    });

    if trace {
        let layers = &mut res.layers;
        let staged = tracing.publish(1.0, layers);
        layers.insert(
            "controller.unattributed_ms_per_tick",
            1e3 * harness::mean(&step_dense) - staged,
        );
        layers.insert("audit.ms_per_tick", 1e3 * harness::mean(&audit_dense));
        layers.insert("controller.allocs_per_tick", step_allocs as f64 / n as f64);
        layers.insert("engine.allocs_per_tick", res.allocs_per_tick);
        // The sharded twin replays only the first ticks; compare it with
        // the same ticks of the serial run.
        let serial_step = harness::mean(&step_all[..CHECK_TICKS]);
        layers.insert("shard.speedup", serial_step / sharded_step);
        crate::publish_packing(packing, o.demand_migrations, n, layers);
    }
    res
}
