//! `brownout_churn`: the churn regime.
//!
//! One `Simulation` of 2,187 servers (`[3, 9, 9, 9]`) on the paper's
//! random mix with drift at U = 0.6, Reactive defaults, one thread. Supply
//! follows a repeating staged brownout (100 % → 85 % → 70 % → 85 % →
//! 100 % of nominal). The run is a sequence of identical episodes with
//! the same seed: each builds the simulation, warms it up, then times two
//! brownout cycles tick by tick. Every episode must reproduce the first
//! one's trajectory digest.
//!
//! The engine draws demand and audits inside its tick; a traced run
//! times both through [`Shadow`] calls on the dense-telemetry ticks, and
//! the rest of the tick outside the five phase spans is reported as
//! unattributed (command plane, planning feed, fabric snapshot).

use crate::harness::{self, Digest, Mode, RunResult, Tracing};
use crate::shadow::Shadow;
use std::time::Instant;
use willow_core::migration::TickReport;
use willow_power::SupplyTrace;
use willow_sim::metrics::FabricSnapshot;
use willow_sim::{SimConfig, Simulation};

const BRANCHING: [usize; 4] = [3, 9, 9, 9];
const UTILIZATION: f64 = 0.6;
/// Warm-up ticks at full supply, inside set-up.
const WARMUP: usize = 24;
/// Ticks each supply stage is held.
const STAGE_TICKS: usize = 16;
/// Supply stages of one brownout cycle, as fractions of nominal.
const STAGES: [f64; 6] = [1.0, 1.0, 0.85, 0.7, 0.7, 0.85];
/// Timed ticks per episode: two brownout cycles.
const EPISODE: usize = 2 * STAGE_TICKS * STAGES.len();

fn config(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_default(seed, UTILIZATION);
    cfg.branching = BRANCHING.to_vec();
    cfg.ticks = WARMUP + EPISODE;
    cfg.warmup = 0;
    cfg.controller.threads = 1;
    let eta1 = cfg.controller.eta1 as usize;
    let nominal = cfg.ample_supply();
    let level = |t: usize| {
        if t < WARMUP {
            1.0
        } else {
            STAGES[(t - WARMUP) / STAGE_TICKS % STAGES.len()]
        }
    };
    cfg.supply = Some(SupplyTrace::new(
        (0..cfg.ticks / eta1 + 1)
            .map(|p| nominal * level(p * eta1))
            .collect(),
    ));
    cfg
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut res = RunResult {
        servers: BRANCHING.iter().product(),
        ..RunResult::default()
    };
    let mut tracing = Tracing::new(trace);
    let mut first: Option<Digest> = None;
    let (mut draw_s, mut audit_s) = (0.0, 0.0);
    let mut packing = [0u64; 3];
    let mut allocs = 0u64;
    let mut report = TickReport::default();
    let mut fabric = FabricSnapshot::default();
    let t_run = Instant::now();
    let mut episode = 0u64;
    while episode < 2 || harness::secs(t_run) < seconds {
        let mut digest = Digest::default();
        let t0 = Instant::now();
        let mut sim = Simulation::new(config(seed)).expect("valid brownout config");
        for _ in 0..WARMUP {
            sim.step_into_buffers(&mut report, &mut fabric);
            digest.report(&report);
        }
        res.setup_s.push(harness::secs(t0));
        let placed = harness::hosted_apps(sim.willow());
        let mut shadow = trace.then(|| Shadow::new(&[sim.willow()], seed));
        let mut attached = None;
        for t in 0..EPISODE as u64 {
            let mode = tracing.mode(t, episode);
            if let Some(registry) = tracing.attach(mode, &mut attached) {
                sim.attach_telemetry(registry);
            }
            let stats0 = sim.willow().stats();
            let v0 = sim.invariant_violations();
            let a0 = harness::allocations();
            let t0 = Instant::now();
            sim.step_into_buffers(&mut report, &mut fabric);
            let dt = harness::secs(t0);
            allocs += harness::allocations() - a0;
            res.tick_s.push(dt);
            tracing.record(mode, dt);
            crate::add_packing(&mut packing, stats0, sim.willow().stats());
            digest.report(&report);
            res.outcomes.zone_report(&report);
            res.outcomes.end_tick(sim.invariant_violations() > v0);
            if let (Some(sh), Mode::Dense) = (&mut shadow, mode) {
                draw_s += sh.draw(0, UTILIZATION);
                audit_s += sh.audit(0, sim.willow(), &mut res);
            }
        }
        let hosted = harness::hosted_apps(sim.willow());
        res.check(hosted == placed, || {
            format!("brownout_churn: {hosted} apps hosted, {placed} placed")
        });
        match first {
            None => first = Some(digest),
            Some(d) => res.check(d == digest, || {
                format!("brownout_churn: episode {episode} differs from episode 0 (same seed)")
            }),
        }
        episode += 1;
    }
    let ticks = res.tick_s.len() as u64;
    res.allocs_per_tick = allocs as f64 / ticks as f64;
    let o = res.outcomes.clone();
    res.check(o.failed_ticks == 0, || {
        format!(
            "brownout_churn: {} ticks with invariant violations",
            o.failed_ticks
        )
    });
    // Validity: the brownout must actually shed demand and run the packers.
    res.check(o.dropped_w > 0.0, || {
        "brownout_churn: no demand was dropped".into()
    });
    res.check(packing[0] > 0, || {
        "brownout_churn: no packing instance was solved".into()
    });

    if trace {
        let layers = &mut res.layers;
        let staged = tracing.publish(1.0, layers);
        let dense = tracing.dense_ticks();
        let per_tick = |s: f64| 1e3 * s / dense.len().max(1) as f64;
        let (draw, audit) = (per_tick(draw_s), per_tick(audit_s));
        layers.insert("workload.draw_ms_per_tick", draw);
        layers.insert("audit.ms_per_tick", audit);
        layers.insert(
            "controller.unattributed_ms_per_tick",
            1e3 * harness::mean(dense) - staged - draw - audit,
        );
        layers.insert("engine.allocs_per_tick", res.allocs_per_tick);
        crate::publish_packing(packing, o.demand_migrations, ticks, layers);
    }
    res
}
