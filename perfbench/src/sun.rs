//! `follow_the_sun`: three zones under one forecasting supply broker.
//!
//! `FederatedSimulation` with 3 zones of 729 servers (`[9, 9, 9]`), each
//! on a phase-shifted trapezoid diurnal profile (0.12 night ↔ 0.68 day),
//! Predictive supply policy, `forecast_apportionment` on, one thread per
//! zone. A `ZoneOutagePlan` schedules one controller crash, one
//! isolation, one stale-report window and one broker crash per episode.
//! Episodes repeat with the same seed and must reproduce the first
//! episode's digest.
//!
//! The federation cannot attach controller telemetry to its zones (the
//! registry is name-keyed). A traced run therefore steps a standalone
//! twin of zone 0 with the supply the broker gave zone 0, reads the phase
//! histograms from the twin (scaled by the zone count), and checks that
//! the twin's reports equal zone 0's bit for bit. Demand draw, audit and
//! checkpoint capture are timed through shadow calls; the rest of the
//! federated tick is unattributed (broker, command plane, planning feed,
//! crash-zone checkpoints and recovery).

use crate::harness::{self, Digest, Mode, RunResult, Tracing};
use crate::shadow::Shadow;
use std::time::Instant;
use willow_core::config::SupplyPolicyChoice;
use willow_core::controller::Willow;
use willow_core::migration::TickReport;
use willow_core::snapshot::WillowSnapshot;
use willow_core::ZoneCondition;
use willow_sim::faults::ControllerOutage;
use willow_sim::metrics::FabricSnapshot;
use willow_sim::{
    FederateConfig, FederatedSimulation, SimConfig, Simulation, ZoneOutage, ZoneOutageKind,
    ZoneOutagePlan,
};
use willow_workload::trace::trapezoid_diurnal_profile;

const ZONES: usize = 3;
const BRANCHING: [usize; 3] = [9, 9, 9];
const NIGHT_U: f64 = 0.12;
const DAY_U: f64 = 0.68;
/// Ticks per simulated day and per ramp.
const DAY: usize = 96;
const RAMP: usize = 16;
/// Warm-up ticks inside set-up.
const WARMUP: usize = 16;
/// Timed ticks per episode: two days.
const EPISODE: usize = 2 * DAY;
const TICKS: usize = WARMUP + EPISODE;
/// Checkpoint cadence of the outage plan and of traced snapshot spans.
const CHECKPOINT_PERIOD: u64 = 10;

fn window(from: usize, len: usize) -> (u64, u64) {
    ((WARMUP + from) as u64, (WARMUP + from + len) as u64)
}

fn outage(zone: usize, kind: ZoneOutageKind, from: usize, len: usize) -> ZoneOutage {
    let (from, until) = window(from, len);
    ZoneOutage {
        zone,
        kind,
        from,
        until,
    }
}

/// Utilization trace of `zone`: the shared profile shifted by a third of
/// a day per zone.
fn profile(zone: usize) -> Vec<f64> {
    let shift = zone * DAY / ZONES;
    let day = trapezoid_diurnal_profile(TICKS + DAY, NIGHT_U, DAY_U, DAY, RAMP);
    day[shift..shift + TICKS].to_vec()
}

fn zone_config(seed: u64, zone: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_default(seed ^ (zone as u64 + 21), DAY_U);
    cfg.branching = BRANCHING.to_vec();
    cfg.ticks = TICKS;
    cfg.warmup = 0;
    cfg.controller.threads = 1;
    cfg.controller.supply_policy = SupplyPolicyChoice::Predictive;
    cfg.utilization_trace = Some(profile(zone));
    cfg
}

fn config(seed: u64) -> FederateConfig {
    let mut fed = FederateConfig::new((0..ZONES).map(|z| zone_config(seed, z)).collect());
    fed.broker.forecast_apportionment = true;
    let (from, until) = window(150, 8);
    fed.plan = Some(ZoneOutagePlan {
        checkpoint_period: CHECKPOINT_PERIOD,
        broker_crash: vec![ControllerOutage { from, until }],
        outages: vec![
            outage(1, ZoneOutageKind::ControllerCrash, 40, 12),
            outage(2, ZoneOutageKind::Isolation, 80, 12),
            outage(0, ZoneOutageKind::StaleReports, 110, 12),
        ],
    });
    fed
}

/// Zone 0's effective condition at `tick`, as the federation applies it.
fn zone0_condition(plan: &ZoneOutagePlan, tick: u64) -> ZoneCondition {
    match plan.zone_condition(0, tick) {
        ZoneCondition::Down => ZoneCondition::Down,
        _ if plan.broker_down(tick) => ZoneCondition::Isolated,
        c => c,
    }
}

struct Twin {
    sim: Simulation,
    report: TickReport,
    fabric: FabricSnapshot,
}

impl Twin {
    /// Step the twin with the supply the broker gave zone 0 on the tick
    /// `fed` just ran; returns the step's seconds.
    fn step(&mut self, fed: &FederatedSimulation, plan: &ZoneOutagePlan) -> f64 {
        let tick = self.sim.tick();
        let supply = fed.broker().zone_supply(0, zone0_condition(plan, tick));
        let t0 = Instant::now();
        self.sim
            .step_with_supply(supply, &mut self.report, &mut self.fabric);
        harness::secs(t0)
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut res = RunResult {
        servers: ZONES * BRANCHING.iter().product::<usize>(),
        ..RunResult::default()
    };
    let cfg = config(seed);
    let plan = cfg.plan.clone().expect("plan is set");
    let mut tracing = Tracing::new(trace);
    let mut first: Option<Digest> = None;
    let mut fed_dense = Vec::new();
    let (mut draw_s, mut audit_s, mut snap_s, mut snaps) = (0.0, 0.0, 0.0, 0u64);
    let (mut open_loop, mut recoveries, mut rejoins, mut broker_recoveries) = (0, 0, 0, 0);
    let mut packing = [0u64; 3];
    let mut allocs = 0u64;
    let mut reports = vec![TickReport::default(); ZONES];
    let mut fabrics = vec![FabricSnapshot::default(); ZONES];
    let t_run = Instant::now();
    let mut episode = 0u64;
    while episode < 2 || harness::secs(t_run) < seconds {
        let mut digest = Digest::default();
        let mut twin = trace.then(|| Twin {
            sim: Simulation::new(zone_config(seed, 0)).expect("valid zone config"),
            report: TickReport::default(),
            fabric: FabricSnapshot::default(),
        });
        let t0 = Instant::now();
        let mut fed = FederatedSimulation::new(cfg.clone()).expect("valid federation");
        for _ in 0..WARMUP {
            fed.step_into_buffers(&mut reports, &mut fabrics);
            for r in &reports {
                digest.report(r);
            }
            if let Some(tw) = &mut twin {
                tw.step(&fed, &plan);
            }
        }
        res.setup_s.push(harness::secs(t0));
        let zones: Vec<&Willow> = fed.zones().iter().map(Simulation::willow).collect();
        let placed: usize = zones.iter().map(|w| harness::hosted_apps(w)).sum();
        let mut shadow = trace.then(|| Shadow::new(&zones, seed));
        let mut snapshots: Vec<WillowSnapshot> = if trace {
            zones.iter().map(|w| w.snapshot()).collect()
        } else {
            Vec::new()
        };
        let mut attached = None;
        for t in WARMUP..TICKS {
            let mode = tracing.mode((t - WARMUP) as u64, episode);
            if let (Some(tw), Some(registry)) = (&mut twin, tracing.attach(mode, &mut attached)) {
                tw.sim.attach_telemetry(registry);
            }
            let stats0: Vec<_> = fed.zones().iter().map(|z| z.willow().stats()).collect();
            let v0: usize = fed
                .zones()
                .iter()
                .map(Simulation::invariant_violations)
                .sum();
            let ol0: Vec<usize> = fed
                .zones()
                .iter()
                .map(Simulation::open_loop_ticks)
                .collect();
            let b0 = fed.broker().counters().conservation_violations;
            let a0 = harness::allocations();
            let t0 = Instant::now();
            fed.step_into_buffers(&mut reports, &mut fabrics);
            let dt = harness::secs(t0);
            allocs += harness::allocations() - a0;
            res.tick_s.push(dt);
            for (z, s0) in fed.zones().iter().zip(stats0) {
                crate::add_packing(&mut packing, s0, z.willow().stats());
            }
            for r in &reports {
                digest.report(r);
                res.outcomes.zone_report(r);
            }
            let v1: usize = fed
                .zones()
                .iter()
                .map(Simulation::invariant_violations)
                .sum();
            let b1 = fed.broker().counters().conservation_violations;
            res.outcomes.end_tick(v1 > v0 || b1 > b0);
            if let Some(tw) = &mut twin {
                tracing.record(mode, tw.step(&fed, &plan));
                res.check(Digest::of(&tw.report) == Digest::of(&reports[0]), || {
                    format!("follow_the_sun: zone 0 twin diverged at tick {t}")
                });
            }
            if let (Some(sh), Mode::Dense) = (&mut shadow, mode) {
                fed_dense.push(dt);
                for (z, zone) in fed.zones().iter().enumerate() {
                    let u = zone.config().utilization_trace.as_ref().expect("trace")[t];
                    draw_s += sh.draw(z, u);
                    audit_s += sh.audit(z, zone.willow(), &mut res);
                    let closed = zone.open_loop_ticks() == ol0[z];
                    if closed && (t as u64).is_multiple_of(CHECKPOINT_PERIOD) {
                        let t0 = Instant::now();
                        zone.willow().snapshot_into(&mut snapshots[z]);
                        snap_s += harness::secs(t0);
                        snaps += 1;
                    }
                }
            }
        }
        let hosted: usize = fed
            .zones()
            .iter()
            .map(|z| harness::hosted_apps(z.willow()))
            .sum();
        res.check(hosted == placed, || {
            format!("follow_the_sun: {hosted} apps hosted, {placed} placed")
        });
        open_loop += fed
            .zones()
            .iter()
            .map(Simulation::open_loop_ticks)
            .sum::<usize>();
        recoveries += fed
            .zones()
            .iter()
            .map(Simulation::controller_recoveries)
            .sum::<usize>();
        broker_recoveries += fed.broker_recoveries();
        rejoins += fed.zone_rejoins();
        match first {
            None => first = Some(digest),
            Some(d) => res.check(d == digest, || {
                format!("follow_the_sun: episode {episode} differs from episode 0 (same seed)")
            }),
        }
        episode += 1;
    }
    let ticks = res.tick_s.len() as u64;
    res.allocs_per_tick = allocs as f64 / ticks as f64;
    let o = res.outcomes.clone();
    res.check(o.failed_ticks == 0, || {
        format!(
            "follow_the_sun: {} ticks with violations or conservation breaches",
            o.failed_ticks
        )
    });
    // Validity: every defence and the consolidation cycle must run.
    res.check(
        recoveries >= 1 && broker_recoveries >= 1 && rejoins >= 1,
        || {
            format!(
                "follow_the_sun: {recoveries} zone recoveries, {broker_recoveries} broker \
                 recoveries, {rejoins} rejoins (want >= 1 each)"
            )
        },
    );
    res.check(o.sleeps > 0 && o.wakes > 0, || {
        format!(
            "follow_the_sun: {} sleeps, {} wakes (want > 0)",
            o.sleeps, o.wakes
        )
    });

    if trace {
        let layers = &mut res.layers;
        let per_episode = |v: usize| v as f64 / episode as f64;
        layers.insert("federate.open_loop_ticks", per_episode(open_loop));
        layers.insert(
            "federate.recoveries",
            per_episode(recoveries + broker_recoveries),
        );
        layers.insert("federate.rejoins", per_episode(rejoins));
        // Zone 0's twin stands in for each zone's controller phases.
        let staged = tracing.publish(ZONES as f64, layers);
        let per_tick = |s: f64| 1e3 * s / fed_dense.len().max(1) as f64;
        let (draw, audit) = (per_tick(draw_s), per_tick(audit_s));
        layers.insert("workload.draw_ms_per_tick", draw);
        layers.insert("audit.ms_per_tick", audit);
        layers.insert(
            "controller.unattributed_ms_per_tick",
            1e3 * harness::mean(&fed_dense) - staged - draw - audit,
        );
        layers.insert(
            "snapshot.ms_per_checkpoint",
            1e3 * snap_s / snaps.max(1) as f64,
        );
        layers.insert("engine.allocs_per_tick", res.allocs_per_tick);
        crate::publish_packing(packing, o.demand_migrations, ticks, layers);
    }
    res
}
