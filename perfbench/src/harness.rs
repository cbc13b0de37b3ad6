//! Measurement plumbing shared by every workload: the counting allocator,
//! trajectory digests, percentiles, peak memory and the run result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use willow_core::controller::Willow;
use willow_core::migration::{MigrationReason, TickReport};
use willow_telemetry::{MetricValue, TelemetryRegistry};

/// Forwards to the system allocator while counting allocation calls.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Heap allocations made by this process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Peak resident memory of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Applications currently hosted across all servers of `w`.
pub fn hosted_apps(w: &Willow) -> usize {
    w.servers().iter().map(|s| s.apps.len()).sum()
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// A 64-bit FNV-1a style fold over words: cheap enough to run on every
/// measured tick (outside the timed region) and order-sensitive, so two
/// trajectories digest equal only if every folded value matches bit for
/// bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self.word(b.len() as u64);
    }

    /// Digest of a single report.
    pub fn of(r: &TickReport) -> Digest {
        let mut d = Digest::default();
        d.report(r);
        d
    }

    /// Fold everything a controller decided and observed in one tick.
    pub fn report(&mut self, r: &TickReport) {
        self.word(r.tick);
        self.word(u64::from(r.supply_tick) | u64::from(r.consolidation_tick) << 1);
        self.f64(r.dropped_demand.0);
        for m in &r.migrations {
            self.word(u64::from(m.app.0));
            self.word(u64::from(m.from.0) << 32 | u64::from(m.to.0));
            self.f64(m.moved.0);
            self.word(u64::from(m.pingpong));
        }
        for (((p, b), t), a) in r
            .server_power
            .iter()
            .zip(&r.server_budget)
            .zip(&r.server_temp)
            .zip(&r.server_active)
        {
            self.f64(p.0);
            self.f64(b.0);
            self.f64(t.0);
            self.word(u64::from(*a));
        }
        for n in r.slept.iter().chain(&r.woken) {
            self.word(u64::from(n.0));
        }
        self.word(r.control_messages as u64);
        self.word(r.migration_aborts as u64);
    }
}

/// Nearest-rank percentile of `sorted` (ascending), `q` in (0, 1].
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Simulated outcome of a run (deterministic for a seed): the
/// DataCenterGym-style objective vector, summed over zones.
#[derive(Debug, Default, Clone)]
pub struct Outcomes {
    /// Measured ticks (federated ticks count once).
    pub ticks: u64,
    pub dropped_w: f64,
    pub power_w: f64,
    pub migrations: u64,
    pub demand_migrations: u64,
    pub local_demand_migrations: u64,
    pub consolidation_migrations: u64,
    pub pingpongs: u64,
    pub sleeps: u64,
    pub wakes: u64,
    pub aborts: u64,
    pub control_messages: u64,
    pub peak_temp_c: f64,
    /// Ticks with an audit violation, a conservation breach or a lost app.
    pub failed_ticks: u64,
}

impl Outcomes {
    /// Fold one zone's report of the current tick (call `end_tick` once
    /// per tick after every zone's report).
    pub fn zone_report(&mut self, r: &TickReport) {
        self.dropped_w += r.dropped_demand.0;
        self.power_w += r.server_power.iter().map(|p| p.0).sum::<f64>();
        self.migrations += r.migrations.len() as u64;
        for m in &r.migrations {
            match m.reason {
                MigrationReason::Demand => {
                    self.demand_migrations += 1;
                    self.local_demand_migrations += u64::from(m.local);
                }
                MigrationReason::Consolidation => self.consolidation_migrations += 1,
                MigrationReason::Drain => {}
            }
        }
        self.pingpongs += r.pingpongs() as u64;
        self.sleeps += r.slept.len() as u64;
        self.wakes += r.woken.len() as u64;
        self.aborts += r.migration_aborts as u64;
        self.control_messages += r.control_messages as u64;
        for t in &r.server_temp {
            self.peak_temp_c = self.peak_temp_c.max(t.0);
        }
    }

    pub fn end_tick(&mut self, failed: bool) {
        self.ticks += 1;
        self.failed_ticks += u64::from(failed);
    }

    fn per_tick(&self, v: f64) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            v / self.ticks as f64
        }
    }

    /// Insert the outcome rows and the counters derived from the same
    /// reports into the per-layer metric map.
    pub fn publish(&self, layers: &mut BTreeMap<&'static str, f64>) {
        layers.insert("outcome.dropped_w", self.per_tick(self.dropped_w));
        layers.insert("outcome.power_w", self.per_tick(self.power_w));
        layers.insert(
            "outcome.migrations_per_ktick",
            1000.0 * self.per_tick(self.migrations as f64),
        );
        layers.insert(
            "outcome.pingpongs_per_ktick",
            1000.0 * self.per_tick(self.pingpongs as f64),
        );
        layers.insert("outcome.peak_temp_c", self.peak_temp_c);
        layers.insert(
            "outcome.failed_tick_share",
            self.per_tick(self.failed_ticks as f64),
        );
        layers.insert(
            "network.control_messages_per_tick",
            self.per_tick(self.control_messages as f64),
        );
        let attempts = self.migrations + self.aborts;
        layers.insert(
            "migrate.abort_share",
            if attempts == 0 {
                0.0
            } else {
                self.aborts as f64 / attempts as f64
            },
        );
        layers.insert(
            "consolidate.sleeps_per_ktick",
            1000.0 * self.per_tick(self.sleeps as f64),
        );
        layers.insert(
            "consolidate.wakes_per_ktick",
            1000.0 * self.per_tick(self.wakes as f64),
        );
        layers.insert(
            "consolidate.migs_per_sleep",
            if self.sleeps == 0 {
                0.0
            } else {
                self.consolidation_migrations as f64 / self.sleeps as f64
            },
        );
        layers.insert(
            "demand.local_share",
            if self.demand_migrations == 0 {
                0.0
            } else {
                self.local_demand_migrations as f64 / self.demand_migrations as f64
            },
        );
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Host time of each measured tick (or suite pass), in seconds.
    pub tick_s: Vec<f64>,
    /// Host time of each set-up (construction plus warm-up), in seconds.
    pub setup_s: Vec<f64>,
    /// Servers simulated per tick (0 for the paper suite).
    pub servers: usize,
    /// Heap allocations per measured tick.
    pub allocs_per_tick: f64,
    pub outcomes: Outcomes,
    /// Per-layer metrics by name; the outcome rows are filled in every
    /// run, the rest only in traced runs.
    pub layers: BTreeMap<&'static str, f64>,
    /// Correctness and validity failures; any entry fails the run.
    pub failures: Vec<String>,
}

impl RunResult {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Telemetry mode of one measured tick in a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No telemetry attached.
    Off,
    /// The controller's production telemetry: attached once per sampling
    /// window, so each phase span is sampled once per window.
    Sampled,
    /// Re-attached before every tick, which restarts the sampling window,
    /// so every phase of every tick is recorded. Gives exact per-phase
    /// costs where one sample per window would miss bursty ticks; it also
    /// refreshes the controller's gauges every tick.
    Dense,
}

/// Ticks per telemetry block: one controller sampling window.
pub const BLOCK: u64 = willow_core::controller::SPAN_SAMPLE_PERIOD;

/// Telemetry state of a traced run. Modes rotate in blocks of [`BLOCK`]
/// ticks (off, sampled, dense). Phase costs come from the dense blocks;
/// the telemetry overhead compares sampled ticks against untraced ones.
pub struct Tracing {
    on: bool,
    dense: TelemetryRegistry,
    sampled: TelemetryRegistry,
    disabled: TelemetryRegistry,
    /// Tick times per mode (off, sampled, dense), in seconds.
    ticks: [Vec<f64>; 3],
}

impl Tracing {
    pub fn new(on: bool) -> Tracing {
        Tracing {
            on,
            dense: TelemetryRegistry::new(),
            sampled: TelemetryRegistry::new(),
            disabled: TelemetryRegistry::disabled(),
            ticks: [Vec::new(), Vec::new(), Vec::new()],
        }
    }

    /// Mode of measured tick `tick` of episode `episode`. The rotation
    /// shifts by one block per episode, so over three episodes every tick
    /// position is measured in every mode.
    pub fn mode(&self, tick: u64, episode: u64) -> Mode {
        if !self.on {
            return Mode::Off;
        }
        match (tick / BLOCK + episode) % 3 {
            0 => Mode::Off,
            1 => Mode::Sampled,
            _ => Mode::Dense,
        }
    }

    /// The registry to attach before a tick in `mode`, given the mode
    /// `attached` to the controller so far (`None` for a fresh one).
    pub fn attach(&self, mode: Mode, attached: &mut Option<Mode>) -> Option<&TelemetryRegistry> {
        if !self.on || (mode != Mode::Dense && *attached == Some(mode)) {
            return None;
        }
        *attached = Some(mode);
        Some(match mode {
            Mode::Off => &self.disabled,
            Mode::Sampled => &self.sampled,
            Mode::Dense => &self.dense,
        })
    }

    /// Record one measured tick of `mode` taking `tick_s` seconds.
    pub fn record(&mut self, mode: Mode, tick_s: f64) {
        self.ticks[mode as usize].push(tick_s);
    }

    pub fn dense_ticks(&self) -> &[f64] {
        &self.ticks[Mode::Dense as usize]
    }

    /// Publish the five phase costs per dense tick, times `scale` (the
    /// number of controllers the measured one stands for), and the
    /// telemetry overhead. Returns the summed phase milliseconds.
    pub fn publish(&self, scale: f64, layers: &mut BTreeMap<&'static str, f64>) -> f64 {
        let snap = self.dense.snapshot();
        let sum_of = |phase: &str| -> (f64, u64) {
            let name = format!("willow_controller_phase_{phase}_seconds");
            snap.metrics
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| match m.value {
                    MetricValue::Histogram { count, sum, .. } => Some((sum, count)),
                    _ => None,
                })
                .unwrap_or((0.0, 0))
        };
        let ticks = self.dense_ticks().len().max(1) as f64;
        let mut total = 0.0;
        for (name, phase) in [
            ("measure.ms_per_tick", "aggregate"),
            ("supply.ms_per_tick", "allocate"),
            ("demand.ms_per_tick", "plan_migrations"),
            ("consolidate.ms_per_tick", "consolidate"),
            ("physics.ms_per_tick", "thermal_update"),
        ] {
            let v = scale * 1e3 * sum_of(phase).0 / ticks;
            layers.insert(name, v);
            total += v;
        }
        layers.insert("telemetry.phase_samples", sum_of("aggregate").1 as f64);
        layers.insert(
            "telemetry.overhead_pct",
            overhead_pct(
                &self.ticks[Mode::Sampled as usize],
                &self.ticks[Mode::Off as usize],
            ),
        );
        total
    }
}

/// Telemetry overhead in percent: mean traced tick over mean untraced
/// tick, minus one.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    let (t, u) = (mean(traced), mean(untraced));
    if u > 0.0 {
        100.0 * (t / u - 1.0)
    } else {
        0.0
    }
}
