//! `repro -- bench`: the recorded controller-tick benchmark.
//!
//! Measures the steady-state (no-migration) cost of one `Willow` control
//! tick across three 3-level tree sizes and writes `BENCH_controller.json`
//! so the perf trajectory is tracked across PRs. Two numbers per size:
//!
//! * **ns/tick** — wall time of one demand period after warm-up, taken as
//!   the fastest 8-tick batch (robust against scheduler noise on shared
//!   machines);
//! * **allocs/tick** — heap allocations per tick counted by the
//!   [`CountingAllocator`] installed as the global allocator (the
//!   steady-state invariant is 0).
//!
//! A second, 5-level sweep (~19k/~52k/~105k servers) measures the sharded
//! pipeline at 1/2/4/8 threads against the serial path and asserts the
//! determinism contract: the sharded tick is bit-for-bit identical to the
//! serial one under migration pressure.
//!
//! `--quick` shrinks both measurement windows for CI smoke runs and leaves
//! the recorded `BENCH_controller.json` untouched.

use serde::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use willow_core::config::{AllocationPolicy, ControllerConfig};
use willow_core::controller::Willow;
use willow_core::migration::TickReport;
use willow_core::server::ServerSpec;
use willow_core::Disturbances;
use willow_thermal::units::Watts;
use willow_topology::Tree;
use willow_workload::app::{AppId, Application, SIM_APP_CLASSES};

/// Forwards to the system allocator while counting calls and bytes.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// The three 3-level sweep shapes: 27, 243 and 2187 servers.
const SHAPES: [(&str, &[usize]); 3] = [
    ("27", &[3, 3, 3]),
    ("243", &[3, 9, 9]),
    ("2187", &[3, 27, 27]),
];

/// The 5-level scaling shapes for the sharded-pipeline sweep: ~19k, ~52k
/// and ~105k servers (9-ary below a widening root).
const SCALING_SHAPES: [(&str, &[usize]); 3] = [
    ("19683", &[3, 9, 9, 9, 9]),
    ("52488", &[8, 9, 9, 9, 9]),
    ("104976", &[16, 9, 9, 9, 9]),
];

/// Thread counts measured per scaling shape (1 = the serial path).
const THREADS_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Pre-optimization numbers, recorded on this machine by running this
/// exact harness (same fastest-8-tick-batch estimator, best of three
/// process runs) against the pre-scratch-workspace controller — the
/// commit before this optimization landed, with only `step_with`
/// substituted for `step_into`. They are the "before" column of
/// BENCH_controller.json; re-running `repro -- bench` refreshes only the
/// "after" column.
const BASELINE_NS_PER_TICK: [f64; 3] = [BASELINE_27.0, BASELINE_243.0, BASELINE_2187.0];
const BASELINE_ALLOCS_PER_TICK: [f64; 3] = [BASELINE_27.1, BASELINE_243.1, BASELINE_2187.1];
const BASELINE_27: (f64, f64) = (2301.0, 32.4);
const BASELINE_243: (f64, f64) = (13747.0, 96.9);
const BASELINE_2187: (f64, f64) = (116038.0, 276.4);

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

struct SizeResult {
    servers: usize,
    ns_per_tick: f64,
    allocs_per_tick: f64,
    bytes_per_tick: f64,
    migrations_observed: usize,
}

fn build(branching: &[usize]) -> (Willow, Vec<Watts>) {
    build_with(branching, 1)
}

fn build_with(branching: &[usize], threads: usize) -> (Willow, Vec<Watts>) {
    let config = ControllerConfig {
        threads,
        ..ControllerConfig::default()
    };
    build_cfg(branching, config, 0.4)
}

fn build_cfg(
    branching: &[usize],
    config: ControllerConfig,
    utilization: f64,
) -> (Willow, Vec<Watts>) {
    let tree = Tree::uniform(branching);
    let mut id = 0u32;
    let specs: Vec<ServerSpec> = tree
        .leaves()
        .map(|leaf| {
            // One app of each class per server: full-utilization power sums
            // to the 450 W rating, so demand at u is u·450 W per server.
            let apps: Vec<Application> = (0..4)
                .map(|_| {
                    let class = id as usize % SIM_APP_CLASSES.len();
                    let a = Application::new(AppId(id), class, &SIM_APP_CLASSES[class]);
                    id += 1;
                    a
                })
                .collect();
            ServerSpec::simulation_default(leaf).with_apps(apps)
        })
        .collect();
    let w = Willow::new(tree, specs, config).unwrap();
    // Steady utilization above the consolidation threshold (20 %) and far
    // below any thermal or supply constraint — at the default 40 % this is
    // the no-migration steady state the zero-allocation invariant is
    // defined over.
    let demands: Vec<Watts> = (0..id)
        .map(|i| SIM_APP_CLASSES[i as usize % SIM_APP_CLASSES.len()].mean_power * utilization)
        .collect();
    (w, demands)
}

fn measure(branching: &[usize], warmup: usize, ticks: usize, instrument: bool) -> SizeResult {
    let (mut willow, demands) = build(branching);
    // The registry is attached *before* the measurement window: handle
    // registration allocates once, the record path never does — which is
    // exactly the invariant the instrumented sweep asserts.
    let registry = willow_telemetry::TelemetryRegistry::new();
    if instrument {
        willow.attach_telemetry(&registry);
    }
    let servers = willow.servers().len();
    let supply = Watts(servers as f64 * 450.0);
    let quiet = Disturbances::none();
    let mut report = TickReport::default();
    for _ in 0..warmup {
        willow.step_into(&demands, supply, &quiet, &mut report);
    }
    // Allocation counts are deterministic, so they are averaged over the
    // whole window; wall time is taken as the fastest batch of 8 ticks —
    // on shared (CI) machines the minimum estimates the uninterfered
    // cost, where a mean smears scheduler preemptions into the result.
    // Batches are kept under ~1 ms so at least some fit inside a
    // scheduling quantum.
    let per_batch = 8usize.min(ticks.max(1));
    let batches = (ticks / per_batch).max(1);
    let mut migrations_observed = 0;
    let mut best_ns = f64::INFINITY;
    let allocs0 = ALLOCATIONS.load(Ordering::Relaxed);
    let bytes0 = ALLOCATED_BYTES.load(Ordering::Relaxed);
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            willow.step_into(&demands, supply, &quiet, &mut report);
            migrations_observed += report.migrations.len();
        }
        let ns = t0.elapsed().as_nanos() as f64 / per_batch as f64;
        best_ns = best_ns.min(ns);
    }
    let measured = (batches * per_batch) as f64;
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs0;
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - bytes0;
    SizeResult {
        servers,
        ns_per_tick: best_ns,
        allocs_per_tick: allocs as f64 / measured,
        bytes_per_tick: bytes as f64 / measured,
        migrations_observed,
    }
}

/// Steady-state ns/tick at a given thread count, plus allocs/tick over the
/// measured window. The allocation number is only meaningful for the
/// serial path (whose steady-state invariant is 0); with workers parked on
/// a condvar the count would include any of their wake-up bookkeeping.
fn measure_threads(branching: &[usize], threads: usize, warmup: usize, ticks: usize) -> (f64, f64) {
    let (mut willow, demands) = build_with(branching, threads);
    let servers = willow.servers().len();
    let supply = Watts(servers as f64 * 450.0);
    let quiet = Disturbances::none();
    let mut report = TickReport::default();
    for _ in 0..warmup {
        willow.step_into(&demands, supply, &quiet, &mut report);
    }
    let per_batch = 8usize.min(ticks.max(1));
    let batches = (ticks / per_batch).max(1);
    let mut best_ns = f64::INFINITY;
    let allocs0 = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            willow.step_into(&demands, supply, &quiet, &mut report);
        }
        best_ns = best_ns.min(t0.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs0;
    (best_ns, allocs as f64 / (batches * per_batch) as f64)
}

/// Lockstep serial vs sharded run with live migration pressure, asserting
/// the determinism contract: every `TickReport` and the final snapshots
/// must match bit for bit (`config.threads` is the one intentional
/// difference and is normalized before comparing).
///
/// The pressure is engineered to stay *bounded at every scale* — a
/// rotating set of ~48 servers gets a +200 W spike on its smallest app
/// under equal-share caps of 185 W/server, so each spiked server sheds
/// its largest app (w9, ~59.6 W at 25 % utilization) into the ~67 W of
/// headroom on any flat server. A few dozen migrations per tick, not the
/// fleet-wide packing storm a plain supply cut would cause under the
/// default demand-proportional division.
fn bitwise_threads_check(branching: &[usize], threads: usize, ticks: usize) -> bool {
    let cfg = |threads| ControllerConfig {
        threads,
        allocation: AllocationPolicy::EqualShare,
        ..ControllerConfig::default()
    };
    let (mut serial, demands) = build_cfg(branching, cfg(1), 0.25);
    let (mut sharded, _) = build_cfg(branching, cfg(threads), 0.25);
    let servers = serial.servers().len();
    let supply = Watts(servers as f64 * 185.0);
    let quiet = Disturbances::none();
    let mut r_serial = TickReport::default();
    let mut r_sharded = TickReport::default();
    // Warm both controllers into the flat steady state before applying
    // pressure (caps are established on the first supply tick).
    for _ in 0..3 {
        serial.step_into(&demands, supply, &quiet, &mut r_serial);
        sharded.step_into(&demands, supply, &quiet, &mut r_sharded);
    }
    let mut scaled = demands.clone();
    let stride = (servers / 48).max(1);
    for tick in 0..ticks {
        scaled.copy_from_slice(&demands);
        // Rotate the spike set each tick; +200 W overwhelms the 0.5-alpha
        // exponential smoothing within a single tick.
        for s in 0..servers {
            if (s + tick * 7919) % stride == 0 {
                scaled[s * 4] = Watts(demands[s * 4].0 + 200.0);
            }
        }
        serial.step_into(&scaled, supply, &quiet, &mut r_serial);
        sharded.step_into(&scaled, supply, &quiet, &mut r_sharded);
        if r_serial != r_sharded || format!("{r_serial:?}") != format!("{r_sharded:?}") {
            return false;
        }
    }
    let snap_serial = serial.snapshot();
    let mut snap_sharded = sharded.snapshot();
    snap_sharded.config.threads = snap_serial.config.threads;
    snap_serial == snap_sharded
}

/// Run the sweep and, unless `quick`, write `BENCH_controller.json` into
/// the current directory.
pub fn run(quick: bool) {
    let (warmup, ticks) = if quick { (32, 64) } else { (128, 1024) };
    println!(
        "controller steady-state tick benchmark ({} ticks/size after {} warm-up)",
        ticks, warmup
    );
    let mut rows = Vec::new();
    for (i, (label, branching)) in SHAPES.iter().enumerate() {
        let r = measure(branching, warmup, ticks, false);
        let t = measure(branching, warmup, ticks, true);
        let speedup = BASELINE_NS_PER_TICK[i] / r.ns_per_tick;
        println!(
            "  {:>5} servers: {:>12.0} ns/tick  {:>8.1} allocs/tick  {:>10.0} B/tick  \
             ({:.2}x vs recorded baseline, {} migrations seen)",
            label,
            r.ns_per_tick,
            r.allocs_per_tick,
            r.bytes_per_tick,
            speedup,
            r.migrations_observed
        );
        println!(
            "  {:>5} servers: {:>12.0} ns/tick  {:>8.1} allocs/tick  with telemetry attached",
            label, t.ns_per_tick, t.allocs_per_tick
        );
        // The steady-state invariant: zero heap allocations per control
        // tick, with or without a live telemetry registry recording.
        assert!(
            r.allocs_per_tick == 0.0,
            "steady-state tick allocated ({} allocs/tick at {} servers)",
            r.allocs_per_tick,
            label
        );
        assert!(
            t.allocs_per_tick == 0.0,
            "telemetry recording allocated ({} allocs/tick at {} servers)",
            t.allocs_per_tick,
            label
        );
        rows.push(obj(vec![
            ("servers", Value::U64(r.servers as u64)),
            (
                "branching",
                Value::Array(branching.iter().map(|&b| Value::U64(b as u64)).collect()),
            ),
            (
                "before",
                obj(vec![
                    ("ns_per_tick", Value::F64(BASELINE_NS_PER_TICK[i])),
                    ("allocs_per_tick", Value::F64(BASELINE_ALLOCS_PER_TICK[i])),
                ]),
            ),
            (
                "after",
                obj(vec![
                    (
                        "ns_per_tick",
                        Value::F64((r.ns_per_tick * 10.0).round() / 10.0),
                    ),
                    (
                        "allocs_per_tick",
                        Value::F64((r.allocs_per_tick * 100.0).round() / 100.0),
                    ),
                    (
                        "bytes_per_tick",
                        Value::F64((r.bytes_per_tick * 10.0).round() / 10.0),
                    ),
                ]),
            ),
            (
                "with_telemetry",
                obj(vec![
                    (
                        "ns_per_tick",
                        Value::F64((t.ns_per_tick * 10.0).round() / 10.0),
                    ),
                    (
                        "allocs_per_tick",
                        Value::F64((t.allocs_per_tick * 100.0).round() / 100.0),
                    ),
                ]),
            ),
            ("speedup", Value::F64((speedup * 100.0).round() / 100.0)),
            (
                "migrations_observed",
                Value::U64(r.migrations_observed as u64),
            ),
        ]));
    }
    // Sharded-pipeline scaling sweep: 5-level trees at ~19k/~52k/~105k
    // servers, serial vs sharded ns/tick at each thread count, plus a
    // lockstep bit-for-bit equality check under migration pressure.
    let (s_warm, s_ticks, bit_ticks) = if quick { (4, 8, 4) } else { (16, 64, 12) };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\nsharded-pipeline scaling sweep ({s_ticks} ticks/point after {s_warm} warm-up, \
         {host_cpus} host cpus):"
    );
    let mut scaling_rows = Vec::new();
    for (label, branching) in SCALING_SHAPES.iter() {
        let mut serial_ns = f64::NAN;
        let mut serial_allocs = f64::NAN;
        let mut points = Vec::new();
        for &t in THREADS_SWEEP.iter() {
            let (ns, allocs) = measure_threads(branching, t, s_warm, s_ticks);
            if t == 1 {
                serial_ns = ns;
                serial_allocs = allocs;
                // The zero-allocation steady-state invariant extends to
                // the 5-level sizes on the serial path.
                assert!(
                    allocs == 0.0,
                    "serial steady-state tick allocated ({allocs} allocs/tick at {label} servers)"
                );
            }
            points.push((t, ns));
        }
        let bitwise = bitwise_threads_check(branching, 4, bit_ticks);
        assert!(
            bitwise,
            "sharded tick diverged from the serial tick at {label} servers"
        );
        print!("  {label:>6} servers:");
        for &(t, ns) in &points {
            print!("  {t}T {:>9.1} us ({:.2}x)", ns / 1e3, serial_ns / ns);
        }
        println!("  [bitwise ok]");
        scaling_rows.push(obj(vec![
            (
                "servers",
                Value::U64(branching.iter().product::<usize>() as u64),
            ),
            (
                "branching",
                Value::Array(branching.iter().map(|&b| Value::U64(b as u64)).collect()),
            ),
            (
                "threads",
                Value::Array(
                    points
                        .iter()
                        .map(|&(t, ns)| {
                            obj(vec![
                                ("threads", Value::U64(t as u64)),
                                ("ns_per_tick", Value::F64((ns * 10.0).round() / 10.0)),
                                (
                                    "speedup_vs_serial",
                                    Value::F64((serial_ns / ns * 100.0).round() / 100.0),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("allocs_per_tick_serial", Value::F64(serial_allocs)),
            ("bitwise_equal_serial_vs_4_threads", Value::Bool(bitwise)),
        ]));
    }
    let path = "BENCH_controller.json";
    if quick {
        println!("quick run: {path} left unchanged (full runs only)");
        return;
    }
    let doc = obj(vec![
        (
            "_comment",
            Value::Str(
                "Steady-state (no-migration) Willow control tick cost. 'before' is the \
                 recorded pre-scratch-workspace baseline; 'after' is refreshed by \
                 `cargo run --release -p willow-bench --bin repro -- bench`. \
                 See EXPERIMENTS.md § Performance."
                    .to_owned(),
            ),
        ),
        (
            "scenario",
            obj(vec![
                ("apps_per_server", Value::U64(4)),
                ("utilization", Value::F64(0.4)),
                ("supply", Value::Str("ample (450 W x servers)".to_owned())),
                ("warmup_ticks", Value::U64(warmup as u64)),
                ("measured_ticks", Value::U64(ticks as u64)),
                ("scaling_warmup_ticks", Value::U64(s_warm as u64)),
                ("scaling_measured_ticks", Value::U64(s_ticks as u64)),
                ("scaling_bitwise_check_ticks", Value::U64(bit_ticks as u64)),
            ]),
        ),
        ("sizes", Value::Array(rows)),
        (
            "scaling",
            obj(vec![
                (
                    "_comment",
                    Value::Str(
                        "Sharded-pipeline scaling on 5-level trees. Speedups are only \
                         meaningful when host_cpus >= the thread count; on a single-core \
                         host the sweep degenerates to an overhead measurement (sharded \
                         ~= serial shows the shard handoff cost is small)."
                            .to_owned(),
                    ),
                ),
                ("host_cpus", Value::U64(host_cpus as u64)),
                ("sizes", Value::Array(scaling_rows)),
            ]),
        ),
    ]);
    std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap() + "\n").unwrap();
    println!("wrote {path}");
}
