//! The Willow benchmark: four workloads, end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! python3 perfbench/run.py --workload steady_fleet --seed 2011 --seconds 25 --trace 0
//! ```
//!
//! Every line but the last is a human-readable report: the host
//! fingerprint, every metric with its unit and sample count, and any
//! failed check. The last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for what each workload and metric means.

mod brownout;
mod harness;
mod shadow;
mod steady;
mod suite;
mod sun;

use harness::{CountingAllocator, RunResult};
use std::collections::BTreeMap;
use std::process::ExitCode;
use willow_core::controller::ControlStats;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const WORKLOADS: [&str; 4] = [
    "steady_fleet",
    "brownout_churn",
    "follow_the_sun",
    "paper_suite",
];

/// End-to-end metrics (`--trace 0`), as named in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] = [
    ("tick_ms_p50", "ms"),
    ("tick_ms_p90", "ms"),
    ("tick_ms_mean", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), as named in `BENCHMARK.json`. A layer
/// a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("measure.ms_per_tick", "ms"),
    ("supply.ms_per_tick", "ms"),
    ("demand.ms_per_tick", "ms"),
    ("consolidate.ms_per_tick", "ms"),
    ("physics.ms_per_tick", "ms"),
    ("controller.unattributed_ms_per_tick", "ms"),
    ("audit.ms_per_tick", "ms"),
    ("workload.draw_ms_per_tick", "ms"),
    ("snapshot.ms_per_checkpoint", "ms"),
    ("shard.speedup", "ratio"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.phase_samples", "count"),
    ("demand.packing_instances_per_tick", "count"),
    ("demand.bins_per_item", "ratio"),
    ("demand.placed_ratio", "ratio"),
    ("demand.local_share", "ratio"),
    ("consolidate.sleeps_per_ktick", "count"),
    ("consolidate.wakes_per_ktick", "count"),
    ("consolidate.migs_per_sleep", "ratio"),
    ("federate.open_loop_ticks", "count"),
    ("federate.recoveries", "count"),
    ("federate.rejoins", "count"),
    ("controller.allocs_per_tick", "count"),
    ("engine.allocs_per_tick", "count"),
    ("network.control_messages_per_tick", "count"),
    ("migrate.abort_share", "ratio"),
    ("outcome.dropped_w", "W"),
    ("outcome.power_w", "W"),
    ("outcome.migrations_per_ktick", "count"),
    ("outcome.pingpongs_per_ktick", "count"),
    ("outcome.peak_temp_c", "C"),
    ("outcome.failed_tick_share", "ratio"),
    ("sim.experiments_ms_per_pass", "ms"),
    ("testbed.ms_per_pass", "ms"),
    ("thermal.calibration_ms_per_pass", "ms"),
    ("run.ticks", "count"),
];

/// Accumulate the packing counters a controller advanced over one tick.
/// A recovery rebuilds the controller and restarts its counters; the
/// saturating difference then counts nothing for that tick.
pub fn add_packing(acc: &mut [u64; 3], before: ControlStats, after: ControlStats) {
    acc[0] += after
        .packing_instances
        .saturating_sub(before.packing_instances);
    acc[1] += after.items_offered.saturating_sub(before.items_offered);
    acc[2] += after.bins_offered.saturating_sub(before.bins_offered);
}

/// Publish the demand-stage counters: instances per tick, bins offered
/// per item, and the share of offered items a demand migration placed.
pub fn publish_packing(
    packing: [u64; 3],
    demand_migrations: u64,
    ticks: u64,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let [instances, items, bins] = packing;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    layers.insert("demand.packing_instances_per_tick", ratio(instances, ticks));
    layers.insert("demand.bins_per_item", ratio(bins, items));
    layers.insert("demand.placed_ratio", ratio(demand_migrations, items));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One metric as a JSON member, its value with every digit. A value
/// that is not finite fails the run and is written as 0.
fn json_metric(name: &str, unit: &str, v: f64, failures: &mut Vec<String>) -> String {
    if !v.is_finite() {
        failures.push(format!("metric {name} is not finite: {v}"));
    }
    let v = if v.is_finite() { v } else { 0.0 };
    format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: willow-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // `run.py` pins `paper_suite` to one CPU; it passes the host's count.
    let host_cpus = std::env::var("WILLOW_BENCH_HOST_CPUS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
    // Every timed run is single-threaded; `steady_fleet`'s sharded twin
    // uses `shard_threads`.
    let shard_threads = if args.workload == "steady_fleet" {
        steady::shard_threads()
    } else {
        1
    };
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    println!(
        "# host {{\"host_cpus\": {host_cpus}, \"threads\": 1, \"shard_threads\": {shard_threads}, \
         \"rustc\": \"{}\", \
         \"commit\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"trace\": {}}}",
        env("WILLOW_BENCH_RUSTC").replace('"', "'"),
        env("WILLOW_BENCH_COMMIT").replace('"', "'"),
        args.workload,
        args.seed,
        u8::from(args.trace)
    );

    let mut res: RunResult = match args.workload.as_str() {
        "steady_fleet" => steady::run(args.seed, args.seconds, args.trace),
        "brownout_churn" => brownout::run(args.seed, args.seconds, args.trace),
        "follow_the_sun" => sun::run(args.seed, args.seconds, args.trace),
        _ => suite::run(args.seed, args.seconds, args.trace),
    };

    let mut sorted = res.tick_s.clone();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let ms = |q: f64| 1e3 * harness::percentile(&sorted, q);
    // Throughput over the timed regions only: set-up, checks and shadow
    // calls between ticks are excluded.
    let server_ticks_per_s = res.servers as f64 * n as f64 / res.tick_s.iter().sum::<f64>();
    let e2e: BTreeMap<&str, f64> = [
        ("tick_ms_p50", ms(0.50)),
        ("tick_ms_p90", ms(0.90)),
        ("tick_ms_mean", 1e3 * harness::mean(&res.tick_s)),
        ("setup_s", harness::median(&res.setup_s)),
        ("peak_rss_mb", harness::peak_rss_mb()),
    ]
    .into_iter()
    .collect();

    // Human-readable report: every metric with its unit and sample count.
    let tail = |q: f64| -> String {
        let beyond = n - ((q * n as f64).ceil() as usize).min(n);
        if beyond >= 10 {
            format!("{:.4} ms", ms(q))
        } else {
            format!("n/a ({beyond} samples beyond it, need 10)")
        }
    };
    println!(
        "# metric tick_ms_p50 = {:.4} ms (n={n})",
        e2e["tick_ms_p50"]
    );
    println!("# metric tick_ms_p90 = {} (n={n})", tail(0.90));
    println!("# metric tick_ms_p95 = {} (n={n})", tail(0.95));
    println!("# metric tick_ms_p99 = {} (n={n})", tail(0.99));
    println!(
        "# metric tick_ms_mean = {:.4} ms (n={n})",
        e2e["tick_ms_mean"]
    );
    if res.servers > 0 {
        println!("# metric server_ticks_per_s = {server_ticks_per_s:.1} 1/s (n={n} ticks)");
    } else {
        println!(
            "# metric suite_s = {:.4} s (median of n={n} passes)",
            e2e["tick_ms_p50"] / 1e3
        );
    }
    println!(
        "# metric setup_s = {:.4} s (median of n={})",
        e2e["setup_s"],
        res.setup_s.len()
    );
    println!("# metric peak_rss_mb = {:.1} MB", e2e["peak_rss_mb"]);
    if res.servers > 0 {
        println!(
            "# metric allocs_per_tick = {:.3} count (n={n})",
            res.allocs_per_tick
        );
        res.outcomes.publish(&mut res.layers);
        for (name, unit) in PER_LAYER.iter().filter(|(m, _)| m.starts_with("outcome.")) {
            let short = name.trim_start_matches("outcome.");
            println!("# metric {short} = {} {unit} (n={n})", res.layers[name]);
        }
    }
    res.layers.insert("run.ticks", n as f64);
    if args.trace {
        for (name, unit) in PER_LAYER {
            let v = res.layers.get(name).copied().unwrap_or(0.0);
            println!("# layer {name} = {v:.6} {unit}");
        }
    }
    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = res.layers.get(name).copied().unwrap_or(0.0);
                json_metric(name, unit, v, &mut res.failures)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| json_metric(name, unit, e2e[name], &mut res.failures))
            .collect()
    };
    for f in &res.failures {
        println!("# FAILED {f}");
        eprintln!("check failed: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.failures.is_empty(),
        n.max(1),
        res.outcomes.failed_ticks,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
