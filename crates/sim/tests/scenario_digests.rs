//! Golden trajectory digests for the checked-in live-ops timelines.
//!
//! `tests/policy_digests.rs` pins every policy combination on the two
//! `repro ablate` scenarios; this test pins the `scenarios/*.json`
//! timelines the same way. Each file is parsed with
//! [`willow_sim::parse_timeline`] and run on the configuration that
//! `repro liveops --timeline FILE` builds at its default 200 ticks on one
//! thread (paper hot/cold fleet at U = 0.5 under the fixed chaos plan,
//! with a mid-run controller outage). The per-tick `TickReport` stream is
//! hashed with 64-bit FNV-1a over each report's `serde_json` text, so a
//! change to any decision on any tick of either timeline changes a digest.
//!
//! After an intended behaviour change, the failure message prints the
//! full table of new digests to paste below.

use willow_core::migration::TickReport;
use willow_sim::faults::{ControllerCrashPlan, ControllerOutage, FaultPlan};
use willow_sim::{parse_timeline, ScheduledCommand, SimConfig, Simulation};

const TICKS: usize = 200;

/// `(scenario file, digest)`.
const GOLDEN: [(&str, u64); 2] = [
    ("rolling_upgrade.json", 0x246003a6d21c7ff0),
    ("staged_brownout.json", 0x473c8de85ea958df),
];

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The scripted-leg configuration of `repro liveops` with `timeline` as
/// its command schedule (kept in step with `scripted_config` in the
/// `repro` binary's `liveops_cmd.rs`).
fn scripted_config(timeline: Vec<ScheduledCommand>) -> SimConfig {
    let mut cfg = SimConfig::paper_hot_cold(2011, 0.5);
    cfg.ticks = TICKS;
    cfg.warmup = 0;
    cfg.controller.threads = 1;
    cfg.commands = timeline;
    let outage_from = (TICKS as u64 * 3) / 5;
    let outage_len = 15u64.min(TICKS as u64 / 10).max(1);
    cfg.faults = Some(FaultPlan {
        seed: 0xC0FFEE,
        report_loss: 0.1,
        directive_loss: 0.1,
        migration_failure: 0.2,
        abort_fraction: 0.5,
        controller_crash: Some(ControllerCrashPlan {
            checkpoint_period: 16,
            windows: vec![ControllerOutage {
                from: outage_from,
                until: outage_from + outage_len,
            }],
        }),
        ..FaultPlan::default()
    });
    cfg
}

fn digest(timeline: Vec<ScheduledCommand>) -> u64 {
    let mut sim = Simulation::new(scripted_config(timeline)).expect("valid scenario config");
    let mut report = TickReport::default();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for _ in 0..TICKS {
        sim.step_into(&mut report);
        let json = serde_json::to_string(&report).expect("report serializes");
        hash = fnv1a(hash, json.as_bytes());
        hash = fnv1a(hash, b"\n");
    }
    hash
}

fn scenario_digest(file: &str) -> u64 {
    let path = format!("{}/../../scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    digest(parse_timeline(&text).unwrap_or_else(|e| panic!("parse {path}: {e}")))
}

#[test]
fn every_scenario_timeline_matches_its_golden_digest() {
    let actual: Vec<(&str, u64)> = GOLDEN
        .iter()
        .map(|&(f, _)| (f, scenario_digest(f)))
        .collect();
    let table: String = actual
        .iter()
        .map(|(f, d)| format!("    (\"{f}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        GOLDEN.as_slice(),
        actual.as_slice(),
        "scenario trajectory digest(s) changed; current digests:\n{table}"
    );
}

#[test]
fn golden_table_covers_every_checked_in_scenario() {
    let dir = format!("{}/../../scenarios", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir}: {e}"))
        .map(|entry| entry.expect("directory entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".json"))
        .collect();
    files.sort();
    let golden: Vec<&str> = GOLDEN.iter().map(|&(f, _)| f).collect();
    assert_eq!(
        files, golden,
        "every scenarios/*.json needs a golden digest"
    );
}

#[test]
fn digest_sees_the_timeline() {
    // A digest blind to the command schedule would pass the golden test
    // vacuously: the static fleet under the same chaos plan must differ
    // from every checked-in timeline.
    let hash = digest(Vec::new());
    for (file, golden) in GOLDEN {
        assert_ne!(hash, golden, "{file} digests like the static fleet");
    }
}
