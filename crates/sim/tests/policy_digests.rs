//! Golden trajectory digests for every policy combination.
//!
//! The differential test against the frozen reference controller pins
//! only the default policies. This test pins the rest: for each packer ×
//! consolidation ordering × supply policy, on both `repro ablate`
//! scenarios (hot/cold at U = 0.4, and U = 0.6 under the paper's supply
//! plunge), it hashes the per-tick `TickReport` stream of a short run and
//! compares it with a digest recorded before any refactor of the policy
//! plumbing. A refactor that changes any decision of any combo, on any
//! tick, changes a digest.
//!
//! The hash is 64-bit FNV-1a over each report's `serde_json` text
//! (`float_roundtrip` is on, so every bit of every float is in the text),
//! which, unlike `DefaultHasher`, is stable across toolchains.
//!
//! After an intended behaviour change, the failure message prints the
//! full table of new digests to paste below.

use willow_core::config::{ConsolidationPolicyChoice, PackerChoice, SupplyPolicyChoice};
use willow_core::migration::TickReport;
use willow_power::SupplyTrace;
use willow_sim::{SimConfig, Simulation};

const SEED: u64 = 2011;
const TICKS: usize = 120;

/// `(scenario, packer, consolidation, supply, digest)`.
type Golden = (
    &'static str,
    PackerChoice,
    ConsolidationPolicyChoice,
    SupplyPolicyChoice,
    u64,
);

#[rustfmt::skip]
const GOLDEN: [Golden; 32] = [
    ("hot_cold", PackerChoice::Ffdlr, ConsolidationPolicyChoice::HotZonesFirst, SupplyPolicyChoice::Reactive, 0x217d826b549d17b5),
    ("hot_cold", PackerChoice::Ffdlr, ConsolidationPolicyChoice::HotZonesFirst, SupplyPolicyChoice::Predictive, 0x217d826b549d17b5),
    ("hot_cold", PackerChoice::Ffdlr, ConsolidationPolicyChoice::MostHeadroomReceivers, SupplyPolicyChoice::Reactive, 0x974bf7d4c190ef9f),
    ("hot_cold", PackerChoice::Ffdlr, ConsolidationPolicyChoice::MostHeadroomReceivers, SupplyPolicyChoice::Predictive, 0x974bf7d4c190ef9f),
    ("hot_cold", PackerChoice::FirstFitDecreasing, ConsolidationPolicyChoice::HotZonesFirst, SupplyPolicyChoice::Reactive, 0x205083e63df7fa01),
    ("hot_cold", PackerChoice::FirstFitDecreasing, ConsolidationPolicyChoice::HotZonesFirst, SupplyPolicyChoice::Predictive, 0x205083e63df7fa01),
    ("hot_cold", PackerChoice::FirstFitDecreasing, ConsolidationPolicyChoice::MostHeadroomReceivers, SupplyPolicyChoice::Reactive, 0x974bf7d4c190ef9f),
    ("hot_cold", PackerChoice::FirstFitDecreasing, ConsolidationPolicyChoice::MostHeadroomReceivers, SupplyPolicyChoice::Predictive, 0x974bf7d4c190ef9f),
    ("hot_cold", PackerChoice::BestFitDecreasing, ConsolidationPolicyChoice::HotZonesFirst, SupplyPolicyChoice::Reactive, 0x217d826b549d17b5),
    ("hot_cold", PackerChoice::BestFitDecreasing, ConsolidationPolicyChoice::HotZonesFirst, SupplyPolicyChoice::Predictive, 0x217d826b549d17b5),
    ("hot_cold", PackerChoice::BestFitDecreasing, ConsolidationPolicyChoice::MostHeadroomReceivers, SupplyPolicyChoice::Reactive, 0x974bf7d4c190ef9f),
    ("hot_cold", PackerChoice::BestFitDecreasing, ConsolidationPolicyChoice::MostHeadroomReceivers, SupplyPolicyChoice::Predictive, 0x974bf7d4c190ef9f),
    ("hot_cold", PackerChoice::NextFit, ConsolidationPolicyChoice::HotZonesFirst, SupplyPolicyChoice::Reactive, 0x65a978c8ea9f6a14),
    ("hot_cold", PackerChoice::NextFit, ConsolidationPolicyChoice::HotZonesFirst, SupplyPolicyChoice::Predictive, 0x65a978c8ea9f6a14),
    ("hot_cold", PackerChoice::NextFit, ConsolidationPolicyChoice::MostHeadroomReceivers, SupplyPolicyChoice::Reactive, 0x974bf7d4c190ef9f),
    ("hot_cold", PackerChoice::NextFit, ConsolidationPolicyChoice::MostHeadroomReceivers, SupplyPolicyChoice::Predictive, 0x974bf7d4c190ef9f),
    ("brownout", PackerChoice::Ffdlr, ConsolidationPolicyChoice::HotZonesFirst, SupplyPolicyChoice::Reactive, 0x0297b4daca136052),
    ("brownout", PackerChoice::Ffdlr, ConsolidationPolicyChoice::HotZonesFirst, SupplyPolicyChoice::Predictive, 0xaf85474c45b0b7e8),
    ("brownout", PackerChoice::Ffdlr, ConsolidationPolicyChoice::MostHeadroomReceivers, SupplyPolicyChoice::Reactive, 0xc6fda8bfb70e881d),
    ("brownout", PackerChoice::Ffdlr, ConsolidationPolicyChoice::MostHeadroomReceivers, SupplyPolicyChoice::Predictive, 0x9f3f069ff4972689),
    ("brownout", PackerChoice::FirstFitDecreasing, ConsolidationPolicyChoice::HotZonesFirst, SupplyPolicyChoice::Reactive, 0x54adaf6f5eef3307),
    ("brownout", PackerChoice::FirstFitDecreasing, ConsolidationPolicyChoice::HotZonesFirst, SupplyPolicyChoice::Predictive, 0x59051d50e82c6588),
    ("brownout", PackerChoice::FirstFitDecreasing, ConsolidationPolicyChoice::MostHeadroomReceivers, SupplyPolicyChoice::Reactive, 0x20909be13653e669),
    ("brownout", PackerChoice::FirstFitDecreasing, ConsolidationPolicyChoice::MostHeadroomReceivers, SupplyPolicyChoice::Predictive, 0x375fea83cfcd5255),
    ("brownout", PackerChoice::BestFitDecreasing, ConsolidationPolicyChoice::HotZonesFirst, SupplyPolicyChoice::Reactive, 0x0297b4daca136052),
    ("brownout", PackerChoice::BestFitDecreasing, ConsolidationPolicyChoice::HotZonesFirst, SupplyPolicyChoice::Predictive, 0xaf85474c45b0b7e8),
    ("brownout", PackerChoice::BestFitDecreasing, ConsolidationPolicyChoice::MostHeadroomReceivers, SupplyPolicyChoice::Reactive, 0xc6fda8bfb70e881d),
    ("brownout", PackerChoice::BestFitDecreasing, ConsolidationPolicyChoice::MostHeadroomReceivers, SupplyPolicyChoice::Predictive, 0x9f3f069ff4972689),
    ("brownout", PackerChoice::NextFit, ConsolidationPolicyChoice::HotZonesFirst, SupplyPolicyChoice::Reactive, 0x5da1639611c79f71),
    ("brownout", PackerChoice::NextFit, ConsolidationPolicyChoice::HotZonesFirst, SupplyPolicyChoice::Predictive, 0xfda3fa2f78287841),
    ("brownout", PackerChoice::NextFit, ConsolidationPolicyChoice::MostHeadroomReceivers, SupplyPolicyChoice::Reactive, 0xdef71f5ab900ef14),
    ("brownout", PackerChoice::NextFit, ConsolidationPolicyChoice::MostHeadroomReceivers, SupplyPolicyChoice::Predictive, 0x9863e859a2ca2c9e),
];

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The `repro ablate` scenario `name` with one policy combination set.
fn config(
    name: &str,
    packer: PackerChoice,
    consolidation: ConsolidationPolicyChoice,
    supply: SupplyPolicyChoice,
) -> SimConfig {
    let (utilization, brownout) = match name {
        "hot_cold" => (0.4, false),
        "brownout" => (0.6, true),
        other => panic!("unknown scenario {other}"),
    };
    let mut cfg = SimConfig::paper_hot_cold(SEED, utilization);
    cfg.ticks = TICKS;
    cfg.warmup = TICKS / 5;
    if brownout {
        cfg.supply = Some(SupplyTrace::paper_deficit(cfg.ample_supply(), TICKS));
    }
    cfg.controller.packer = packer;
    cfg.controller.consolidation_policy = consolidation;
    cfg.controller.supply_policy = supply;
    cfg
}

fn digest(cfg: SimConfig) -> u64 {
    let mut sim = Simulation::new(cfg).expect("valid digest config");
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

fn combos() -> Vec<(
    &'static str,
    PackerChoice,
    ConsolidationPolicyChoice,
    SupplyPolicyChoice,
)> {
    let mut out = Vec::new();
    for scenario in ["hot_cold", "brownout"] {
        for packer in [
            PackerChoice::Ffdlr,
            PackerChoice::FirstFitDecreasing,
            PackerChoice::BestFitDecreasing,
            PackerChoice::NextFit,
        ] {
            for consolidation in [
                ConsolidationPolicyChoice::HotZonesFirst,
                ConsolidationPolicyChoice::MostHeadroomReceivers,
            ] {
                for supply in [SupplyPolicyChoice::Reactive, SupplyPolicyChoice::Predictive] {
                    out.push((scenario, packer, consolidation, supply));
                }
            }
        }
    }
    out
}

#[test]
fn every_policy_combo_matches_its_golden_digest() {
    let combos = combos();
    let actual: Vec<Golden> = combos
        .iter()
        .map(|&(s, p, c, u)| (s, p, c, u, digest(config(s, p, c, u))))
        .collect();
    let table: String = actual
        .iter()
        .map(|(s, p, c, u, d)| {
            format!(
                "    (\"{s}\", PackerChoice::{p:?}, ConsolidationPolicyChoice::{c:?}, \
                 SupplyPolicyChoice::{u:?}, {d:#018x}),\n"
            )
        })
        .collect();
    assert_eq!(
        GOLDEN.len(),
        combos.len(),
        "golden table does not cover every combo; current digests:\n{table}"
    );
    let mismatched: Vec<String> = GOLDEN
        .iter()
        .zip(&actual)
        .filter(|(g, a)| g != a)
        .map(|(g, a)| format!("expected {g:?}, got {a:?}"))
        .collect();
    assert!(
        mismatched.is_empty(),
        "{} trajectory digest(s) changed:\n{}\ncurrent digests:\n{table}",
        mismatched.len(),
        mismatched.join("\n")
    );
}

#[test]
fn digests_separate_every_axis() {
    // A digest blind to one of the policy fields would pass the golden
    // test vacuously. For each axis, some pair of combos that differ only
    // on that axis must have different recorded digests.
    let differs_only_on = |axis: usize, a: &Golden, b: &Golden| {
        let same = [a.0 == b.0, a.1 == b.1, a.2 == b.2, a.3 == b.3];
        (0..4).all(|i| same[i] != (i == axis))
    };
    for (axis, name) in ["scenario", "packer", "consolidation", "supply"]
        .iter()
        .enumerate()
    {
        let separated = GOLDEN.iter().any(|a| {
            GOLDEN
                .iter()
                .any(|b| differs_only_on(axis, a, b) && a.4 != b.4)
        });
        assert!(separated, "no recorded digest separates the {name} axis");
    }
}
