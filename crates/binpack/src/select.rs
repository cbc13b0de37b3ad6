//! Strategy selection: a serializable strategy name that is itself a
//! [`Packer`].
//!
//! Every consumer that lets a config choose the packing heuristic —
//! Willow's demand-adaptation pipeline, the frozen reference controller,
//! the centralized greedy baseline, the ablation benches — packs through
//! the [`PackerStrategy`] value it holds, so adding a heuristic is one new
//! enum variant and one new match arm here instead of a parallel match in
//! every controller.

use crate::{BestFitDecreasing, Ffdlr, FirstFitDecreasing, NextFit, Packer, Packing};
use serde::{Deserialize, Serialize};

/// Which bin-packing algorithm a migration planner uses (paper §IV-F; the
/// paper chooses FFDLR, the alternatives exist for the packer ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PackerStrategy {
    /// Friesen–Langston FFDLR (the paper's choice).
    Ffdlr,
    /// First-Fit Decreasing.
    FirstFitDecreasing,
    /// Best-Fit Decreasing.
    BestFitDecreasing,
    /// Next-Fit (weak baseline).
    NextFit,
}

impl Packer for PackerStrategy {
    fn pack(&self, items: &[f64], bins: &[f64]) -> Packing {
        match self {
            PackerStrategy::Ffdlr => Ffdlr.pack(items, bins),
            PackerStrategy::FirstFitDecreasing => FirstFitDecreasing.pack(items, bins),
            PackerStrategy::BestFitDecreasing => BestFitDecreasing.pack(items, bins),
            PackerStrategy::NextFit => NextFit.pack(items, bins),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            PackerStrategy::Ffdlr => Ffdlr.name(),
            PackerStrategy::FirstFitDecreasing => FirstFitDecreasing.name(),
            PackerStrategy::BestFitDecreasing => BestFitDecreasing.name(),
            PackerStrategy::NextFit => NextFit.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_strategy_packs_as_its_packer() {
        let items = [0.6, 0.5, 0.4, 0.3, 0.2];
        let bins = [0.7, 1.0, 0.5];
        for (strategy, packer, name) in [
            (PackerStrategy::Ffdlr, &Ffdlr as &dyn Packer, "ffdlr"),
            (
                PackerStrategy::FirstFitDecreasing,
                &FirstFitDecreasing,
                "ffd",
            ),
            (PackerStrategy::BestFitDecreasing, &BestFitDecreasing, "bfd"),
            (PackerStrategy::NextFit, &NextFit, "next-fit"),
        ] {
            assert_eq!(strategy.name(), name);
            assert_eq!(strategy.pack(&items, &bins), packer.pack(&items, &bins));
        }
    }
}
