//! Stochastic demand generation (paper §V-B1).
//!
//! "The power demand in each node was assumed to have a Poisson
//! distribution" with the mean set by the hosted applications' average power
//! requirements scaled by the data center's average utilization. We sample
//! *per application* so that migrating an application moves exactly its own
//! share of the node's demand, and keep a configurable quantum so Poisson
//! counts convert to watts at sub-watt resolution.

use crate::app::Application;
use crate::poisson::sample_poisson;
use rand::Rng;
use serde::{Deserialize, Serialize};
use willow_thermal::units::Watts;

/// Converts between watt-valued means and the integer counts the Poisson
/// sampler produces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DemandModel {
    /// Watts represented by one Poisson count. Smaller quanta give smoother
    /// (higher-resolution, lower-relative-variance) demand processes.
    pub quantum: Watts,
}

impl Default for DemandModel {
    fn default() -> Self {
        // 1 W per count: relative std-dev of a 100 W app is 10 %, matching
        // the visible fluctuation scale in the paper's time-series figures.
        DemandModel {
            quantum: Watts(1.0),
        }
    }
}

impl DemandModel {
    /// Create a model with a given quantum.
    ///
    /// # Panics
    /// Panics unless the quantum is finite and strictly positive.
    #[must_use]
    pub fn new(quantum: Watts) -> Self {
        assert!(
            quantum.0.is_finite() && quantum.0 > 0.0,
            "demand quantum must be positive"
        );
        DemandModel { quantum }
    }

    /// Sample the instantaneous power demand of one application when the
    /// offered load corresponds to utilization `u ∈ [0, 1]`.
    pub fn sample_app_demand<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        app: &Application,
        u: f64,
    ) -> Watts {
        let mean_counts = app.mean_demand_at(u) / self.quantum;
        Watts(sample_poisson(rng, mean_counts) as f64) * self.quantum.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppId, SIM_APP_CLASSES};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn app(class: usize) -> Application {
        Application::new(AppId(class as u32), class, &SIM_APP_CLASSES[class])
    }

    #[test]
    fn sample_mean_tracks_app_mean() {
        let model = DemandModel::default();
        let a = app(3); // w9, ≈238 W mean
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| model.sample_app_demand(&mut rng, &a, 0.6).0)
            .sum();
        let mean = total / n as f64;
        let expected = a.mean_demand_at(0.6).0;
        assert!(
            (mean - expected).abs() < expected * 0.02,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn zero_utilization_draws_nothing() {
        let model = DemandModel::default();
        let a = app(2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(model.sample_app_demand(&mut rng, &a, 0.0), Watts(0.0));
        }
    }

    #[test]
    fn quantum_scales_resolution() {
        // With a coarse 10 W quantum every sample is a multiple of 10 W.
        let model = DemandModel::new(Watts(10.0));
        let a = app(3);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..200 {
            let d = model.sample_app_demand(&mut rng, &a, 0.8);
            let rem = d.0 % 10.0;
            assert!(rem.abs() < 1e-9 || (10.0 - rem).abs() < 1e-9, "demand {d}");
        }
    }

    #[test]
    fn node_demand_is_per_app() {
        let model = DemandModel::default();
        let apps = [app(0), app(1), app(2), app(3)];
        let mut rng = StdRng::seed_from_u64(21);
        let demands: Vec<Watts> = apps
            .iter()
            .map(|a| model.sample_app_demand(&mut rng, a, 0.5))
            .collect();
        assert_eq!(demands.len(), 4);
        assert!(demands.iter().all(|d| d.0 >= 0.0));
    }

    #[test]
    fn determinism_per_seed() {
        let model = DemandModel::default();
        let apps = [app(0), app(3)];
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = Vec::new();
            for _ in 0..16 {
                for a in &apps {
                    out.push(model.sample_app_demand(&mut rng, a, 0.4).0);
                }
            }
            out
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_quantum_rejected() {
        let _ = DemandModel::new(Watts(0.0));
    }
}
