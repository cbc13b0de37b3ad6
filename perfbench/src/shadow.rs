//! Shadow calls for traced runs of the engine workloads.
//!
//! The engine draws demand and audits inside `step_into_buffers`, where
//! the benchmark cannot place a span. A traced run therefore repeats both
//! calls from the benchmark's own code, outside the timed tick: the same
//! `DemandModel::sample_app_demand` over the same applications at the
//! same utilization (with a separate RNG, so the trajectory is untouched),
//! and a second read-only `Auditor::check` of the same controller.

use crate::harness::RunResult;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use willow_core::audit::Auditor;
use willow_core::controller::Willow;
use willow_workload::app::Application;
use willow_workload::demand::DemandModel;

pub struct Shadow {
    apps: Vec<Vec<Application>>,
    auditors: Vec<Auditor>,
    model: DemandModel,
    rng: StdRng,
}

impl Shadow {
    pub fn new(zones: &[&Willow], seed: u64) -> Shadow {
        Shadow {
            apps: zones
                .iter()
                .map(|w| w.servers().iter().flat_map(|s| s.apps.clone()).collect())
                .collect(),
            auditors: zones.iter().map(|w| Auditor::new(w)).collect(),
            model: DemandModel::default(),
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_5eed),
        }
    }

    /// Seconds to draw one tick of demand for every app of `zone` at
    /// utilization `u`.
    pub fn draw(&mut self, zone: usize, u: f64) -> f64 {
        let t0 = Instant::now();
        let mut total = 0.0;
        for app in &self.apps[zone] {
            total += self.model.sample_app_demand(&mut self.rng, app, u).0;
        }
        std::hint::black_box(total);
        t0.elapsed().as_secs_f64()
    }

    /// Seconds to audit `w` (zone `zone`); a violation fails the run.
    pub fn audit(&mut self, zone: usize, w: &Willow, res: &mut RunResult) -> f64 {
        let t0 = Instant::now();
        let found = self.auditors[zone].check(w).len();
        let dt = t0.elapsed().as_secs_f64();
        res.check(found == 0, || {
            format!("zone {zone}: shadow auditor found {found} violations")
        });
        dt
    }
}
