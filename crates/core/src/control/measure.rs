//! Pipeline stage 1 — measurement: raw per-app demands are smoothed
//! (Eq. 4) into leaf `CP` values and aggregated up the tree.
//!
//! The per-server half (demand writes, smoothing, leaf `CP` stores) shards
//! across the worker pool: each roster row is touched by exactly one shard,
//! and each arena slot is named by at most one roster row for the life of
//! the run (the tree never reuses a retired server's slot), so the
//! arena-indexed `local_cp`/`power.cp` stores need no ownership check to
//! be race-free. A retired row writes only zeros into its own detached
//! slot, which was zeroed at retirement. The upward aggregation stays
//! serial (it is one `O(nodes)` pass over contiguous per-level slices).

use super::shard::{shard_range, RawSlice};
use super::Willow;
use std::sync::atomic::{AtomicUsize, Ordering};
use willow_thermal::units::Watts;

impl Willow {
    /// Smooth raw demands into leaf `CP` values and aggregate upward. A
    /// server whose report is lost keeps running on its own fresh view
    /// (`local_cp`) while the hierarchy keeps the stale `power.cp` entry.
    #[allow(unsafe_code)] // disjoint shard slicing; see `super::shard`
    pub(super) fn measure(&mut self, app_demand: &[Watts]) {
        let n = self.servers.len();
        let threads = self.pool.threads();
        let reports_lost = AtomicUsize::new(0);
        // Per-leaf planning series exist only under a policy that reads
        // them (see `super::planning`); when they do, one per roster row.
        let feed_leaves = !self.planning.leaves.is_empty();
        debug_assert!(
            !feed_leaves || self.planning.leaves.len() == n,
            "planning tracks the roster"
        );
        {
            let servers = RawSlice::new(&mut self.servers);
            let local_cp = RawSlice::new(&mut self.local_cp);
            let cp = RawSlice::new(&mut self.power.cp);
            let planning = RawSlice::new(&mut self.planning.leaves);
            let disturb = &self.disturb;
            let lost = &reports_lost;
            self.pool.run(&|k| {
                let range = shard_range(n, threads, k);
                // SAFETY: shard ranges over server indices are pairwise
                // disjoint, and `servers` is indexed by server.
                let servers = unsafe { servers.range_mut(range.clone()) };
                let plan_leaves = if feed_leaves {
                    // SAFETY: `planning.leaves` is indexed by server like
                    // the roster itself, so this shard's sub-slice is
                    // disjoint too.
                    unsafe { planning.range_mut(range.clone()) }
                } else {
                    &mut []
                };
                for (off, server) in servers.iter_mut().enumerate() {
                    let si = range.start + off;
                    let leaf = server.node.index();
                    let mut observed = Watts::ZERO;
                    if server.active {
                        for (i, app) in server.apps.iter().enumerate() {
                            let idx = app.id.0 as usize;
                            assert!(
                                idx < app_demand.len(),
                                "demand vector too short for {}",
                                app.id
                            );
                            server.app_demand[i] = app_demand[idx];
                        }
                        let raw = server.raw_demand();
                        let smoothed = server.smoother.observe(raw);
                        observed = smoothed;
                        // SAFETY: at most one roster row ever names any
                        // leaf slot, so these scattered writes are race-free.
                        unsafe {
                            *local_cp.get_mut(leaf) = smoothed;
                        }
                        if disturb.report_lost(si) {
                            lost.fetch_add(1, Ordering::Relaxed);
                        } else {
                            // SAFETY: as above — sole owner of `leaf`.
                            unsafe {
                                *cp.get_mut(leaf) = smoothed;
                            }
                        }
                    } else {
                        // SAFETY: as above — sole owner of `leaf`.
                        unsafe {
                            *local_cp.get_mut(leaf) = Watts::ZERO;
                            *cp.get_mut(leaf) = Watts::ZERO;
                        }
                    }
                    // Planning seam: feed this server's demand series, if
                    // tracked — the smoothed view for active servers, zero
                    // while asleep/retired. Per-row like everything above,
                    // so serial and sharded runs observe identical
                    // sequences.
                    if let Some(series) = plan_leaves.get_mut(off) {
                        series.observe(observed);
                    }
                    // Migration costs are charged for exactly one period.
                    server.pending_cost = Watts::ZERO;
                }
            });
        }
        // Integer addition commutes: the relaxed total matches the serial
        // count at every thread count.
        self.counters.reports_lost += reports_lost.into_inner();
        self.power.aggregate_demands(&self.tree);
    }

    /// Leaf-local measurement with the controller down: smoothing still
    /// happens (the machine observes its own load) and `local_cp` stays
    /// fresh, but nothing reaches the hierarchy — `power.cp` keeps the
    /// controller's last view and no control messages are exchanged.
    /// Stays serial: the open-loop path models per-leaf firmware, not the
    /// controller's hot loop.
    pub(super) fn measure_open_loop(&mut self, app_demand: &[Watts]) {
        for server in &mut self.servers {
            let leaf = server.node.index();
            if server.active {
                for (i, app) in server.apps.iter().enumerate() {
                    let idx = app.id.0 as usize;
                    assert!(
                        idx < app_demand.len(),
                        "demand vector too short for {}",
                        app.id
                    );
                    server.app_demand[i] = app_demand[idx];
                }
                let raw = server.raw_demand();
                self.local_cp[leaf] = server.smoother.observe(raw);
            } else {
                self.local_cp[leaf] = Watts::ZERO;
            }
            server.pending_cost = Watts::ZERO;
        }
    }
}
