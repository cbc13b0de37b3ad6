//! Pluggable policy decision points of the control pipeline.
//!
//! The pipeline's *structure* — what happens in which stage, the margins,
//! the unidirectional triggers, the transactional migration protocol — is
//! fixed; these traits parameterize three decisions *inside* the stages:
//!
//! * which packing heuristic matches deficit parcels with surplus bins
//!   (stage 3) — the existing [`Packer`] trait, selected by
//!   `ControllerConfig::packer` via [`willow_binpack::packer_for`];
//! * how the eligible migration-target bins of one packing instance are
//!   ordered before packing ([`MigrationTargetPolicy`]);
//! * in which order consolidation evacuates victims and fills receivers
//!   ([`ConsolidationOrderPolicy`]).
//!
//! The defaults ([`AscendingIdTargets`], [`HotZonesFirst`]) reproduce the
//! paper's behavior bit-for-bit; [`ControlPolicies::for_config`] is what
//! [`Willow::new`](super::Willow::new) installs, selecting implementations
//! from `ControllerConfig::{packer, target_policy, consolidation_policy}`.
//! The built-in alternatives ([`BestFitTargets`], [`ThermalHeadroomTargets`],
//! [`MostHeadroomReceivers`]) are raced head-to-head by
//! the `repro ablate` harness; out-of-tree policies can still plug in via
//! [`Willow::with_policies`](super::Willow::with_policies).
//!
//! Policies must be deterministic: the differential and snapshot-restore
//! harnesses compare trajectories bit-for-bit, and a restored controller
//! reconstructs its policies from config alone. Policy *objects* carry no
//! serialized state; history and forecasts live in the controller's
//! [`PlanningContext`] (which *is* checkpointed) and reach every callback
//! as the read-only `plan` argument. The built-in orderings ignore it —
//! horizon-aware behavior is opt-in per policy, and ignoring the context
//! is always bit-neutral.

use crate::config::{ConsolidationPolicyChoice, ControllerConfig, TargetPolicyChoice};
use crate::control::planning::PlanningContext;
use crate::server::ServerState;
use crate::state::PowerState;
use willow_binpack::{packer_for, Packer};
use willow_topology::{NodeId, Tree};

/// Read-only controller state handed to policy callbacks.
pub struct PolicyCtx<'a> {
    /// The PMU tree.
    pub tree: &'a Tree,
    /// Current power state (CP/TP/caps per node).
    pub power: &'a PowerState,
    /// Server states, indexed by server order.
    pub servers: &'a [ServerState],
    /// Arena index → server index (None for interior nodes).
    pub leaf_server: &'a [Option<usize>],
    /// The controller configuration.
    pub config: &'a ControllerConfig,
}

impl<'a> PolicyCtx<'a> {
    /// Utilization of the server at `leaf`, or `0.0` for non-server nodes.
    #[must_use]
    pub fn leaf_utilization(&self, leaf: NodeId) -> f64 {
        self.leaf_server[leaf.index()].map_or(0.0, |i| self.servers[i].utilization())
    }
}

/// Orders the eligible target bins of one demand-side packing instance.
/// The packer sees the bins in this order, so for order-sensitive packers
/// (first-fit and friends) this decides which surplus absorbs a parcel
/// when several could.
pub trait MigrationTargetPolicy {
    /// Reorder `targets` in place. `targets` arrives in DFS (Euler-tour)
    /// order; the ordering must be deterministic. `plan` is the planning
    /// seam (demand history and forecasts per server) — policies that
    /// don't look ahead simply ignore it.
    fn order_targets(&self, ctx: &PolicyCtx<'_>, plan: &PlanningContext, targets: &mut Vec<NodeId>);
}

/// The default target ordering: ascending arena id — the deterministic
/// "first eligible server in tree order" the paper's evaluation uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct AscendingIdTargets;

impl MigrationTargetPolicy for AscendingIdTargets {
    fn order_targets(
        &self,
        _ctx: &PolicyCtx<'_>,
        _plan: &PlanningContext,
        targets: &mut Vec<NodeId>,
    ) {
        targets.sort_unstable();
    }
}

/// Best-fit target ordering: tightest surplus first, so a parcel lands in
/// the server that it fills most completely and large surpluses stay whole
/// for large parcels. Note the capacity-sorting packers (FFDLR, FFD, BFD)
/// re-sort bins by capacity internally, so for them this ordering decides
/// *equal-capacity* ties (common on homogeneous fleets) via the utilization
/// tie-break; order-preserving packers (next-fit) honor it fully.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestFitTargets;

impl MigrationTargetPolicy for BestFitTargets {
    fn order_targets(
        &self,
        ctx: &PolicyCtx<'_>,
        _plan: &PlanningContext,
        targets: &mut Vec<NodeId>,
    ) {
        let surplus = |n: NodeId| {
            (ctx.power.tp[n.index()].0 - ctx.power.cp[n.index()].0 - ctx.config.margin.0).max(0.0)
        };
        targets.sort_unstable_by(|a, b| {
            surplus(*a)
                .total_cmp(&surplus(*b))
                .then(
                    ctx.leaf_utilization(*b)
                        .total_cmp(&ctx.leaf_utilization(*a)),
                )
                .then(a.cmp(b))
        });
    }
}

/// Thermal-headroom target ordering: coolest server first, measured as the
/// gap between a node's hard (thermal) cap and its current demand — migrated
/// load lands where the thermal model has the most room before throttling.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThermalHeadroomTargets;

impl MigrationTargetPolicy for ThermalHeadroomTargets {
    fn order_targets(
        &self,
        ctx: &PolicyCtx<'_>,
        _plan: &PlanningContext,
        targets: &mut Vec<NodeId>,
    ) {
        let headroom = |n: NodeId| ctx.power.cap[n.index()].0 - ctx.power.cp[n.index()].0;
        targets.sort_unstable_by(|a, b| headroom(*b).total_cmp(&headroom(*a)).then(a.cmp(b)));
    }
}

/// Orders consolidation's victims (servers to evacuate) and receivers
/// (bins to evacuate into). Receivers are ordered *within* each locality
/// class — siblings and non-siblings separately — so no policy can defeat
/// the sibling-first preference.
pub trait ConsolidationOrderPolicy {
    /// Reorder candidate victim server indices in place; consolidation
    /// evacuates them in this order. Must be deterministic. `plan` is the
    /// planning seam (root demand/supply history and forecasts; per-server
    /// series only under a supply policy that reads them).
    fn order_victims(&self, ctx: &PolicyCtx<'_>, plan: &PlanningContext, victims: &mut Vec<usize>);
    /// Reorder one locality class of receiver bins in place; evacuation
    /// first-fits into them in this order. Must be deterministic.
    fn order_receivers(
        &self,
        ctx: &PolicyCtx<'_>,
        plan: &PlanningContext,
        receivers: &mut [NodeId],
    );
}

/// The default consolidation ordering. Victims: thermally constrained
/// (lowest hard cap, i.e. hot zones) first, then emptiest first — the
/// paper's Fig. 7 notes that Willow "tries to move as much work away from
/// these \[hot\] servers as possible … hence they remain shut down for more
/// time". Receivers: coolest zone (largest hard cap) first so consolidated
/// load lands where thermal headroom is, then most-utilized first so
/// consolidation fills the fullest servers (the FFDLR "run every server at
/// full utilization" rationale) instead of cascading load through
/// near-idle ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct HotZonesFirst;

impl ConsolidationOrderPolicy for HotZonesFirst {
    fn order_victims(
        &self,
        ctx: &PolicyCtx<'_>,
        _plan: &PlanningContext,
        victims: &mut Vec<usize>,
    ) {
        victims.sort_unstable_by(|&a, &b| {
            let cap = |i: usize| ctx.power.cap[ctx.servers[i].node.index()].0;
            cap(a)
                .total_cmp(&cap(b))
                .then(
                    ctx.servers[a]
                        .utilization()
                        .total_cmp(&ctx.servers[b].utilization()),
                )
                .then(a.cmp(&b))
        });
    }

    fn order_receivers(
        &self,
        ctx: &PolicyCtx<'_>,
        _plan: &PlanningContext,
        receivers: &mut [NodeId],
    ) {
        receivers.sort_unstable_by(|a, b| {
            let cap = |n: NodeId| ctx.power.cap[n.index()].0;
            cap(*b)
                .total_cmp(&cap(*a))
                .then(
                    ctx.leaf_utilization(*b)
                        .total_cmp(&ctx.leaf_utilization(*a)),
                )
                .then(a.cmp(b))
        });
    }
}

/// Headroom-seeking consolidation ordering: victims as in [`HotZonesFirst`]
/// (hot zones evacuate first), but receivers ordered by largest *power*
/// headroom (budget minus current demand) instead of largest hard cap —
/// evacuated load goes where budget is actually available right now, which
/// can absorb a whole victim without cascading first-fit spills.
#[derive(Debug, Clone, Copy, Default)]
pub struct MostHeadroomReceivers;

impl ConsolidationOrderPolicy for MostHeadroomReceivers {
    fn order_victims(&self, ctx: &PolicyCtx<'_>, plan: &PlanningContext, victims: &mut Vec<usize>) {
        HotZonesFirst.order_victims(ctx, plan, victims);
    }

    fn order_receivers(
        &self,
        ctx: &PolicyCtx<'_>,
        _plan: &PlanningContext,
        receivers: &mut [NodeId],
    ) {
        receivers.sort_unstable_by(|a, b| {
            let headroom = |n: NodeId| ctx.power.tp[n.index()].0 - ctx.power.cp[n.index()].0;
            headroom(*b).total_cmp(&headroom(*a)).then(a.cmp(b))
        });
    }
}

/// The pipeline's pluggable decision points, boxed once at construction so
/// hot paths never re-box or re-dispatch beyond one vtable call.
pub struct ControlPolicies {
    /// Packing heuristic for demand-side adaptation (stage 3).
    pub packer: Box<dyn Packer>,
    /// Target-bin ordering for demand-side packing instances (stage 3).
    pub targets: Box<dyn MigrationTargetPolicy>,
    /// Victim/receiver ordering for consolidation (stage 4).
    pub consolidation: Box<dyn ConsolidationOrderPolicy>,
}

impl ControlPolicies {
    /// The policies `config` selects: the configured packer, target
    /// ordering and consolidation ordering. Every choice is constructed
    /// from config alone (no state), so checkpoint restore and the frozen
    /// reference reconstruct identical policies from the same config.
    #[must_use]
    pub fn for_config(config: &ControllerConfig) -> Self {
        let targets: Box<dyn MigrationTargetPolicy> = match config.target_policy {
            TargetPolicyChoice::AscendingId => Box::new(AscendingIdTargets),
            TargetPolicyChoice::BestFit => Box::new(BestFitTargets),
            TargetPolicyChoice::ThermalHeadroom => Box::new(ThermalHeadroomTargets),
        };
        let consolidation: Box<dyn ConsolidationOrderPolicy> = match config.consolidation_policy {
            ConsolidationPolicyChoice::HotZonesFirst => Box::new(HotZonesFirst),
            ConsolidationPolicyChoice::MostHeadroomReceivers => Box::new(MostHeadroomReceivers),
        };
        ControlPolicies {
            packer: packer_for(config.packer),
            targets,
            consolidation,
        }
    }
}
