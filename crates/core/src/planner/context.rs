//! The bundle of inputs every planner plans from.

use crate::planner::PlanCache;
use crate::strategy::Plan;
use fastt_cluster::{DeviceId, Topology};
use fastt_cost::CostModels;
use fastt_graph::Graph;
use fastt_sim::HardwarePerf;
use fastt_telemetry::Collector;
use std::sync::Arc;

/// Everything a [`Planner`](crate::planner::Planner) may consult: the graph
/// to plan, the (possibly shrunken) topology, the hardware model, an owned
/// clone of the adaptive cost models, and an optional telemetry collector.
///
/// The context *owns* its cost models: a [`Portfolio`] hands each planner
/// thread its own clone, so OS-DPOS can seed sub-operation priors without
/// racing other planners; the session adopts the winner's mutated clone
/// back. Tracing is likewise a property of the context — a planner run with
/// a collector counts its DPOS runs and emits its `dpos.split` decision
/// events.
///
/// [`Portfolio`]: crate::planner::Portfolio
#[derive(Debug, Clone)]
pub struct PlanningContext<'a> {
    /// The graph strategies are computed from (the session's base graph:
    /// the replica graph when data parallelism fits, else the raw graph).
    pub graph: &'a Graph,
    /// The raw (unreplicated) training graph, needed by start-strategy
    /// planners that build their own replication over the live topology.
    pub raw: Option<&'a Graph>,
    /// The currently deployed plan, needed by the order-only planner (and
    /// usable as a warm start by searchers).
    pub current: Option<&'a Plan>,
    /// The live topology (failed devices already blacklisted).
    pub topo: &'a Topology,
    /// The hardware performance model.
    pub hw: &'a HardwarePerf,
    /// This planning run's own cost models (cloned from the session's).
    pub cost: CostModels,
    /// Telemetry collector; `None` plans silently.
    pub collector: Option<Arc<Collector>>,
    /// Whether planners may emit an enforced execution order (the paper's
    /// Fig. 2 lever; disabled for the ordering ablation).
    pub enable_order: bool,
    /// Pinned parameter-server device for data-parallel plans (`None`
    /// follows TF-slim's host-PS convention).
    pub dp_ps: Option<DeviceId>,
    /// The plan cache backing region-granular sub-plan reuse, for planners
    /// that plan over a structural decomposition (the hierarchical
    /// planner). `None` plans without sub-plan memoization.
    pub region_cache: Option<&'a PlanCache>,
    /// Per-session cache salt (see
    /// [`FingerprintContext::cache_salt`](crate::planner::FingerprintContext));
    /// folded into region sub-plan fingerprints once the cost models have
    /// diverged from their shared priors.
    pub cache_salt: u64,
    /// Out-parameter: simulated-iteration evaluations consumed by a
    /// black-box searcher (the cost the paper's Fig. 3 argues about).
    /// White-box planners leave it at 0.
    pub evals_used: u32,
}

impl<'a> PlanningContext<'a> {
    /// Creates a context with the required inputs; optional ones default to
    /// `None` / order enforcement on.
    pub fn new(
        graph: &'a Graph,
        topo: &'a Topology,
        hw: &'a HardwarePerf,
        cost: CostModels,
    ) -> Self {
        PlanningContext {
            graph,
            raw: None,
            current: None,
            topo,
            hw,
            cost,
            collector: None,
            enable_order: true,
            dp_ps: None,
            region_cache: None,
            cache_salt: 0,
            evals_used: 0,
        }
    }

    /// Sets the raw (unreplicated) training graph.
    pub fn with_raw(mut self, raw: &'a Graph) -> Self {
        self.raw = Some(raw);
        self
    }

    /// Sets the currently deployed plan.
    pub fn with_current(mut self, current: &'a Plan) -> Self {
        self.current = Some(current);
        self
    }

    /// Attaches a telemetry collector.
    pub fn with_collector(mut self, collector: Arc<Collector>) -> Self {
        self.collector = Some(collector);
        self
    }

    /// Pins the data-parallel parameter server.
    pub fn with_dp_ps(mut self, ps: Option<DeviceId>) -> Self {
        self.dp_ps = ps;
        self
    }

    /// Attaches a plan cache for region-granular sub-plan reuse, with the
    /// session's cache salt.
    pub fn with_region_cache(mut self, cache: &'a PlanCache, salt: u64) -> Self {
        self.region_cache = Some(cache);
        self.cache_salt = salt;
        self
    }

    /// The collector as a borrowed tracer, for passing down into the
    /// scheduling internals.
    pub fn tracer(&self) -> Option<&Collector> {
        self.collector.as_deref()
    }
}
