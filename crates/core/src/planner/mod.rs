//! The unified planning layer.
//!
//! Every way FastT can produce a [`Plan`] — the white-box DPOS / OS-DPOS
//! heuristics (Alg. 1 / Alg. 2), the order-only lever (Fig. 2), the
//! data-parallel and model-parallel start strategies (Sec. 4), and the five
//! Fig.-3 black-box searchers — implements
//! one [`Planner`] trait over one [`PlanningContext`]. On top of that sit:
//!
//! * [`Portfolio`] — evaluates a configurable candidate set concurrently
//!   (one OS thread per planner via [`std::thread::scope`], each with its
//!   own cost-model clone and a shared telemetry collector) and arbitrates
//!   by simulated iteration time;
//! * [`PlanCache`] — memoizes plans under a [`Fingerprint`] of the graph
//!   structure, the live-slice capacity mask (a position-independent shape
//!   hash), the cost-model generation counter, and the planning context,
//!   so drift re-profiling, fault recovery, *and sibling jobs sharing the
//!   cache* reuse still-valid candidates instead of recomputing from
//!   scratch.
//!
//! The [`crate::TrainingSession`] routes *all* candidate generation,
//! recovery fallback probing, and arbitration through this layer; the old
//! `*_traced` duplicate entry points are gone — tracing is a property of
//! the context, not of the function you call.
//!
//! # Examples
//!
//! ```
//! use fastt::planner::{DposPlanner, Planner, PlanningContext};
//! use fastt_cluster::Topology;
//! use fastt_cost::CostModels;
//! use fastt_models::Model;
//! use fastt_sim::HardwarePerf;
//!
//! let graph = Model::LeNet.training_graph(32);
//! let topo = Topology::single_server(2);
//! let hw = HardwarePerf::new();
//! let mut ctx = PlanningContext::new(&graph, &topo, &hw, CostModels::new());
//! let plan = DposPlanner.plan(&mut ctx)?;
//! assert!(plan.est_finish.is_finite());
//! # Ok::<(), fastt::FastTError>(())
//! ```

mod builtin;
mod cache;
mod context;
mod hierarchical;
mod portfolio;

pub use builtin::{
    DataParallelPlanner, DposPlanner, ModelParallelPlanner, OrderOnlyPlanner, OsDposPlanner,
};
pub use cache::{Fingerprint, FingerprintContext, PlanCache};
pub use context::PlanningContext;
pub use hierarchical::{region_tree_for, HierarchicalPlanner};
pub(crate) use portfolio::lowest_score;
pub use portfolio::{CandidateOutcome, Portfolio, PortfolioInputs, PortfolioOutcome};

use crate::error::FastTError;
use crate::strategy::Plan;
use fastt_telemetry::Slo;

/// Default p95 target for the `planner.latency` SLO, in seconds. Strategy
/// calculation is a serving-path cost (ROADMAP item 1, after Baechi): a
/// re-plan that takes longer than this delays recovery and fleet admission.
pub const PLANNER_LATENCY_P95_TARGET: f64 = 0.25;

/// The declared SLO set the report binary and `perfbench` grade against:
/// aggregate `planner.latency` p95 plus the per-planner series for the two
/// white-box algorithms (warn band 2× per [`Slo::p95`]).
pub fn default_slos() -> Vec<Slo> {
    vec![
        Slo::p95(
            "planner.latency.p95",
            "planner.latency",
            PLANNER_LATENCY_P95_TARGET,
        ),
        Slo::p95(
            "planner.latency.dpos.p95",
            "planner.latency.dpos",
            PLANNER_LATENCY_P95_TARGET,
        ),
        Slo::p95(
            "planner.latency.os_dpos.p95",
            "planner.latency.os_dpos",
            PLANNER_LATENCY_P95_TARGET,
        ),
        Slo::p95(
            "planner.latency.hierarchical.p95",
            "planner.latency.hierarchical",
            PLANNER_LATENCY_P95_TARGET,
        ),
    ]
}

/// What family a planner belongs to — reported in `planner.*` telemetry and
/// used by the cache to pick the fingerprint's graph component (start
/// strategies plan from the raw training graph, everything else from the
/// context's planning graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PlannerKind {
    /// Cost-model-driven heuristics: DPOS, OS-DPOS, GDP.
    WhiteBox,
    /// Black-box placement searchers (REINFORCE, CEM, MCMC, random).
    Search,
    /// The paper's bootstrap strategies: data parallelism, model
    /// parallelism.
    StartStrategy,
    /// Keep the current deployment, only enforce an execution order.
    OrderOnly,
}

impl PlannerKind {
    /// Stable snake-case label for telemetry and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            PlannerKind::WhiteBox => "white_box",
            PlannerKind::Search => "search",
            PlannerKind::StartStrategy => "start_strategy",
            PlannerKind::OrderOnly => "order_only",
        }
    }
}

/// A strategy planner: anything that can turn a [`PlanningContext`] into a
/// [`Plan`].
///
/// Implementations must be [`Send`] + [`Sync`] so a [`Portfolio`] can
/// evaluate several of them on separate threads; mutable planning state
/// (cost-model seeding, RNG streams) lives in the per-thread context or in
/// the planner's own seeded parameters, never in shared globals.
pub trait Planner: Send + Sync {
    /// Stable identifier, e.g. `"os_dpos"` — used as the telemetry label
    /// and as part of the cache fingerprint.
    fn name(&self) -> &'static str;

    /// The planner's family.
    fn kind(&self) -> PlannerKind;

    /// Whether predictions of the adaptive cost models feed the plan. When
    /// `true`, the cache fingerprint includes the cost-model generation
    /// counter, so refits invalidate cached plans; when `false` (pure
    /// topology/hardware planners like the start strategies), cached plans
    /// survive cost-model updates.
    fn uses_cost_models(&self) -> bool {
        true
    }

    /// Whether the result may be memoized by a [`PlanCache`]. Planners
    /// whose output depends on inputs outside the fingerprint (e.g. the
    /// order-only planner, which reads the *current* plan) must opt out.
    fn cacheable(&self) -> bool {
        true
    }

    /// Extra fingerprint material: a hash of any tuning parameters or RNG
    /// seeds that change the output (two differently-seeded searchers must
    /// not share a cache slot).
    fn fingerprint_extra(&self) -> u64 {
        0
    }

    /// Computes a plan for the context.
    ///
    /// # Errors
    ///
    /// Returns a [`FastTError`] when the context lacks a required input
    /// (e.g. a start strategy without the raw training graph) or the
    /// cluster cannot host any plan.
    fn plan(&self, ctx: &mut PlanningContext<'_>) -> Result<Plan, FastTError>;
}

/// Hashes planner parameters for [`Planner::fingerprint_extra`]: feeds every
/// `u64` through the std `DefaultHasher` (stable SipHash). Floats should be
/// passed as `f64::to_bits`.
pub fn hash_params(parts: &[u64]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    parts.hash(&mut h);
    h.finish()
}
