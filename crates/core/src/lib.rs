//! # fastt
//!
//! Core of the FastT reproduction (*"Fast Training of Deep Learning Models
//! over Multiple GPUs"*, Middleware '20): white-box heuristics that compute,
//! for a DNN training graph on a multi-GPU cluster,
//!
//! 1. a list of operations to **split** into sub-operations (fine-grained
//!    mixed data/model parallelism, Sec. 5.2),
//! 2. a **device placement** for every (sub-)operation (Alg. 1), and
//! 3. an enforced **execution order** (Sec. 6.1),
//!
//! driven by adaptive cost models learned from profiled iterations
//! ([`fastt_cost`]), and validated on a simulated V100 cluster
//! ([`fastt_sim`]).
//!
//! The central entry points are:
//!
//! * [`dpos`] / [`dpos_plan`] — Alg. 1, Device Placement and Operation
//!   Sequencing;
//! * [`os_dpos`] — Alg. 2, critical-path operation splitting on top of DPOS;
//! * [`TrainingSession`] — the paper's full workflow: bootstrap the cost
//!   models with a start strategy, recompute strategies, activate or roll
//!   back, finish when the models stabilize (Sec. 4);
//! * [`search`] — honest re-implementations of the comparison systems
//!   (REINFORCE, GDP, Post, FlexFlow) for the Fig. 3 experiments.
//!
//! # Examples
//!
//! Run the full FastT workflow on a small model over two simulated GPUs:
//!
//! ```
//! use fastt::{SessionConfig, TrainingSession};
//! use fastt_cluster::Topology;
//! use fastt_models::Model;
//! use fastt_sim::HardwarePerf;
//!
//! let graph = Model::LeNet.training_graph(64);
//! let mut session = TrainingSession::new(
//!     &graph,
//!     Topology::single_server(2),
//!     HardwarePerf::new(),
//!     SessionConfig::default(),
//! )?;
//! let report = session.pre_train()?;
//! assert!(report.final_iter_time.is_finite());
//! # Ok::<(), fastt::FastTError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dpos;
mod error;
pub mod fleet;
mod os_dpos;
pub mod planner;
mod profiling;
mod rank;
pub mod search;
mod session;
mod strategy;
mod timeline;

pub use dpos::{dpos, dpos_with, schedule_for_placement, DposFlags, Schedule};
pub use error::FastTError;
pub use fleet::{
    fleet_slos, seeded_workload, ClusterManager, FleetEvent, FleetReport, JobSpec, JobStats,
};
pub use os_dpos::{dpos_plan, os_dpos, OsDposOptions};
pub use planner::{
    default_slos, region_tree_for, CandidateOutcome, DataParallelPlanner, DposPlanner, Fingerprint,
    FingerprintContext, HierarchicalPlanner, ModelParallelPlanner, OrderOnlyPlanner, OsDposPlanner,
    PlanCache, Planner, PlannerKind, PlanningContext, Portfolio, PortfolioInputs, PortfolioOutcome,
    PLANNER_LATENCY_P95_TARGET,
};
pub use profiling::bootstrap_cost_models;
pub use rank::{critical_path, critical_path_placed, upward_ranks};
pub use session::{
    LadderRung, PreTrainReport, RecoveryEvent, SessionConfig, TrainingSession, DEGRADED_SLOWDOWN,
};
pub use strategy::{data_parallel_plan, data_parallel_plan_on, model_parallel_plan, Plan};
