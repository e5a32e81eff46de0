//! The training-session workflow (Sec. 4 of the paper).
//!
//! FastT bootstraps by running the model under a start strategy (data
//! parallelism when the model fits on one GPU, model parallelism otherwise),
//! profiling each iteration to update the cost models, recomputing
//! strategies with DPOS / OS-DPOS, activating a new strategy when its
//! estimate beats the current measured time, and **rolling back** when the
//! measured per-iteration time under the new strategy is worse than before.
//! Pre-training ends when the cost models stabilize.
//!
//! A session does not own the cluster: it owns an [`Allocation`] — a
//! scoped view of a (possibly shared) topology — plus an [`Arc`]-shared
//! [`PlanCache`], so a fleet manager can run many sessions over one
//! physical cluster ([`TrainingSession::with_allocation`]) while
//! single-job sessions keep the classic whole-cluster behaviour
//! ([`TrainingSession::new`]). The workflow is split across submodules:
//! this file holds the profile → re-plan loop of pre-training and normal
//! training, `recovery` the failure handlers, and `elastic` the capacity
//! lifecycle (spot churn, quarantine, fleet grants and preemptions). Every
//! plan change goes through one entry point, `replan(trigger)` in
//! `replan`: a pre-training round, a drift re-plan, lost capacity, or grown
//! capacity each pick a candidate set and one adoption rule there.

mod elastic;
mod recovery;
mod replan;

use crate::error::FastTError;
use crate::planner::{
    lowest_score, CandidateOutcome, DataParallelPlanner, DposPlanner, HierarchicalPlanner,
    ModelParallelPlanner, OsDposPlanner, PlanCache, Planner, Portfolio, PortfolioInputs,
    PortfolioOutcome,
};
use crate::strategy::Plan;
use fastt_cluster::{Allocation, DeviceHealth, DeviceId, HealthMap, Topology};
use fastt_cost::CostModels;
use fastt_graph::{Graph, ReplicationMode};
use fastt_sim::{FaultSchedule, HardwarePerf, RunTrace, SimConfig, SimError};
use fastt_telemetry::{jobj, Collector, Value};
use replan::Trigger;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Session tuning knobs.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Profiled iterations per bootstrap round.
    pub profile_iters: u32,
    /// Maximum bootstrap rounds before pre-training is forced to end.
    pub max_rounds: u32,
    /// Seed for the deterministic noise stream.
    pub seed: u64,
    /// Enable order enforcement (disable for the paper's Fig. 2 baseline).
    pub enable_order: bool,
    /// Where the data-parallel start strategy keeps shared variables:
    /// `None` follows TF-slim (the CPU host when the topology has one);
    /// `Some(d)` pins the parameter server to device `d` (the convention
    /// for the non-slim NMT baselines is GPU 0).
    pub dp_ps: Option<DeviceId>,
    /// Scripted infrastructure faults injected into every simulated
    /// iteration (see [`FaultSchedule`]); `None` trains on a healthy
    /// cluster with behaviour bit-identical to a fault-free build.
    pub faults: Option<Arc<FaultSchedule>>,
    /// Salt folded into plan-cache fingerprints once the session's cost
    /// models have been fitted (generation > 0). Jobs sharing one
    /// [`PlanCache`] must use distinct salts so their independently
    /// fitted models never serve each other stale plans; generation-0
    /// plans (computed from content-identical priors) are shared
    /// salt-free, which is what makes admission an instant cache hit for
    /// a repeat model + allocation shape. 0 for session-local caches.
    pub cache_salt: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            profile_iters: 3,
            max_rounds: 6,
            seed: 7,
            enable_order: true,
            dp_ps: None,
            faults: None,
            cache_salt: 0,
        }
    }
}

/// Where the session currently sits on the degradation/promotion ladder,
/// ordered worst to best: greedy model parallelism at the bottom, then
/// the parameter-server data-parallel funnel, then ring all-reduce data
/// parallelism over the survivors, then a fresh DPOS/OS-DPOS plan at the
/// top. Failure recovery can step the session down the ladder; the
/// promotion path climbs back up when revoked capacity returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LadderRung {
    /// Greedy model parallelism — the last-resort fallback.
    Mp,
    /// Parameter-server data parallelism (the funnel).
    PsDp,
    /// Ring all-reduce data parallelism over the survivors, or adopted by
    /// pre-training's incumbent step.
    RingDp,
    /// A fresh DPOS/OS-DPOS plan — the top rung.
    Replanned,
}

impl LadderRung {
    /// The `kind` a recovery-log entry records for a plan adopted on this
    /// rung: `"replan"` or the winning start strategy's planner name.
    fn kind(self) -> &'static str {
        match self {
            LadderRung::Mp => "model_parallel",
            LadderRung::PsDp => "data_parallel",
            LadderRung::RingDp => "data_parallel_allreduce",
            LadderRung::Replanned => "replan",
        }
    }

    /// Stable label used in telemetry and reports.
    pub fn label(self) -> &'static str {
        match self {
            LadderRung::Mp => "model_parallel",
            LadderRung::PsDp => "ps_data_parallel",
            LadderRung::RingDp => "ring_data_parallel",
            LadderRung::Replanned => "replanned",
        }
    }
}

/// Plans and probes data parallelism in each of `modes` through one
/// portfolio and the plan cache, returning every outcome in `modes` order
/// with the ladder rung it lands on. Session start and the survivor
/// ladder's first stage share this step, so both see the same plans.
fn probe_data_parallel(
    inputs: &PortfolioInputs<'_>,
    cache: &PlanCache,
    modes: &[ReplicationMode],
) -> Vec<(LadderRung, CandidateOutcome)> {
    let mut portfolio = Portfolio::new();
    for &mode in modes {
        portfolio.push(Box::new(DataParallelPlanner { mode }));
    }
    let rungs = modes.iter().map(|&mode| match mode {
        ReplicationMode::AllReduce => LadderRung::RingDp,
        _ => LadderRung::PsDp,
    });
    rungs
        .zip(portfolio.evaluate(inputs, Some(cache)).candidates)
        .collect()
}

/// One entry in the session's recovery log: a pure record of every
/// resilience decision, in the order taken. Deterministic — two sessions
/// with the same seed, config, and fault schedule produce identical logs.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryEvent {
    /// A transient failure was retried (with exponential backoff).
    Retry {
        /// The hiccupping device.
        device: DeviceId,
        /// The iteration being attempted.
        iteration: u64,
        /// The failed attempt number (0-based).
        attempt: u32,
    },
    /// A device was blacklisted (crash, or transient failures past the
    /// retry budget).
    DeviceFailed {
        /// The blacklisted device.
        device: DeviceId,
        /// The iteration at which it was observed dead.
        iteration: u64,
    },
    /// A device was flagged as running slower than the cost models predict.
    Degraded {
        /// The straggling device.
        device: DeviceId,
        /// Measured-over-predicted duration ratio.
        slowdown: f64,
    },
    /// A link was flagged as running slower than the communication model
    /// predicts; its cost prior was re-seeded pessimistically.
    LinkDegraded {
        /// Source endpoint of the straggling directed hop.
        src: DeviceId,
        /// Destination endpoint of the straggling directed hop.
        dst: DeviceId,
        /// Measured-over-predicted transfer-time ratio.
        slowdown: f64,
    },
    /// A physical link was blacklisted (flaps past the simulator's retry
    /// budget, reported as [`fastt_sim::SimError::LinkDown`]).
    LinkFailed {
        /// Source endpoint of the dead hop.
        src: DeviceId,
        /// Destination endpoint of the dead hop.
        dst: DeviceId,
        /// The iteration at which it was observed down.
        iteration: u64,
    },
    /// A server partition was detected; every device it hosts was
    /// blacklisted (each with its own [`RecoveryEvent::DeviceFailed`]).
    Partitioned {
        /// The unreachable server.
        server: u16,
        /// The iteration at which the partition timed out.
        iteration: u64,
    },
    /// A recovery fell back to a start strategy (`"data_parallel"`,
    /// `"data_parallel_allreduce"`, or `"model_parallel"`) because the
    /// planner candidate was infeasible or slower.
    Fallback {
        /// Which fallback won.
        kind: &'static str,
    },
    /// The session adopted a new plan over the surviving topology.
    Replanned {
        /// Live GPUs at re-planning time.
        survivors: usize,
        /// `"replan"` (fresh DPOS/OS-DPOS candidate) or the fallback kind.
        kind: &'static str,
    },
    /// Recovery completed; training continues.
    Recovered {
        /// The iteration at which training resumed.
        iteration: u64,
    },
    /// A spot-revocation notice was received: the device dies at
    /// `deadline` unless it is drained first.
    RevocationNotice {
        /// The device being revoked.
        device: DeviceId,
        /// The iteration the notice was observed.
        iteration: u64,
        /// The iteration the device dies.
        deadline: u64,
    },
    /// A device under revocation notice — or preempted by the fleet
    /// manager — was proactively drained: blacklisted and re-planned
    /// around *before* death, so the deadline passes without any crash
    /// recovery (or retries) for it.
    Drained {
        /// The drained device.
        device: DeviceId,
        /// The iteration the drain happened.
        iteration: u64,
    },
    /// A previously failed device re-announced itself and entered
    /// quarantine (explicit re-admission — a flapping device is never
    /// auto-readmitted by a health signal alone).
    Readmitted {
        /// The quarantined device.
        device: DeviceId,
        /// The iteration re-admission was granted.
        iteration: u64,
    },
    /// A device finished quarantine (or arrived with a hot-added server,
    /// or was granted by the fleet manager) and rejoined the plannable
    /// capacity.
    Restored {
        /// The restored device.
        device: DeviceId,
        /// The iteration it rejoined.
        iteration: u64,
    },
    /// Growth re-planning beat the incumbent by the hysteresis margin:
    /// the session adopted the new plan and climbed the ladder.
    Promoted {
        /// Live GPUs at promotion time.
        survivors: usize,
        /// `"replan"` or the winning start-strategy kind.
        kind: &'static str,
        /// The iteration the promotion took effect.
        iteration: u64,
    },
}

/// What happened during pre-training (feeds the paper's Table 4 timing and
/// the speed numbers of Tables 1–2).
#[derive(Debug, Clone)]
pub struct PreTrainReport {
    /// Bootstrap rounds executed.
    pub rounds: u32,
    /// Wall-clock seconds spent inside DPOS / OS-DPOS (strategy
    /// calculation only, excluding profiling).
    pub strategy_calc_secs: f64,
    /// Strategy switches that survived measurement.
    pub activations: u32,
    /// Strategy switches that were rolled back.
    pub rollbacks: u32,
    /// Measured per-iteration time after pre-training.
    pub final_iter_time: f64,
    /// Measured per-iteration time after each round.
    pub history: Vec<f64>,
}

/// A FastT-managed training session over the simulated cluster.
#[derive(Debug)]
pub struct TrainingSession {
    /// The base graph strategies are computed from: the data-parallel
    /// replica graph when DP fits, otherwise the raw training graph
    /// (Sec. 5.2's input-graph rule). Rebuilt over the survivors after a
    /// device failure.
    base_graph: Graph,
    /// The raw (unreplicated) training graph, kept so re-planning after a
    /// failure can rebuild the base graph over a smaller cluster.
    training_graph: Graph,
    /// Whether the start strategy was data parallelism.
    started_dp: bool,
    /// The session's slice of the cluster: a scoped topology view plus the
    /// per-slice health map. A single-job session owns the whole cluster
    /// via [`Allocation::whole`]; fleet jobs get carved slices.
    alloc: Allocation,
    hw: HardwarePerf,
    config: SessionConfig,
    /// The adaptive cost models, learned from profiled iterations.
    pub cost: CostModels,
    current: Plan,
    measured: f64,
    iteration: u64,
    /// Every resilience decision taken, in order (see [`RecoveryEvent`]).
    recovery_log: Vec<RecoveryEvent>,
    collector: Option<Arc<Collector>>,
    /// Fingerprint-keyed memo of computed plans, shared by every portfolio
    /// evaluation the session runs — and, under a fleet manager, shared
    /// *across sessions* ([`PlanCache`] is interior-mutable behind the
    /// [`Arc`]).
    cache: Arc<PlanCache>,
    /// Which scripted lifecycle events have already been applied (indexed
    /// like the fault schedule's lifecycle list).
    lifecycle_processed: Vec<bool>,
    /// Readmitted devices waiting out quarantine: (restore-at, id).
    pending_restores: Vec<(u64, DeviceId)>,
    /// Capacity grew since the last promotion attempt.
    pending_promotion: bool,
    /// Iteration of the last promotion attempt (the cooldown anchor).
    last_promotion_attempt: Option<u64>,
    /// Current rung on the degradation/promotion ladder.
    rung: LadderRung,
}

/// Measured-over-predicted duration ratio above which a device or link is
/// flagged as degraded (`health.degraded`, `health.link_degraded`); a
/// distrusted link is restored once it measures under the inverse ratio.
pub const DEGRADED_SLOWDOWN: f64 = 1.5;

/// Simulated execution-time noise (matches real profiling variance).
const JITTER_PCT: f64 = 0.02;

/// Transient-failure retries per iteration before the failing device is
/// blacklisted and the session re-plans.
const MAX_TRANSIENT_RETRIES: u32 = 4;

/// Base of the exponential retry backoff, in seconds: attempt `k` backs off
/// `RETRY_BACKOFF_BASE * 2^k`. Reported through `session.retry` telemetry
/// (the simulated cluster does not actually sleep).
const RETRY_BACKOFF_BASE: f64 = 0.05;

/// Relative cost-model drift below which the models count as stable.
const STABILITY_EPS: f64 = 0.05;

impl TrainingSession {
    /// Creates a session for a (unreplicated) training graph.
    ///
    /// Chooses the start strategy exactly as the paper does: replicate the
    /// model over all devices and start data-parallel if that fits in
    /// memory; otherwise fall back to greedy model parallelism on the raw
    /// graph (Sec. 4 / Sec. 5.2).
    ///
    /// Equivalent to [`TrainingSession::with_allocation`] over
    /// [`Allocation::whole`] with a private plan cache.
    ///
    /// # Errors
    ///
    /// Returns [`FastTError::NoFeasibleStart`] when neither start strategy
    /// fits in device memory.
    pub fn new(
        training_graph: &Graph,
        topo: Topology,
        hw: HardwarePerf,
        config: SessionConfig,
    ) -> Result<Self, FastTError> {
        let alloc = Allocation::whole(&topo);
        Self::with_allocation(
            training_graph,
            alloc,
            hw,
            config,
            Arc::new(PlanCache::default()),
            None,
        )
    }

    /// Creates a session scoped to an [`Allocation`] — the fleet entry
    /// point: the session plans, routes, and recovers strictly inside the
    /// slice, and memoizes plans in `cache`, which a fleet manager shares
    /// across jobs (an admission whose model + allocation shape was
    /// already planned by a sibling is an instant cache hit). The start is
    /// first-feasible: parameter-server data parallelism is planned and
    /// probed alone, and only when its replicas do not fit in memory are
    /// model parallelism and the hierarchical fallback planned, together.
    /// A collector passed here traces the admission portfolios themselves
    /// (`planner.*` events and the `planner.latency` series), which a
    /// collector attached after construction cannot.
    ///
    /// # Errors
    ///
    /// Returns [`FastTError::NoFeasibleStart`] when neither start strategy
    /// fits in the slice's device memory.
    pub fn with_allocation(
        training_graph: &Graph,
        alloc: Allocation,
        hw: HardwarePerf,
        config: SessionConfig,
        cache: Arc<PlanCache>,
        collector: Option<Arc<Collector>>,
    ) -> Result<Self, FastTError> {
        Self::with_start_modes(
            training_graph,
            alloc,
            hw,
            config,
            cache,
            collector,
            &[ReplicationMode::ParameterServer],
        )
    }

    /// [`TrainingSession::with_allocation`] with the data-parallel start
    /// raced over `dp_modes`: each mode is planned through the cache and
    /// probed, and the start is the lowest probe, ties going to the
    /// earlier mode. Data parallelism is feasible when any mode fits.
    ///
    /// A session that pre-trains keeps the parameter-server start alone:
    /// its start plan is the profiling baseline the cost models are
    /// fitted from, and racing the ring there slowed every measured
    /// session workload. A fleet job is deployed as admitted and never
    /// pre-trains, so its admission races both modes.
    pub(crate) fn with_start_modes(
        training_graph: &Graph,
        alloc: Allocation,
        hw: HardwarePerf,
        config: SessionConfig,
        cache: Arc<PlanCache>,
        collector: Option<Arc<Collector>>,
        dp_modes: &[ReplicationMode],
    ) -> Result<Self, FastTError> {
        // Selection is *first-feasible*, as in the paper: data parallelism
        // is planned and probed alone, and the session starts data-parallel
        // whenever the replicated model fits in one of `dp_modes`. Bind the
        // communication model to the slice up front: per-link-class fits
        // composed along physical routes, with link-spec priors so that
        // never-profiled links cost something pessimistic instead of zero.
        let mut cost = CostModels::new();
        cost.bind_topology(alloc.topo());
        let inputs = PortfolioInputs {
            graph: training_graph,
            raw: Some(training_graph),
            current: None,
            topo: alloc.topo(),
            hw: &hw,
            cost: &cost,
            collector: collector.clone(),
            enable_order: config.enable_order,
            dp_ps: config.dp_ps,
            cache_salt: config.cache_salt,
            probe: Some(SimConfig::default()),
        };
        let mut dp = probe_data_parallel(&inputs, &cache, dp_modes);
        let best = lowest_score(dp.iter().map(|(_, c)| c.simulated));
        let (start, rung) = if let Some(i) = best {
            let (rung, mut c) = dp.swap_remove(i);
            (c.plan.take().expect("probed plan"), rung)
        } else {
            // DP infeasible: only an OOM of the preferred mode (the
            // replicated model not fitting in device memory) falls back;
            // any other failure propagates.
            // The fallbacks are planned together only now: model
            // parallelism first, and when its probe also fails, a feasible
            // hierarchical plan as the last resort — its region-granular
            // packing can fit models the layer-cut heuristic cannot — which
            // counts as a non-DP start for ladder purposes.
            match dp[0].1.error.take() {
                Some(FastTError::Sim(dp_err @ SimError::Oom { .. })) => {
                    let mut fallbacks = Portfolio::new()
                        .with(Box::new(ModelParallelPlanner))
                        .with(Box::new(HierarchicalPlanner))
                        .evaluate(&inputs, Some(&cache))
                        .candidates;
                    let mut hier_out = fallbacks.pop().expect("portfolio of two");
                    let mut mp_out = fallbacks.pop().expect("portfolio of two");
                    if mp_out.simulated.is_some() {
                        (mp_out.plan.take().expect("probed plan"), LadderRung::Mp)
                    } else if hier_out.simulated.is_some() {
                        (hier_out.plan.take().expect("probed plan"), LadderRung::Mp)
                    } else {
                        return Err(match mp_out.error.take() {
                            Some(FastTError::Sim(mp_err)) => FastTError::NoFeasibleStart {
                                dp: dp_err,
                                mp: mp_err,
                            },
                            Some(other) => other,
                            None => FastTError::ClusterExhausted,
                        });
                    }
                }
                Some(other) => return Err(other),
                None => return Err(FastTError::ClusterExhausted),
            }
        };
        let started_dp = rung != LadderRung::Mp;
        // Sec. 5.2's input-graph rule: strategies are computed from the
        // replica graph when DP fits, else from the raw training graph —
        // both are exactly the winning start plan's graph.
        let base_graph = start.graph.clone();
        let lifecycle_processed = config
            .faults
            .as_ref()
            .map(|f| vec![false; f.lifecycle().len()])
            .unwrap_or_default();
        let mut session = TrainingSession {
            base_graph,
            training_graph: training_graph.clone(),
            started_dp,
            alloc,
            hw,
            config,
            cost,
            current: start,
            measured: f64::INFINITY,
            iteration: 0,
            recovery_log: Vec::new(),
            collector: None,
            cache,
            lifecycle_processed,
            pending_restores: Vec::new(),
            pending_promotion: false,
            last_promotion_attempt: None,
            rung,
        };
        if let Some(col) = collector {
            session.attach_collector(col);
        }
        Ok(session)
    }

    /// Attaches a telemetry collector to the whole session: lifecycle
    /// events (`session.*`), scheduler decision traces (`dpos.*`),
    /// simulator summaries (`sim.*`), and cost-model accuracy (`cost.*`)
    /// all flow through it. Without a collector the session is untouched.
    pub fn attach_collector(&mut self, collector: Arc<Collector>) {
        self.cost.set_collector(collector.clone());
        collector.emit(
            "session.start",
            jobj! {
                "devices" => self.alloc.topo().device_count() as u64,
                "gpus" => self.alloc.topo().gpu_count() as u64,
                "ops" => self.base_graph.op_count() as u64,
                "started_dp" => self.started_dp,
                "est_finish" => self.current.est_finish,
            },
        );
        self.collector = Some(collector);
    }

    /// The attached telemetry collector, if any.
    pub fn collector(&self) -> Option<&Arc<Collector>> {
        self.collector.as_ref()
    }

    fn emit(&self, kind: &str, fields: Value) {
        if let Some(col) = &self.collector {
            col.emit(kind, fields);
        }
    }

    /// The currently active plan.
    pub fn current_plan(&self) -> &Plan {
        &self.current
    }

    /// Whether the session's start strategy was data parallelism (false =
    /// the model was too large and model parallelism was used, Sec. 4).
    pub fn started_data_parallel(&self) -> bool {
        self.started_dp
    }

    /// Last measured average per-iteration time.
    pub fn measured_iter_time(&self) -> f64 {
        self.measured
    }

    /// The (possibly shrunken) topology view the session is training on —
    /// scoped to the session's allocation.
    pub fn topology(&self) -> &Topology {
        self.alloc.topo()
    }

    /// The session's allocation: granted members plus the scoped view.
    pub fn allocation(&self) -> &Allocation {
        &self.alloc
    }

    /// Observed per-device health, inferred from profiled traces (scoped
    /// to the session's slice).
    pub fn health(&self) -> &HealthMap {
        self.alloc.health()
    }

    /// Every resilience decision taken so far, in order. Deterministic:
    /// same seed + same fault schedule ⇒ identical log.
    pub fn recovery_log(&self) -> &[RecoveryEvent] {
        &self.recovery_log
    }

    /// Training iterations executed so far (profiled and unprofiled).
    pub fn iterations_run(&self) -> u64 {
        self.iteration
    }

    /// The session's current rung on the degradation/promotion ladder.
    pub fn ladder_rung(&self) -> LadderRung {
        self.rung
    }

    /// The simulation parameters for the current iteration. `attempt` only
    /// matters under injected profile-failure faults.
    fn sim_config(&self, attempt: u32) -> SimConfig {
        SimConfig {
            jitter_pct: JITTER_PCT,
            seed: self.config.seed,
            iteration: self.iteration,
            collector: self.collector.clone(),
            faults: self.config.faults.clone(),
            attempt,
            ..SimConfig::default()
        }
    }

    /// The probe configuration for plan arbitration: the current position
    /// with faults included (so an infeasible-under-current-faults plan
    /// loses the arbitration instead of failing after activation), but with
    /// `attempt = u32::MAX` to exempt probes from transient profile-failure
    /// windows — a probe is a planning query, not a profiling run, and
    /// recovery must not deadlock on them.
    fn probe_config(&self) -> SimConfig {
        self.sim_config(u32::MAX)
    }

    /// Evaluates `portfolio` against the session's state (base graph, raw
    /// graph, current plan, live topology view, cost models, collector)
    /// through the session's shared [`PlanCache`].
    fn run_portfolio(&self, portfolio: &Portfolio, probe: Option<SimConfig>) -> PortfolioOutcome {
        portfolio.evaluate(&self.portfolio_inputs(probe), Some(&self.cache))
    }

    /// The session's state as portfolio inputs.
    fn portfolio_inputs(&self, probe: Option<SimConfig>) -> PortfolioInputs<'_> {
        PortfolioInputs {
            graph: &self.base_graph,
            raw: Some(&self.training_graph),
            current: Some(&self.current),
            topo: self.alloc.topo(),
            hw: &self.hw,
            cost: &self.cost,
            collector: self.collector.clone(),
            enable_order: self.config.enable_order,
            dp_ps: self.config.dp_ps,
            cache_salt: self.config.cache_salt,
            probe,
        }
    }

    /// Adopts the cost-model clone mutated by the portfolio's *main*
    /// candidate (index 0 — OS-DPOS, or plain DPOS for the "No split" arm):
    /// OS-DPOS seeds analytic priors for fresh sub-operations, and those
    /// must persist in the session. Cache-served candidates carry no clone —
    /// their seeds were adopted when the plan was first computed.
    fn adopt_candidate_cost(&mut self, outcome: &mut PortfolioOutcome) {
        if let Some(cost) = outcome.candidates[0].cost.take() {
            self.cost = cost;
        }
    }

    /// The session's plan cache (hit/miss counters included). Under a
    /// fleet manager this is the *shared* cache, so the counters aggregate
    /// across sibling jobs.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Runs one training iteration of the current plan, absorbing faults:
    /// transient failures are retried with exponential backoff, crashes and
    /// exhausted retry budgets blacklist the device and re-plan over the
    /// survivors, and memory-pressure OOM falls back to a cheaper plan.
    /// On success the iteration counter advances and (when `feed_cost`) the
    /// trace is fed to the cost models.
    fn run_iteration(&mut self, feed_cost: bool) -> Result<f64, FastTError> {
        self.process_lifecycle()?;
        let mut pressure_replans = 0u32;
        loop {
            let mut attempt = 0u32;
            let outcome = loop {
                let cfg = self.sim_config(attempt);
                match self.current.simulate(self.alloc.topo(), &self.hw, &cfg) {
                    Err(SimError::Transient {
                        device, iteration, ..
                    }) if attempt < MAX_TRANSIENT_RETRIES => {
                        let backoff = RETRY_BACKOFF_BASE * f64::powi(2.0, attempt as i32);
                        self.recovery_log.push(RecoveryEvent::Retry {
                            device,
                            iteration,
                            attempt,
                        });
                        if let Some(col) = &self.collector {
                            col.metrics().inc("session.retries");
                        }
                        self.emit(
                            "session.retry",
                            jobj! {
                                "device" => device.0 as u64,
                                "iteration" => iteration,
                                "attempt" => attempt as u64,
                                "backoff_secs" => backoff,
                            },
                        );
                        attempt += 1;
                    }
                    other => break other,
                }
            };
            match outcome {
                Ok(mut trace) => {
                    if feed_cost {
                        self.check_health(&trace);
                        self.check_link_health(&trace);
                        // Transfers over distrusted links would poison the
                        // healthy same-class fit; the pessimistic override
                        // already prices them.
                        trace
                            .transfers
                            .retain(|t| !self.cost.comm.is_distrusted(t.src_dev, t.dst_dev));
                        self.cost.update_from_trace(&self.current.graph, &trace);
                    }
                    self.iteration += 1;
                    return Ok(trace.makespan);
                }
                Err(SimError::Transient {
                    device,
                    iteration,
                    attempt,
                }) => {
                    // Retry budget spent: the hiccup is persistent enough to
                    // count as a failure — blacklist and re-plan. If that
                    // device was the last one, surface the retry story.
                    self.recover_from_failure(device, iteration)
                        .map_err(|e| match e {
                            FastTError::ClusterExhausted => FastTError::RetriesExhausted {
                                device,
                                attempts: attempt + 1,
                            },
                            other => other,
                        })?;
                }
                Err(SimError::DeviceCrash { device, iteration }) => {
                    self.recover_from_failure(device, iteration)?;
                }
                Err(SimError::LinkDown {
                    src,
                    dst,
                    iteration,
                }) => {
                    self.recover_from_link_failure(src, dst, iteration)?;
                }
                Err(SimError::PartitionTimeout { server, iteration }) => {
                    self.recover_from_partition(server, iteration)?;
                }
                Err(SimError::Unreachable { src, dst }) => {
                    self.recover_from_unreachable(src, dst)?;
                }
                Err(oom @ SimError::Oom { .. }) => {
                    // Under an injected memory-pressure spike, degrade to a
                    // plan that fits the reduced capacity (once per
                    // iteration); a genuine OOM propagates as before.
                    let device = match &oom {
                        SimError::Oom { device, .. } => *device,
                        _ => unreachable!(),
                    };
                    let under_pressure = self
                        .config
                        .faults
                        .as_ref()
                        .map(|f| f.mem_reserved(device, self.iteration) > 0)
                        .unwrap_or(false);
                    if under_pressure && pressure_replans == 0 {
                        pressure_replans += 1;
                        self.replan(Trigger::Lost("mem_pressure"))?;
                    } else {
                        return Err(oom.into());
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Health detection (tentpole (a)): compares each device's measured op
    /// durations in `trace` against the cost models' *pre-update*
    /// predictions; a device running [`DEGRADED_SLOWDOWN`]× slower than
    /// predicted is flagged (`health.degraded`), and unflagged once the
    /// ratio normalizes (the adaptive models absorb persistent slowdowns,
    /// so the flag marks the transition, not the steady state).
    fn check_health(&mut self, trace: &RunTrace) {
        let n = self.alloc.topo().device_count();
        let mut measured = vec![0.0f64; n];
        let mut predicted = vec![0.0f64; n];
        let rows = self.cost.comp.resolve(&self.current.graph);
        for r in &trace.op_records {
            if r.start < 0.0 || r.device.index() >= n {
                continue;
            }
            if let Some(p) = self.cost.comp.op_times(&rows, r.op).get(r.device) {
                measured[r.device.index()] += r.duration();
                predicted[r.device.index()] += p;
            }
        }
        for d in self.alloc.topo().gpu_ids().collect::<Vec<_>>() {
            let (m, p) = (measured[d.index()], predicted[d.index()]);
            if p <= 1e-12 {
                continue;
            }
            let ratio = m / p;
            let was_degraded =
                matches!(self.alloc.health().health(d), DeviceHealth::Degraded { .. });
            if ratio >= DEGRADED_SLOWDOWN {
                if !was_degraded {
                    self.recovery_log.push(RecoveryEvent::Degraded {
                        device: d,
                        slowdown: ratio,
                    });
                    if let Some(col) = &self.collector {
                        col.metrics().inc("health.degraded");
                    }
                    self.emit(
                        "health.degraded",
                        jobj! {
                            "device" => d.0 as u64,
                            "iteration" => self.iteration,
                            "slowdown" => ratio,
                        },
                    );
                }
                self.alloc.health_mut().mark_degraded(d, ratio);
            } else if was_degraded {
                self.alloc.health_mut().mark_healthy(d);
                self.emit(
                    "health.restored",
                    jobj! {
                        "device" => d.0 as u64,
                        "iteration" => self.iteration,
                        "slowdown" => ratio,
                    },
                );
            }
        }
    }

    /// Link-level health detection: aggregates each directed physical hop's
    /// measured transfer time in `trace` against the communication model's
    /// *pre-update* per-link-class predictions. A hop running
    /// [`DEGRADED_SLOWDOWN`]× slower than predicted is flagged
    /// (`health.link_degraded`), marked degraded in the [`HealthMap`] and
    /// the topology's belief mask, and its cost prior re-seeded
    /// pessimistically ([`CostModels::distrust_link`]) so planners route
    /// around it — without the slow samples poisoning the healthy
    /// same-class fit (they are filtered before ingestion). A distrusted
    /// hop whose measurements drop back under the *inflated* prediction by
    /// the same margin is restored.
    ///
    /// Only engages when a fault schedule is configured: fault-free
    /// sessions stay bit-identical to pre-fault builds, and a healthy
    /// cluster's contention noise never trips the detector.
    fn check_link_health(&mut self, trace: &RunTrace) {
        if self.config.faults.is_none() {
            return;
        }
        let mut agg: BTreeMap<(DeviceId, DeviceId), (f64, f64)> = BTreeMap::new();
        for t in &trace.transfers {
            if t.src_dev == t.dst_dev {
                continue;
            }
            let Some(p) = self.cost.comm.predict(t.src_dev, t.dst_dev, t.bytes) else {
                continue;
            };
            if !p.is_finite() || p <= 1e-12 {
                continue;
            }
            let e = agg.entry((t.src_dev, t.dst_dev)).or_insert((0.0, 0.0));
            e.0 += t.duration();
            e.1 += p;
        }
        for ((src, dst), (m, p)) in agg {
            if self.alloc.health().is_link_failed(src, dst) {
                continue;
            }
            let ratio = m / p;
            let distrusted = self.cost.comm.is_distrusted(src, dst);
            if !distrusted && ratio >= DEGRADED_SLOWDOWN {
                self.recovery_log.push(RecoveryEvent::LinkDegraded {
                    src,
                    dst,
                    slowdown: ratio,
                });
                if let Some(col) = &self.collector {
                    col.metrics().inc("health.link_degraded");
                }
                self.emit(
                    "health.link_degraded",
                    jobj! {
                        "src" => src.0 as u64,
                        "dst" => dst.0 as u64,
                        "iteration" => self.iteration,
                        "slowdown" => ratio,
                    },
                );
                self.alloc.health_mut().mark_link_degraded(src, dst, ratio);
                self.alloc.topo_mut().degrade_link(src, dst, ratio);
                self.cost.distrust_link(src, dst, ratio);
            } else if distrusted && ratio <= 1.0 / DEGRADED_SLOWDOWN {
                // measured far below the pessimistic line: the hop healed
                self.alloc.health_mut().mark_link_healthy(src, dst);
                self.alloc.topo_mut().restore_link(src, dst);
                self.cost.trust_link(src, dst);
                self.emit(
                    "health.link_restored",
                    jobj! {
                        "src" => src.0 as u64,
                        "dst" => dst.0 as u64,
                        "iteration" => self.iteration,
                        "slowdown" => ratio,
                    },
                );
            }
        }
    }

    /// Runs `iters` simulated training iterations of the current plan,
    /// feeding every trace into the cost models, and returns the average
    /// iteration time. Faults are absorbed by the resilience loop
    /// (bounded retries, blacklisting, re-planning).
    ///
    /// # Errors
    ///
    /// Returns [`FastTError::InvalidArgument`] when `iters == 0` (a
    /// zero-iteration "measurement" would propagate NaN into the cost
    /// models); otherwise propagates unrecoverable simulator failures.
    pub fn profile(&mut self, iters: u32) -> Result<f64, FastTError> {
        if iters == 0 {
            return Err(FastTError::InvalidArgument(
                "profile() needs at least one iteration",
            ));
        }
        let mut total = 0.0;
        for _ in 0..iters {
            total += self.run_iteration(true)?;
        }
        Ok(total / iters as f64)
    }

    /// Computes a fresh OS-DPOS candidate plan from the base graph with the
    /// current cost models, through the session's plan cache.
    pub fn compute_candidate(&mut self) -> Plan {
        self.plan_with(Box::new(OsDposPlanner::default()))
    }

    /// Computes a plain-DPOS candidate (no operation splitting) from the
    /// base graph with the current cost models — the "No split" arm of the
    /// paper's Table 6 ablation. Traced through the attached collector
    /// exactly like [`Self::compute_candidate`].
    pub fn compute_candidate_no_split(&mut self) -> Plan {
        self.plan_with(Box::new(DposPlanner))
    }

    /// Plans with `planner` alone, adopting its cost-model clone.
    fn plan_with(&mut self, planner: Box<dyn Planner>) -> Plan {
        let mut outcome = self.run_portfolio(&Portfolio::new().with(planner), None);
        self.adopt_candidate_cost(&mut outcome);
        outcome
            .into_winning_plan()
            .expect("DPOS/OS-DPOS planning is total")
    }

    /// Replaces the hardware model mid-session (used by tests and the drift
    /// experiments: real clusters change behaviour — thermal throttling,
    /// congestion — and the paper's periodic re-profiling exists to absorb
    /// exactly that).
    pub fn set_hardware(&mut self, hw: HardwarePerf) {
        self.hw = hw;
    }

    /// The paper's **normal training stage** (Sec. 4): trains for `iters`
    /// iterations, profiling every `reprofile_every`-th iteration; when the
    /// profiled execution times have drifted beyond the stability threshold,
    /// the cost models are refreshed and new strategies are recalculated and
    /// activated (with the same rollback protection as pre-training).
    ///
    /// Returns the average per-iteration time over the whole run.
    ///
    /// # Errors
    ///
    /// Returns [`FastTError::InvalidArgument`] when `iters == 0` or
    /// `reprofile_every == 0`; otherwise propagates unrecoverable simulator
    /// failures of the active plan.
    pub fn train_normal(&mut self, iters: u32, reprofile_every: u32) -> Result<f64, FastTError> {
        if iters == 0 || reprofile_every == 0 {
            return Err(FastTError::InvalidArgument(
                "train_normal() needs iters > 0 and reprofile_every > 0",
            ));
        }
        let mut total = 0.0;
        let mut since_profile = 0u32;
        let mut done = 0u32;
        while done < iters {
            let chunk = reprofile_every.min(iters - done);
            // non-profiled iterations: run without feeding the cost models
            for _ in 0..chunk {
                total += self.run_iteration(false)?;
            }
            done += chunk;
            since_profile += chunk;
            if since_profile >= reprofile_every && done < iters {
                since_profile = 0;
                // periodic profiling: one profiled iteration; if times
                // drifted, refresh the models and reconsider the strategy
                self.cost.snapshot();
                let measured = self.profile(1)?;
                total += measured;
                done += 1;
                if !self.cost.is_stable(STABILITY_EPS) {
                    self.emit(
                        "session.drift",
                        jobj! {
                            "iteration" => self.iteration,
                            "drift" => self.cost.comp.max_drift(),
                            "eps" => STABILITY_EPS,
                        },
                    );
                    if let Some(col) = &self.collector {
                        col.metrics().inc("session.drift_detected");
                    }
                    self.measured = self.profile(self.config.profile_iters)?;
                    self.replan(Trigger::Drift)?;
                }
            }
        }
        Ok(total / done.max(1) as f64)
    }

    /// Runs the full pre-training workflow: profile → update cost models →
    /// recompute strategy → activate/rollback (one `replan(Round(n))` per
    /// round) → repeat until the cost models stabilize or `max_rounds` is
    /// hit. A session that started data-parallel then races the ring
    /// all-reduce DP plan once (`replan(Incumbent)`), trialled only when
    /// its probe beats the measured time.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures of the active plan.
    pub fn pre_train(&mut self) -> Result<PreTrainReport, FastTError> {
        let mut report = PreTrainReport {
            rounds: 0,
            strategy_calc_secs: 0.0,
            activations: 0,
            rollbacks: 0,
            final_iter_time: f64::NAN,
            history: Vec::new(),
        };

        self.measured = self.profile(self.config.profile_iters)?;
        report.history.push(self.measured);

        for _ in 0..self.config.max_rounds {
            report.rounds += 1;
            self.cost.snapshot();
            self.emit(
                "session.round",
                jobj! {
                    "round" => report.rounds as u64,
                    "measured" => self.measured,
                    "drift" => self.cost.comp.max_drift(),
                },
            );

            let round = self.replan(Trigger::Round(report.rounds))?;
            report.strategy_calc_secs += round.calc_secs;
            report.activations += u32::from(round.adopted);
            report.rollbacks += round.rollbacks;
            if !round.adopted {
                // keep profiling the current plan so the models keep filling
                self.measured = self.profile(self.config.profile_iters)?;
            }
            report.history.push(self.measured);

            if self.cost.is_stable(STABILITY_EPS) && report.rounds >= 2 {
                break;
            }
        }

        if self.started_dp {
            // Pre-training never ends slower than ring all-reduce DP when
            // a probe can tell: it is raced once as the incumbent.
            let step = self.replan(Trigger::Incumbent)?;
            report.strategy_calc_secs += step.calc_secs;
            report.activations += u32::from(step.adopted);
            report.rollbacks += step.rollbacks;
        }

        report.final_iter_time = self.measured;
        self.emit(
            "session.pre_train_done",
            jobj! {
                "rounds" => report.rounds as u64,
                "activations" => report.activations as u64,
                "rollbacks" => report.rollbacks as u64,
                "final_iter_time" => report.final_iter_time,
                "strategy_calc_secs" => report.strategy_calc_secs,
            },
        );
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastt_cluster::AllocationId;
    use fastt_models::Model;

    fn quick_config() -> SessionConfig {
        SessionConfig {
            profile_iters: 2,
            max_rounds: 3,
            ..SessionConfig::default()
        }
    }

    #[test]
    fn starts_data_parallel_when_model_fits() {
        let g = Model::LeNet.training_graph(32);
        let topo = Topology::single_server(2);
        let s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick_config()).unwrap();
        // DP base graph has two replicas of every op
        assert!(s.base_graph.op_count() > 2 * g.op_count() - 10);
        assert!(s.base_graph.by_name("rep1/conv1").is_some());
    }

    #[test]
    fn falls_back_to_model_parallel_for_huge_models() {
        // A batch-32 BERT-large replica does not fit on one V100 (Table 3's
        // single-GPU OOM), so DP must be rejected and model parallelism
        // chosen. (NMT baselines keep variables on GPU 0.)
        let g = Model::BertLarge.training_graph(32);
        let topo = Topology::single_server(2);
        let cfg = SessionConfig {
            dp_ps: Some(DeviceId(0)),
            ..quick_config()
        };
        let s = TrainingSession::new(&g, topo, HardwarePerf::new(), cfg).unwrap();
        assert!(s.base_graph.by_name("rep0/layer0/attn/q").is_none());
        assert!(s.base_graph.by_name("layer0/attn/q").is_some());
        assert!(s.current_plan().placement.devices_used().len() >= 2);
    }

    #[test]
    fn pre_train_improves_or_matches_start() {
        let g = Model::LeNet.training_graph(64);
        let topo = Topology::single_server(2);
        let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick_config()).unwrap();
        let first = s.profile(2).unwrap();
        let report = s.pre_train().unwrap();
        assert!(report.rounds >= 1);
        // rollback protection: the final measured time never ends up
        // materially worse than the data-parallel start
        assert!(
            report.final_iter_time <= first * 1.10,
            "final {} vs start {first}",
            report.final_iter_time
        );
    }

    #[test]
    fn profiling_fills_cost_models() {
        let g = Model::LeNet.training_graph(32);
        let topo = Topology::single_server(2);
        let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick_config()).unwrap();
        assert!(!s.cost.covers(&s.current.graph.clone()));
        s.profile(1).unwrap();
        let g_now = s.current.graph.clone();
        assert!(s.cost.covers(&g_now));
    }

    #[test]
    fn normal_training_runs_requested_iterations() {
        let g = Model::LeNet.training_graph(32);
        let topo = Topology::single_server(2);
        let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick_config()).unwrap();
        s.pre_train().unwrap();
        let avg = s.train_normal(20, 5).unwrap();
        assert!(avg.is_finite() && avg > 0.0);
    }

    #[test]
    fn normal_training_adapts_to_hardware_drift() {
        // Slow the "hardware" down mid-training: the periodic profiler must
        // notice the drift and the session must keep producing valid plans
        // at the new speed (times roughly scale with the slowdown).
        let g = Model::AlexNet.training_graph(16);
        let topo = Topology::single_server(2);
        let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick_config()).unwrap();
        s.pre_train().unwrap();
        let fast = s.train_normal(10, 3).unwrap();

        let mut slow_hw = HardwarePerf::new();
        slow_hw.launch_overhead *= 50.0; // dispatch got much slower
        s.set_hardware(slow_hw);
        let slow = s.train_normal(10, 3).unwrap();
        assert!(
            slow > fast,
            "slower hardware must yield slower iterations ({slow} vs {fast})"
        );
        // the session's plan is still valid and executable after adaptation
        let plan = s.current_plan();
        let topo = Topology::single_server(2);
        plan.placement.validate(&plan.graph, &topo).unwrap();
    }

    #[test]
    fn unreachable_between_dead_endpoints_is_cluster_exhausted() {
        // Satellite: when the simulator reports an unroutable pair and both
        // endpoints are already blacklisted, recovery has nothing left to
        // cut — the session must surface the typed dead end, not loop.
        let g = Model::LeNet.training_graph(32);
        let topo = Topology::single_server(2);
        let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick_config()).unwrap();
        s.alloc.topo_mut().fail_device(DeviceId(0));
        s.alloc.topo_mut().fail_device(DeviceId(1));
        let err = s
            .recover_from_unreachable(DeviceId(0), DeviceId(1))
            .unwrap_err();
        assert!(matches!(err, FastTError::ClusterExhausted));
    }

    #[test]
    fn stranded_gpus_outside_the_largest_component_are_dropped() {
        // Sever every directed hop between server 0 and server 1 (hosts
        // included): the four GPUs split 2/2, and the tie must go to the
        // component holding the lowest device id.
        let g = Model::LeNet.training_graph(32);
        let topo = Topology::multi_server(2, 2);
        let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick_config()).unwrap();
        let ids: Vec<DeviceId> = s.alloc.topo().device_ids().collect();
        for &a in &ids {
            for &b in &ids {
                if a != b && s.alloc.topo().server_of(a) != s.alloc.topo().server_of(b) {
                    s.alloc.topo_mut().fail_link(a, b);
                }
            }
        }
        let dropped = s.drop_stranded_gpus(0);
        assert_eq!(dropped, vec![DeviceId(2), DeviceId(3)]);
        assert!(s.alloc.topo().is_failed(DeviceId(2)) && s.alloc.topo().is_failed(DeviceId(3)));
        assert!(!s.alloc.topo().is_failed(DeviceId(0)) && !s.alloc.topo().is_failed(DeviceId(1)));
        // each drop is logged so same-seed runs replay identically
        assert_eq!(
            s.recovery_log()
                .iter()
                .filter(|e| matches!(e, RecoveryEvent::DeviceFailed { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn strategy_calc_time_is_recorded() {
        let g = Model::LeNet.training_graph(32);
        let topo = Topology::single_server(2);
        let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick_config()).unwrap();
        let report = s.pre_train().unwrap();
        assert!(report.strategy_calc_secs > 0.0);
        assert_eq!(report.history.len() as u32, report.rounds + 1);
    }

    #[test]
    fn allocation_scoped_session_plans_inside_the_slice() {
        // A session over a carved slice must place every op on a member GPU
        // (or an involved server's host) — never on a sibling job's device.
        let g = Model::LeNet.training_graph(32);
        let shared = Topology::multi_server(2, 2);
        let alloc = Allocation::new(AllocationId(7), &shared, &[DeviceId(2), DeviceId(3)]);
        let mut s = TrainingSession::with_allocation(
            &g,
            alloc,
            HardwarePerf::new(),
            quick_config(),
            Arc::new(PlanCache::default()),
            None,
        )
        .unwrap();
        s.profile(1).unwrap();
        let plan = s.current_plan();
        for d in plan.placement.devices_used() {
            assert!(
                s.allocation().contains(d) || s.topology().is_host(d),
                "placed on non-member {d}"
            );
        }
        plan.placement.validate(&plan.graph, s.topology()).unwrap();
    }

    #[test]
    fn release_and_grant_walk_the_allocation() {
        // Fleet preemption then re-grant: the survivor keeps a valid plan
        // confined to the shrunken slice, and the grant restores capacity.
        let g = Model::LeNet.training_graph(32);
        let shared = Topology::multi_server(2, 2);
        let alloc = Allocation::new(
            AllocationId(1),
            &shared,
            &[DeviceId(0), DeviceId(1), DeviceId(2)],
        );
        let mut s = TrainingSession::with_allocation(
            &g,
            alloc,
            HardwarePerf::new(),
            quick_config(),
            Arc::new(PlanCache::default()),
            None,
        )
        .unwrap();
        s.profile(1).unwrap();
        s.release_devices(&[DeviceId(2)]).unwrap();
        assert_eq!(s.allocation().gpu_count(), 2);
        assert!(!s.allocation().contains(DeviceId(2)));
        let plan = s.current_plan().clone();
        plan.placement.validate(&plan.graph, s.topology()).unwrap();
        assert!(!plan.placement.devices_used().contains(&DeviceId(2)));
        assert!(s
            .recovery_log()
            .iter()
            .any(|e| matches!(e, RecoveryEvent::Drained { device, .. } if *device == DeviceId(2))));
        s.grant_devices(&[DeviceId(2)]).unwrap();
        assert_eq!(s.allocation().gpu_count(), 3);
        assert!(s.allocation().contains(DeviceId(2)));
        s.profile(1).unwrap();
    }
}
