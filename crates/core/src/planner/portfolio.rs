//! Concurrent candidate evaluation with cache-aware arbitration.

use super::cache::{Fingerprint, FingerprintContext, PlanCache};
use super::{Planner, PlannerKind, PlanningContext};
use crate::error::FastTError;
use crate::strategy::Plan;
use fastt_cluster::{DeviceId, Topology};
use fastt_cost::CostModels;
use fastt_graph::Graph;
use fastt_sim::{HardwarePerf, SimConfig};
use fastt_telemetry::{jobj, Collector, FINE_BUCKETS};
use std::sync::Arc;
use std::time::Instant;

/// Shared inputs for one portfolio evaluation (the borrowed counterpart of
/// [`PlanningContext`]; each planner thread derives its own context — with
/// its own cost-model clone — from these).
#[derive(Debug, Clone)]
pub struct PortfolioInputs<'a> {
    /// The graph strategies are computed from.
    pub graph: &'a Graph,
    /// The raw (unreplicated) training graph, for start-strategy planners.
    pub raw: Option<&'a Graph>,
    /// The currently deployed plan, for the order-only planner.
    pub current: Option<&'a Plan>,
    /// The live topology.
    pub topo: &'a Topology,
    /// The hardware performance model.
    pub hw: &'a HardwarePerf,
    /// The session's cost models (cloned per planner thread).
    pub cost: &'a CostModels,
    /// Telemetry collector shared by every planner thread and the
    /// portfolio's own `planner.*` events.
    pub collector: Option<Arc<Collector>>,
    /// Whether planners may emit an enforced execution order.
    pub enable_order: bool,
    /// Pinned data-parallel parameter server.
    pub dp_ps: Option<DeviceId>,
    /// Per-session salt separating fitted cost-model states in a cache
    /// shared across jobs (see [`FingerprintContext::cache_salt`]); 0 for
    /// session-local caches.
    pub cache_salt: u64,
    /// When `Some`, every candidate plan (fresh or cached) is probed with
    /// one simulated iteration under this configuration and arbitration
    /// uses the *simulated* time; when `None`, arbitration falls back to
    /// the planners' own `est_finish` estimates (plans with NaN estimates —
    /// the start strategies — then never win).
    pub probe: Option<SimConfig>,
}

/// What one planner produced during a portfolio evaluation.
#[derive(Debug)]
pub struct CandidateOutcome {
    /// [`Planner::name`] of the producing planner.
    pub planner: &'static str,
    /// The producing planner's family.
    pub kind: PlannerKind,
    /// The computed (or cache-served) plan; `None` when planning failed.
    pub plan: Option<Plan>,
    /// Probed iteration time, when a probe was requested and succeeded.
    pub simulated: Option<f64>,
    /// Simulated-iteration evaluations the planner consumed (black-box
    /// searchers; 0 for white-box planners and cache hits).
    pub evals_used: u32,
    /// Whether the plan came from the [`PlanCache`].
    pub cached: bool,
    /// Wall-clock seconds spent inside the planner (0 for cache hits).
    pub calc_secs: f64,
    /// The planning or probing failure, if any.
    pub error: Option<FastTError>,
    /// The planner thread's mutated cost-model clone (e.g. OS-DPOS sub-op
    /// seeds); the session adopts the winner's. `None` for cache hits.
    pub cost: Option<CostModels>,
}

impl CandidateOutcome {
    /// The planner's own finish-time estimate (NaN when planning failed or
    /// the planner does not estimate).
    pub fn est_finish(&self) -> f64 {
        self.plan.as_ref().map(|p| p.est_finish).unwrap_or(f64::NAN)
    }
}

/// The result of [`Portfolio::evaluate`]: every candidate outcome (in
/// planner order) and the arbitration winner.
#[derive(Debug)]
pub struct PortfolioOutcome {
    /// One outcome per portfolio planner, in portfolio order.
    pub candidates: Vec<CandidateOutcome>,
    /// Index of the winning candidate, if any scored.
    pub winner: Option<usize>,
}

impl PortfolioOutcome {
    /// The winning candidate, if any.
    pub fn winning(&self) -> Option<&CandidateOutcome> {
        self.winner.map(|i| &self.candidates[i])
    }

    /// Consumes the outcome and returns the winning plan.
    pub fn into_winning_plan(mut self) -> Option<Plan> {
        let i = self.winner?;
        self.candidates[i].plan.take()
    }
}

/// The index of the strictly lowest score, ties to the earliest; `None`
/// and NaN scores never win. Every arbitration in the crate ranks through
/// this one rule, so callers encode preference by ordering candidates.
pub(crate) fn lowest_score(scores: impl IntoIterator<Item = Option<f64>>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, s) in scores.into_iter().enumerate() {
        match s {
            Some(s) if !s.is_nan() && best.is_none_or(|(_, b)| s < b) => best = Some((i, s)),
            _ => {}
        }
    }
    best.map(|(i, _)| i)
}

/// An ordered set of [`Planner`]s evaluated concurrently — one OS thread
/// per non-cached planner via [`std::thread::scope`], each with its own
/// cost-model clone, all sharing one telemetry collector.
///
/// Arbitration is deterministic regardless of thread scheduling: results
/// are collected in planner order and the winner is the lowest score with
/// ties broken by portfolio position (so callers encode preference —
/// e.g. *re-plan before fallback* — by ordering the planners).
#[derive(Default)]
pub struct Portfolio {
    planners: Vec<Box<dyn Planner>>,
}

impl std::fmt::Debug for Portfolio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Portfolio")
            .field(
                "planners",
                &self.planners.iter().map(|p| p.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Portfolio {
    /// Creates an empty portfolio.
    pub fn new() -> Self {
        Portfolio::default()
    }

    /// Appends a planner (builder style).
    pub fn with(mut self, planner: Box<dyn Planner>) -> Self {
        self.planners.push(planner);
        self
    }

    /// Appends a planner.
    pub fn push(&mut self, planner: Box<dyn Planner>) {
        self.planners.push(planner);
    }

    /// The planners, in evaluation/preference order.
    pub fn planners(&self) -> &[Box<dyn Planner>] {
        &self.planners
    }

    /// Number of planners.
    pub fn len(&self) -> usize {
        self.planners.len()
    }

    /// Whether the portfolio has no planners.
    pub fn is_empty(&self) -> bool {
        self.planners.is_empty()
    }

    /// Evaluates every planner against `inputs` and arbitrates.
    ///
    /// With a cache, each cacheable planner's [`Fingerprint`] is looked up
    /// first (`planner.cache_hit` / `planner.cache_miss` telemetry); fresh
    /// plans are inserted afterwards. Cache-served plans are still probed —
    /// a memoized plan that no longer fits the cluster loses the
    /// arbitration instead of being deployed blind.
    pub fn evaluate(
        &self,
        inputs: &PortfolioInputs<'_>,
        cache: Option<&PlanCache>,
    ) -> PortfolioOutcome {
        let n = self.planners.len();
        let col = inputs.collector.clone();
        let _portfolio_phase = col.as_deref().map(|c| c.phase("portfolio"));

        // Cache pass (main thread, planner order — deterministic).
        let _cache_phase = col.as_deref().map(|c| c.phase("cache_pass"));
        let mut fingerprints: Vec<Option<Fingerprint>> = Vec::with_capacity(n);
        let mut cached_plans: Vec<Option<Plan>> = Vec::with_capacity(n);
        let fp_ctx = FingerprintContext {
            dp_ps: inputs.dp_ps,
            enable_order: inputs.enable_order,
            cache_salt: inputs.cache_salt,
        };
        for p in &self.planners {
            let (fp, hit) = match cache {
                Some(c) if p.cacheable() => {
                    let lookup_t0 = Instant::now();
                    let fp = Fingerprint::compute(
                        p.as_ref(),
                        inputs.graph,
                        inputs.raw,
                        inputs.topo,
                        inputs.cost,
                        &fp_ctx,
                    );
                    let hit = c.get(&fp, inputs.topo);
                    if let Some(col) = &col {
                        col.metrics().observe_with(
                            "planner.cache_lookup",
                            lookup_t0.elapsed().as_secs_f64(),
                            &FINE_BUCKETS,
                        );
                    }
                    if let Some(col) = &col {
                        let kind = if hit.is_some() {
                            col.metrics().inc("planner.cache_hits");
                            "planner.cache_hit"
                        } else {
                            col.metrics().inc("planner.cache_misses");
                            "planner.cache_miss"
                        };
                        col.emit(
                            kind,
                            jobj! {
                                "planner" => p.name(),
                                "graph_hash" => fp.graph_hash,
                                "capacity_mask" => fp.capacity_mask,
                                "cost_generation" => fp.cost_generation,
                            },
                        );
                    }
                    (Some(fp), hit)
                }
                _ => (None, None),
            };
            fingerprints.push(fp);
            cached_plans.push(hit);
        }
        drop(_cache_phase);

        // Planning pass: uncached planners run concurrently, one scoped
        // thread each (a single job runs inline — no thread overhead).
        // Results land in planner order, so scheduling cannot affect
        // arbitration.
        type PlanRun = (Result<Plan, FastTError>, u32, f64, CostModels);
        let jobs: Vec<usize> = (0..n).filter(|&i| cached_plans[i].is_none()).collect();
        let run = |i: usize| -> PlanRun {
            let mut ctx = PlanningContext {
                graph: inputs.graph,
                raw: inputs.raw,
                current: inputs.current,
                topo: inputs.topo,
                hw: inputs.hw,
                cost: inputs.cost.clone(),
                collector: inputs.collector.clone(),
                enable_order: inputs.enable_order,
                dp_ps: inputs.dp_ps,
                region_cache: cache,
                cache_salt: inputs.cache_salt,
                evals_used: 0,
            };
            let pcol = ctx.collector.clone();
            let _plan_phase = pcol.as_deref().map(|c| c.phase("plan"));
            let _name_phase = pcol.as_deref().map(|c| c.phase(self.planners[i].name()));
            let t0 = Instant::now();
            let res = self.planners[i].plan(&mut ctx);
            (res, ctx.evals_used, t0.elapsed().as_secs_f64(), ctx.cost)
        };
        let mut fresh: Vec<Option<PlanRun>> = (0..n).map(|_| None).collect();
        if jobs.len() == 1 {
            fresh[jobs[0]] = Some(run(jobs[0]));
        } else if !jobs.is_empty() {
            std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .iter()
                    .map(|&i| (i, scope.spawn(move || run(i))))
                    .collect();
                for (i, h) in handles {
                    match h.join() {
                        Ok(r) => fresh[i] = Some(r),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
            });
        }

        // Assemble outcomes, probe, and fill the cache (main thread).
        let mut candidates: Vec<CandidateOutcome> = Vec::with_capacity(n);
        for (i, p) in self.planners.iter().enumerate() {
            let mut out = match (cached_plans[i].take(), fresh[i].take()) {
                (Some(plan), _) => CandidateOutcome {
                    planner: p.name(),
                    kind: p.kind(),
                    plan: Some(plan),
                    simulated: None,
                    evals_used: 0,
                    cached: true,
                    calc_secs: 0.0,
                    error: None,
                    cost: None,
                },
                (None, Some((res, evals, secs, cost))) => {
                    if let Some(col) = &col {
                        // Aggregate and per-planner latency (ROADMAP item-1
                        // SLO input); fine buckets — small-graph placements
                        // land sub-microsecond.
                        col.metrics()
                            .observe_with("planner.latency", secs, &FINE_BUCKETS);
                        col.metrics().observe_with(
                            &format!("planner.latency.{}", p.name()),
                            secs,
                            &FINE_BUCKETS,
                        );
                    }
                    let (plan, error) = match res {
                        Ok(plan) => (Some(plan), None),
                        Err(e) => (None, Some(e)),
                    };
                    CandidateOutcome {
                        planner: p.name(),
                        kind: p.kind(),
                        plan,
                        simulated: None,
                        evals_used: evals,
                        cached: false,
                        calc_secs: secs,
                        error,
                        cost: Some(cost),
                    }
                }
                (None, None) => unreachable!("every planner is cached or ran"),
            };
            if let (Some(plan), Some(probe)) = (&out.plan, &inputs.probe) {
                let _probe_phase = col.as_deref().map(|c| c.phase("probe"));
                match plan.simulate(inputs.topo, inputs.hw, probe) {
                    Ok(t) => out.simulated = Some(t.makespan),
                    Err(e) => out.error = Some(e.into()),
                }
            }
            if let (Some(c), Some(fp), Some(plan), false) =
                (cache, fingerprints[i].take(), out.plan.as_ref(), out.cached)
            {
                c.insert(fp, plan, inputs.topo);
            }
            candidates.push(out);
        }

        // Arbitration: lowest score wins, ties to the earliest planner.
        let score = |c: &CandidateOutcome| -> Option<f64> {
            if inputs.probe.is_some() {
                c.simulated
            } else {
                Some(c.est_finish())
            }
        };
        let winner = lowest_score(candidates.iter().map(score));

        if let Some(col) = &col {
            for (i, c) in candidates.iter().enumerate() {
                col.metrics().inc("planner.candidates");
                col.emit(
                    "planner.candidate",
                    jobj! {
                        "planner" => c.planner,
                        "kind" => c.kind.as_str(),
                        "cached" => c.cached,
                        "ok" => c.error.is_none() && c.plan.is_some(),
                        "est_finish" => c.est_finish(),
                        "simulated" => c.simulated.unwrap_or(f64::NAN),
                        "evals_used" => c.evals_used as u64,
                        "calc_secs" => c.calc_secs,
                        "selected" => winner == Some(i),
                    },
                );
            }
            if let Some(w) = winner {
                let c = &candidates[w];
                col.metrics().inc("planner.selections");
                col.emit(
                    "planner.selected",
                    jobj! {
                        "planner" => c.planner,
                        "kind" => c.kind.as_str(),
                        "cached" => c.cached,
                        "score" => score(c).unwrap_or(f64::NAN),
                        "by" => if inputs.probe.is_some() { "probe" } else { "estimate" },
                        "candidates" => candidates.len() as u64,
                    },
                );
            }
        }

        PortfolioOutcome { candidates, winner }
    }
}
