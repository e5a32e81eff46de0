//! Acceptance tests for the unified planner layer: portfolio concurrency
//! and deterministic arbitration, fingerprint-keyed plan caching (and its
//! invalidation on blacklists and cost-model refits), seeded search
//! determinism, and the traced no-split candidate path.

use fastt::planner::{Planner, PlannerKind, PlanningContext};
use fastt::search::{
    cem_search, gdp_place, mcmc_search, random_search, reinforce_search, CemPlanner, McmcPlanner,
    RandomPlanner,
};
use fastt::{
    bootstrap_cost_models, DposPlanner, FastTError, Plan, PlanCache, Portfolio, PortfolioInputs,
    SessionConfig, TrainingSession,
};
use fastt_cluster::{DeviceId, Topology};
use fastt_cost::CostModels;
use fastt_graph::Graph;
use fastt_models::Model;
use fastt_sim::{FaultSchedule, HardwarePerf, SimConfig};
use fastt_telemetry::{Collector, MemorySink};
use std::sync::{Arc, Mutex};

fn inputs<'a>(
    graph: &'a Graph,
    topo: &'a Topology,
    hw: &'a HardwarePerf,
    cost: &'a CostModels,
) -> PortfolioInputs<'a> {
    PortfolioInputs {
        graph,
        raw: None,
        current: None,
        topo,
        hw,
        cost,
        collector: None,
        enable_order: true,
        dp_ps: None,
        cache_salt: 0,
        probe: None,
    }
}

#[test]
fn cache_hits_on_unchanged_fingerprint_and_misses_on_blacklist_or_refit() {
    let graph = Model::LeNet.training_graph(32);
    let mut topo = Topology::single_server(4);
    let hw = HardwarePerf::new();
    // bootstrap seeds analytic priors without bumping the generation —
    // a fresh identical run must land on the same fingerprint
    let mut cost = bootstrap_cost_models(&graph, &topo, &hw);
    let portfolio = Portfolio::new().with(Box::new(DposPlanner));
    let cache = PlanCache::default();

    let first = portfolio.evaluate(&inputs(&graph, &topo, &hw, &cost), Some(&cache));
    assert!(!first.candidates[0].cached);
    assert_eq!(cache.misses(), 1);
    let first_plan = first.into_winning_plan().unwrap();

    // identical inputs: served from the cache, bit-identical plan
    let second = portfolio.evaluate(&inputs(&graph, &topo, &hw, &cost), Some(&cache));
    assert!(second.candidates[0].cached);
    assert_eq!(cache.hits(), 1);
    let second_plan = second.into_winning_plan().unwrap();
    assert_eq!(first_plan.placement, second_plan.placement);
    assert_eq!(first_plan.order, second_plan.order);

    // blacklisting a device changes the failed mask: miss
    topo.fail_device(DeviceId(3));
    let after_fail = portfolio.evaluate(&inputs(&graph, &topo, &hw, &cost), Some(&cache));
    assert!(
        !after_fail.candidates[0].cached,
        "a blacklisted device must invalidate the cached plan"
    );

    // a comm-model refit bumps the generation counter: miss again
    let gen_before = cost.generation();
    for s in topo.gpu_ids().collect::<Vec<_>>() {
        for d in topo.gpu_ids().collect::<Vec<_>>() {
            if s != d {
                cost.comm.observe(s, d, 1 << 20, 1e-4);
            }
        }
    }
    cost.comm.refit();
    assert!(cost.generation() > gen_before);
    let after_refit = portfolio.evaluate(&inputs(&graph, &topo, &hw, &cost), Some(&cache));
    assert!(
        !after_refit.candidates[0].cached,
        "a cost-model refit must invalidate the cached plan"
    );
}

/// A planner that records which OS thread ran it, then delegates to DPOS.
#[derive(Debug)]
struct ThreadProbe {
    ids: Arc<Mutex<Vec<std::thread::ThreadId>>>,
}

impl Planner for ThreadProbe {
    fn name(&self) -> &'static str {
        "thread_probe"
    }

    fn kind(&self) -> PlannerKind {
        PlannerKind::WhiteBox
    }

    fn cacheable(&self) -> bool {
        false
    }

    fn plan(&self, ctx: &mut PlanningContext<'_>) -> Result<Plan, FastTError> {
        self.ids.lock().unwrap().push(std::thread::current().id());
        DposPlanner.plan(ctx)
    }
}

#[test]
fn portfolio_evaluates_candidates_on_separate_threads() {
    let graph = Model::LeNet.training_graph(32);
    let topo = Topology::single_server(2);
    let hw = HardwarePerf::new();
    let cost = bootstrap_cost_models(&graph, &topo, &hw);

    let ids = Arc::new(Mutex::new(Vec::new()));
    let mut portfolio = Portfolio::new();
    for _ in 0..3 {
        portfolio.push(Box::new(ThreadProbe { ids: ids.clone() }));
    }
    let outcome = portfolio.evaluate(&inputs(&graph, &topo, &hw, &cost), None);
    assert_eq!(outcome.candidates.len(), 3);
    assert!(outcome.candidates.iter().all(|c| c.plan.is_some()));

    let ids = ids.lock().unwrap();
    assert_eq!(ids.len(), 3);
    let main = std::thread::current().id();
    assert!(
        ids.iter().all(|&id| id != main),
        "planners must not run on the caller's thread"
    );
    let distinct: std::collections::HashSet<_> = ids.iter().collect();
    assert_eq!(distinct.len(), 3, "each planner gets its own thread");
}

#[test]
fn portfolio_arbitration_is_deterministic_under_fixed_seeds() {
    let graph = Model::LeNet.training_graph(16);
    let topo = Topology::single_server(4);
    let hw = HardwarePerf::new();
    let cost = bootstrap_cost_models(&graph, &topo, &hw);

    let portfolio = || {
        Portfolio::new()
            .with(Box::new(RandomPlanner { evals: 32, seed: 5 }))
            .with(Box::new(CemPlanner {
                rounds: 4,
                pop: 8,
                elite_frac: 0.25,
                seed: 13,
            }))
            .with(Box::new(McmcPlanner {
                evals: 60,
                temp: 0.05,
                seed: 17,
                start_from_current: false,
            }))
    };
    let a = portfolio().evaluate(&inputs(&graph, &topo, &hw, &cost), None);
    let b = portfolio().evaluate(&inputs(&graph, &topo, &hw, &cost), None);
    assert_eq!(a.winner, b.winner, "same seeds must elect the same winner");
    assert!(a.winner.is_some());
    for (ca, cb) in a.candidates.iter().zip(&b.candidates) {
        assert_eq!(
            ca.plan.as_ref().unwrap().placement,
            cb.plan.as_ref().unwrap().placement,
            "{} must be deterministic",
            ca.planner
        );
        assert_eq!(ca.evals_used, cb.evals_used);
    }
}

#[test]
fn every_search_baseline_is_deterministic_for_the_same_seed() {
    let graph = Model::LeNet.training_graph(16);
    let topo = Topology::single_server(4);
    let hw = HardwarePerf::new();
    let cost = bootstrap_cost_models(&graph, &topo, &hw);

    let runs = |i: u32| {
        let _ = i;
        [
            random_search(&graph, &topo, &hw, 16, 3),
            mcmc_search(&graph, &topo, &hw, None, 40, 0.05, 9),
            cem_search(&graph, &topo, &hw, 3, 6, 0.3, 11),
            reinforce_search(&graph, &topo, &hw, 3, 4, 7),
            gdp_place(&graph, &topo, &cost, &hw),
        ]
    };
    for (a, b) in runs(0).iter().zip(runs(1).iter()) {
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.evals_used, b.evals_used);
        assert!(a.best_time == b.best_time || (a.best_time.is_nan() && b.best_time.is_nan()));
    }
}

#[test]
fn session_serves_repeated_candidates_from_the_plan_cache() {
    let g = Model::LeNet.training_graph(32);
    let topo = Topology::single_server(2);
    let mut s =
        TrainingSession::new(&g, topo, HardwarePerf::new(), SessionConfig::default()).unwrap();
    s.profile(2).unwrap();
    let first = s.compute_candidate();
    let hits_before = s.plan_cache().hits();
    // no profiling in between: the fingerprint is unchanged
    let second = s.compute_candidate();
    assert_eq!(s.plan_cache().hits(), hits_before + 1);
    assert_eq!(first.placement, second.placement);
    // profiling bumps the cost generation: the next candidate recomputes
    s.profile(1).unwrap();
    let misses_before = s.plan_cache().misses();
    s.compute_candidate();
    assert_eq!(s.plan_cache().misses(), misses_before + 1);
}

#[test]
fn no_split_candidate_emits_dpos_trace_events() {
    let g = Model::LeNet.training_graph(32);
    let topo = Topology::single_server(2);
    let mut s =
        TrainingSession::new(&g, topo, HardwarePerf::new(), SessionConfig::default()).unwrap();
    let sink = Arc::new(MemorySink::with_default_capacity());
    s.attach_collector(Arc::new(Collector::new().with_sink(sink.clone())));
    s.profile(1).unwrap();
    sink.clear();

    s.compute_candidate_no_split();
    assert!(
        !sink.events_of("dpos.place").is_empty(),
        "the no-split candidate must trace its placement decisions"
    );
    assert!(!sink.events_of("planner.candidate").is_empty());
}

#[test]
fn same_seed_sessions_choose_identical_plans_through_recovery() {
    // Extends the PR-2 determinism suite to the portfolio: two sessions
    // with the same seed, config, and fault schedule must not only take the
    // same recovery decisions but deploy bit-identical plans.
    let run = || {
        let g = Model::LeNet.training_graph(32);
        let topo = Topology::single_server(4);
        let cfg = SessionConfig {
            profile_iters: 2,
            max_rounds: 3,
            faults: Some(Arc::new(
                FaultSchedule::from_scenario(include_str!("../../fuzz/corpus/chaos-21.fuzz"))
                    .unwrap(),
            )),
            ..SessionConfig::default()
        };
        let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), cfg).unwrap();
        s.pre_train().unwrap();
        s.train_normal(30, 5).unwrap();
        s
    };
    let a = run();
    let b = run();
    assert_eq!(a.recovery_log(), b.recovery_log());
    assert_eq!(a.current_plan().placement, b.current_plan().placement);
    assert_eq!(a.current_plan().order, b.current_plan().order);
    assert_eq!(
        a.plan_cache().hits() + a.plan_cache().misses(),
        b.plan_cache().hits() + b.plan_cache().misses(),
        "cache traffic itself must be deterministic"
    );
}

#[test]
fn cached_plans_are_probed_before_deployment() {
    // A cache-served plan must still be probed: stale plans that no longer
    // fit the cluster lose the arbitration instead of being deployed blind.
    let graph = Model::LeNet.training_graph(32);
    let topo = Topology::single_server(2);
    let hw = HardwarePerf::new();
    let cost = bootstrap_cost_models(&graph, &topo, &hw);
    let portfolio = Portfolio::new().with(Box::new(DposPlanner));
    let cache = PlanCache::default();

    let mut with_probe = inputs(&graph, &topo, &hw, &cost);
    with_probe.probe = Some(SimConfig::default());
    let first = portfolio.evaluate(&with_probe, Some(&cache));
    assert!(first.candidates[0].simulated.is_some());
    let second = portfolio.evaluate(&with_probe, Some(&cache));
    assert!(second.candidates[0].cached);
    assert!(
        second.candidates[0].simulated.is_some(),
        "cached candidates are re-probed under the current conditions"
    );
}
