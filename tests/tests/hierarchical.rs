//! Hierarchical placement smoke tests (CI `hierarchical` step): the
//! decomposition collapses stacked models by an order of magnitude, the
//! expanded placement passes the flat planners' checker, arbitration stays
//! deterministic under a fixed seed, depth-siblings reuse region-level
//! sub-plans from the shared cache, and a memo-served plan reports its own
//! decomposition time.

use fastt::{
    DposPlanner, HierarchicalPlanner, PlanCache, Planner, PlanningContext, Portfolio,
    PortfolioInputs,
};
use fastt_cluster::Topology;
use fastt_cost::CostModels;
use fastt_graph::{build_training_graph, decompose, RegionKind};
use fastt_models::stacked_transformer;
use fastt_sim::{HardwarePerf, SimConfig};
use fastt_telemetry::{Collector, MemorySink};
use std::sync::Arc;

#[test]
fn stacked_transformer_decomposes_an_order_of_magnitude() {
    let g = build_training_graph(&stacked_transformer(64, 8)).unwrap();
    let t = decompose(&g);
    let n = g.op_count();
    eprintln!(
        "ops={} regions={} rounds={} residual={} kinds: leaf={} chain={} bundle={} mixed={}",
        n,
        t.len(),
        t.rounds(),
        t.residual_regions().len(),
        t.regions()
            .filter(|(_, r)| r.kind == RegionKind::Leaf)
            .count(),
        t.regions()
            .filter(|(_, r)| r.kind == RegionKind::Chain)
            .count(),
        t.regions()
            .filter(|(_, r)| r.kind == RegionKind::Bundle)
            .count(),
        t.regions()
            .filter(|(_, r)| r.kind == RegionKind::Mixed)
            .count(),
    );
    assert!(t.len() < n / 10, "regions {} !< ops/10 {}", t.len(), n / 10);
}

/// The CI smoke: a seeded decompose + plan on the stacked Transformer.
/// The expanded placement must validate, and racing hierarchical against
/// flat DPOS under probe-and-pick arbitration must pick the same winner
/// with the same placement on every same-seed run.
#[test]
fn hierarchical_plan_validates_and_arbitration_is_deterministic() {
    let g = build_training_graph(&stacked_transformer(64, 8)).unwrap();
    let topo = Topology::multi_server(2, 2);
    let hw = HardwarePerf::new();
    let cost = fastt::bootstrap_cost_models(&g, &topo, &hw);

    let run = || {
        let portfolio = Portfolio::new()
            .with(Box::new(DposPlanner))
            .with(Box::<HierarchicalPlanner>::default());
        let inputs = PortfolioInputs {
            graph: &g,
            raw: Some(&g),
            current: None,
            topo: &topo,
            hw: &hw,
            cost: &cost,
            collector: None,
            enable_order: true,
            dp_ps: None,
            cache_salt: 0,
            probe: Some(SimConfig {
                seed: 7,
                ..SimConfig::default()
            }),
        };
        portfolio.evaluate(&inputs, None)
    };

    let mut a = run();
    let b = run();
    assert_eq!(a.winner, b.winner, "same-seed arbitration must agree");
    for (ca, cb) in a.candidates.iter().zip(&b.candidates) {
        assert_eq!(ca.planner, cb.planner);
        assert_eq!(ca.simulated, cb.simulated, "{} probe drifted", ca.planner);
        let (pa, pb) = (ca.plan.as_ref().unwrap(), cb.plan.as_ref().unwrap());
        assert_eq!(
            pa.placement, pb.placement,
            "{} placement drifted across same-seed runs",
            ca.planner
        );
    }

    // The hierarchical candidate is present, probed, and valid.
    let hier = a
        .candidates
        .iter_mut()
        .find(|c| c.planner == "hierarchical")
        .expect("hierarchical raced");
    assert!(hier.simulated.is_some(), "hierarchical probe must succeed");
    let plan = hier.plan.take().unwrap();
    plan.placement.validate(&plan.graph, &topo).unwrap();
}

/// Region-granular cache reuse: two stacked Transformers differing only in
/// depth share no whole-plan fingerprint, but their repeated layers hash to
/// the same regions — the second plan is served region sub-plans recorded
/// by the first.
#[test]
fn depth_siblings_share_region_sub_plans() {
    let g4 = build_training_graph(&stacked_transformer(64, 4)).unwrap();
    let g6 = build_training_graph(&stacked_transformer(64, 6)).unwrap();
    let topo = Topology::multi_server(1, 4);
    let hw = HardwarePerf::new();
    let cache = PlanCache::new(512);

    let mut ctx4 =
        PlanningContext::new(&g4, &topo, &hw, CostModels::new()).with_region_cache(&cache, 0);
    HierarchicalPlanner.plan(&mut ctx4).unwrap();
    assert!(
        cache.region_misses() > 0,
        "first plan must record region sub-plans"
    );
    let hits_before = cache.region_hits();

    let mut ctx6 =
        PlanningContext::new(&g6, &topo, &hw, CostModels::new()).with_region_cache(&cache, 0);
    HierarchicalPlanner.plan(&mut ctx6).unwrap();
    assert!(
        cache.region_hits() > hits_before,
        "depth sibling must be served from region sub-plans \
         (hits {} -> {}, misses {})",
        hits_before,
        cache.region_hits(),
        cache.region_misses(),
    );

    // Region traffic is accounted separately: the whole-plan counters the
    // fleet's pinned twin-admission invariant reads stay untouched.
    assert_eq!(cache.hits(), 0);
    assert_eq!(cache.misses(), 0);
}

/// The decomposition time a plan reports is what that call spent. Two
/// plans of a graph no other test in this binary builds: the first pays
/// the cold decomposition, the second is a memo hit that says so and
/// reports less time than the first.
#[test]
fn repeat_plan_reports_memo_hit_and_its_own_decompose_time() {
    let g = build_training_graph(&stacked_transformer(128, 10)).unwrap();
    let topo = Topology::single_server(2);
    let hw = HardwarePerf::new();
    let plan = || {
        let sink = Arc::new(MemorySink::with_default_capacity());
        let col = Arc::new(Collector::new().with_sink(sink.clone()));
        let mut ctx = PlanningContext::new(&g, &topo, &hw, CostModels::new()).with_collector(col);
        HierarchicalPlanner.plan(&mut ctx).unwrap();
        let ev = sink
            .events_of("hier.plan")
            .pop()
            .expect("hier.plan emitted");
        (
            ev.field("decompose_cached").as_bool().unwrap(),
            ev.num("decompose_secs").unwrap(),
        )
    };
    let (cold_cached, cold_secs) = plan();
    let (warm_cached, warm_secs) = plan();
    assert!(!cold_cached, "the first plan decomposes");
    assert!(warm_cached, "the second plan is served by the memo");
    assert!(
        warm_secs < cold_secs,
        "a memo hit reports its own time: {warm_secs} s vs cold {cold_secs} s"
    );
}

/// The cache pass keys whole plans by graph hash alone, so it never
/// decomposes: the first portfolio over a graph no other test in this
/// binary builds finds the decomposition memo cold, and the hierarchical
/// planner's own `decompose` phase is the one that pays for it.
#[test]
fn first_cached_portfolio_decomposes_in_the_planner() {
    let g = build_training_graph(&stacked_transformer(96, 5)).unwrap();
    let topo = Topology::single_server(2);
    let hw = HardwarePerf::new();
    let cost = CostModels::new();
    let cache = PlanCache::default();
    let sink = Arc::new(MemorySink::with_default_capacity());
    let col = Arc::new(Collector::new().with_sink(sink.clone()));
    let portfolio = Portfolio::new().with(Box::<HierarchicalPlanner>::default());
    let inputs = PortfolioInputs {
        graph: &g,
        raw: Some(&g),
        current: None,
        topo: &topo,
        hw: &hw,
        cost: &cost,
        collector: Some(col),
        enable_order: true,
        dp_ps: None,
        cache_salt: 0,
        probe: None,
    };
    portfolio.evaluate(&inputs, Some(&cache));
    assert_eq!(cache.misses(), 1, "the whole-plan lookup missed");
    let ev = sink
        .events_of("hier.plan")
        .pop()
        .expect("hier.plan emitted");
    assert!(
        !ev.field("decompose_cached").as_bool().unwrap(),
        "the cache pass must not decompose ahead of the planner"
    );
}
