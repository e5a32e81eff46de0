//! The per-layer run. For each session of the workload (each job template,
//! on the fleet) a fresh session is built and profiled once, which
//! reproduces round 1 of `pre_train`: the base graph is the current plan's
//! graph and the cost models are the session's. Each layer's public
//! function is then called once on those inputs, inside a span.

use crate::trace::Tracer;
use crate::workload::{fleet_config, ratio, set_up_session, Inputs};
use fastt::{
    dpos, os_dpos, region_tree_for, upward_ranks, HierarchicalPlanner, OrderOnlyPlanner,
    OsDposOptions, OsDposPlanner, PlanCache, Planner, PlanningContext, Portfolio, PortfolioInputs,
    SessionConfig, TrainingSession,
};
use fastt_cluster::{Allocation, AllocationId, DeviceId};
use fastt_graph::Graph;
use fastt_sim::{CommPlan, HardwarePerf, SimConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Per-layer measurements summed (or averaged) over the workload's units.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    pub units: u64,
    pub failures: Vec<String>,
    idle_share: f64,
    est_error: f64,
    planner_hits: u64,
    planner_lookups: u64,
    admit_hits: u64,
    admit_lookups: u64,
}

impl Layers {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    /// The measured layer metrics, by name.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let mut m = self.sums.clone();
        let units = self.units.max(1) as f64;
        m.insert("sim.idle_share", self.idle_share / units);
        m.insert("cost.est_error", self.est_error / units);
        m.insert(
            "planner.cache_hit_rate",
            ratio(self.planner_hits, self.planner_lookups),
        );
        m.insert(
            "fleet.cache_hit_rate",
            ratio(self.admit_hits, self.admit_lookups),
        );
        m
    }
}

/// A profiled session and how to admit its model again.
struct Unit {
    label: String,
    session: TrainingSession,
    raw: Graph,
    dp_ps: Option<DeviceId>,
    admit_alloc: Allocation,
    admit_config: SessionConfig,
}

pub fn run(inputs: &Inputs, seed: u64, tr: &mut Tracer) -> Layers {
    let mut layers = Layers::default();
    match inputs {
        Inputs::Sessions(specs) => {
            for spec in specs {
                tr.set_job(&spec.net.label());
                let done = set_up_session(spec, tr).and_then(|s| {
                    layers.add("graph.build_s", s.build.cpu);
                    layers.add("session.new_s", s.new.cpu);
                    let dp_ps = spec.net.dp_ps();
                    let unit = Unit {
                        label: spec.net.label(),
                        session: s.session,
                        raw: s.raw,
                        dp_ps,
                        admit_alloc: Allocation::whole(&spec.topo),
                        admit_config: SessionConfig {
                            dp_ps,
                            ..SessionConfig::default()
                        },
                    };
                    layer_calls(unit, seed, tr, &mut layers)
                });
                if let Err(e) = done {
                    layers.failures.push(e);
                }
            }
        }
        Inputs::Fleet(spec) => {
            // Fleet jobs are mostly admitted on two GPUs.
            let gpus: Vec<DeviceId> = spec.topo.gpu_ids().take(2).collect();
            let slice = || Allocation::new(AllocationId(0), &spec.topo, &gpus);
            tr.set_job("fleet");
            let (templates, build) = tr.time("graph.build", |_| spec.build_templates());
            layers.add("graph.build_s", build.cpu);
            for (label, raw) in templates {
                tr.set_job(&label);
                let (session, new) = tr.time("session.new", |_| {
                    TrainingSession::with_allocation(
                        &raw,
                        slice(),
                        HardwarePerf::new(),
                        fleet_config(),
                        Arc::new(PlanCache::default()),
                        None,
                    )
                });
                layers.add("session.new_s", new.cpu);
                let done = session
                    .map_err(|e| format!("{label}: {e}"))
                    .and_then(|session| {
                        let unit = Unit {
                            label,
                            session,
                            raw,
                            dp_ps: None,
                            admit_alloc: slice(),
                            admit_config: fleet_config(),
                        };
                        layer_calls(unit, seed, tr, &mut layers)
                    });
                if let Err(e) = done {
                    layers.failures.push(e);
                }
            }
        }
    }
    layers
}

/// Profiles the unit's session once, then calls each layer on its state.
fn layer_calls(mut u: Unit, seed: u64, tr: &mut Tracer, l: &mut Layers) -> Result<(), String> {
    let label = u.label.clone();
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{label}: {what}: {e}");
    let (profiled, secs) = tr.time("session.profile", |_| u.session.profile(1));
    profiled.map_err(|e| fail("profile", &e))?;
    l.add("session.profile_s", secs.cpu);

    let session = &u.session;
    let current = session.current_plan();
    let base = &current.graph;
    let topo = session.topology();
    let cost = &session.cost;
    let hw = HardwarePerf::new();
    l.add("graph.ops", base.op_count() as f64);

    // `region_tree_for` memoizes per process and reports the wall-clock
    // time of the cold decomposition.
    let ((tree, cold_s), _) = tr.time("graph.decompose", |_| region_tree_for(base));
    l.add("graph.decompose_s", cold_s);
    l.add("graph.regions", tree.len() as f64);

    let (_, rank) = tr.time("rank", |_| black_box(upward_ranks(base, cost)));
    let (_, dpos) = tr.time("dpos", |_| black_box(dpos(base, topo, cost, &hw)));
    let mut split_cost = cost.clone();
    let opts = OsDposOptions::for_topology(topo);
    let (plan, os) = tr.time("os_dpos", |_| {
        os_dpos(base, topo, &mut split_cost, &hw, &opts)
    });
    let (rank_s, dpos_s, os_s) = (rank.cpu, dpos.cpu, os.cpu);
    l.add("rank.s", rank_s);
    l.add("dpos.s", dpos_s);
    l.add("dpos.eft_scan_s", (dpos_s - rank_s).max(0.0));
    l.add("os_dpos.s", os_s);
    l.add("os_dpos.split_enum_s", (os_s - dpos_s).max(0.0));
    l.add("os_dpos.splits", plan.splits.len() as f64);
    l.add("graph.planned_ops", plan.graph.op_count() as f64);

    let ctx = || {
        PlanningContext::new(base, topo, &hw, cost.clone())
            .with_raw(&u.raw)
            .with_dp_ps(u.dp_ps)
    };
    let region_cache = PlanCache::default();
    let (hier, s) = tr.time("planner.hierarchical", |_| {
        HierarchicalPlanner::default().plan(&mut ctx().with_region_cache(&region_cache, 0))
    });
    hier.map_err(|e| fail("hierarchical", &e))?;
    l.add("planner.hierarchical_s", s.cpu);
    let (order, s) = tr.time("planner.order_only", |_| {
        OrderOnlyPlanner.plan(&mut ctx().with_current(current))
    });
    order.map_err(|e| fail("order_only", &e))?;
    l.add("planner.order_only_s", s.cpu);

    // The portfolio a pre-training round evaluates, against an empty plan
    // cache and then again on the same inputs.
    let portfolio = Portfolio::new()
        .with(Box::new(OsDposPlanner::default()))
        .with(Box::new(HierarchicalPlanner::default()))
        .with(Box::new(OrderOnlyPlanner));
    let inputs = PortfolioInputs {
        graph: base,
        raw: Some(&u.raw),
        current: Some(current),
        topo,
        hw: &hw,
        cost,
        collector: None,
        enable_order: true,
        dp_ps: u.dp_ps,
        cache_salt: 0,
        probe: None,
    };
    let cache = PlanCache::default();
    let (_, cold) = tr.time("planner.portfolio_cold", |_| {
        black_box(portfolio.evaluate(&inputs, Some(&cache)))
    });
    let (_, warm) = tr.time("planner.portfolio_warm", |_| {
        black_box(portfolio.evaluate(&inputs, Some(&cache)))
    });
    l.add("planner.portfolio_cold_s", cold.cpu);
    l.add("planner.portfolio_warm_s", warm.cpu);
    l.planner_hits += cache.hits();
    l.planner_lookups += cache.hits() + cache.misses();

    // The simulator and the cost model, on the OS-DPOS plan.
    let (comm, lower) = tr.time("sim.lower", |_| {
        CommPlan::lower(&plan.graph, &plan.placement, topo)
    });
    comm.map_err(|e| fail("lower", &e))?;
    let cfg = SimConfig {
        jitter_pct: 0.02,
        seed,
        ..SimConfig::default()
    };
    let (trace, sim) = tr.time("sim.simulate", |_| plan.simulate(topo, &hw, &cfg));
    let (lower_s, sim_s) = (lower.cpu, sim.cpu);
    let trace = trace.map_err(|e| fail("simulate", &e))?;
    l.add("sim.lower_s", lower_s);
    l.add("sim.simulate_s", sim_s);
    l.add("sim.event_loop_s", (sim_s - lower_s).max(0.0));
    l.add("sim.makespan_ms", trace.makespan * 1e3);
    l.add("sim.transfers", trace.transfers.len() as f64);
    l.add(
        "sim.transfer_mb",
        trace.transfers.iter().map(|t| t.bytes as f64).sum::<f64>() / 1e6,
    );
    l.add("sim.collectives", trace.collectives.len() as f64);
    let gpus: Vec<DeviceId> = topo.gpu_ids().filter(|&d| !topo.is_failed(d)).collect();
    let busy: f64 = gpus.iter().map(|d| trace.device_busy[d.index()]).sum();
    l.idle_share += 1.0 - busy / (trace.makespan * gpus.len() as f64);
    l.est_error += (plan.est_finish - trace.makespan).abs() / trace.makespan;
    let (_, s) = tr.time("cost.update", |_| {
        split_cost.update_from_trace(&plan.graph, &trace)
    });
    l.add("cost.update_s", s.cpu);

    // Admission of the same model through one shared plan cache: cold,
    // then for a twin job.
    let shared = Arc::new(PlanCache::default());
    for (span, metric) in [
        ("fleet.admit", "fleet.admit_s"),
        ("fleet.admit_cached", "fleet.admit_cached_s"),
    ] {
        let (admitted, s) = tr.time(span, |_| {
            TrainingSession::with_allocation(
                &u.raw,
                u.admit_alloc.clone(),
                hw.clone(),
                u.admit_config.clone(),
                shared.clone(),
                None,
            )
        });
        admitted.map_err(|e| fail(span, &e))?;
        l.add(metric, s.cpu);
    }
    l.admit_hits += shared.hits();
    l.admit_lookups += shared.hits() + shared.misses();
    l.units += 1;
    Ok(())
}
