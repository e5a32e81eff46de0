//! OS-DPOS — Operation Splitting DPOS (Alg. 2 of the paper).
//!
//! Starting from a DPOS schedule, walk the *placed* critical path in
//! descending order of computation time and try splitting each operation
//! along its parallelizable dimensions; keep a split only if the re-run DPOS
//! estimate of `FT(o_exit)` improves, and stop at the first operation whose
//! best split does not improve it (Sec. 5.2).

use crate::dpos::{dpos, dpos_opt};
use crate::rank::critical_path_placed;
use crate::strategy::Plan;
use fastt_cluster::{DeviceId, Topology};
use fastt_cost::CostModels;
use fastt_graph::{split_operation, Graph, SplitDecision};
use fastt_sim::HardwarePerf;
use fastt_telemetry::{jobj, Collector};

/// Options controlling the split search.
#[derive(Debug, Clone)]
pub struct OsDposOptions {
    /// Split counts to try. The paper's Alg. 2 uses `n = #GPUs`; we also try
    /// the intermediate powers of two (documented in DESIGN.md) because a
    /// 2-way split of a batch-64 op may fit where an 8-way split does not.
    pub split_counts: Vec<u32>,
    /// Safety cap on the number of accepted splits.
    pub max_splits: usize,
}

impl OsDposOptions {
    /// Default options for a topology: powers of two up to the device count.
    pub fn for_topology(topo: &Topology) -> Self {
        let mut counts = Vec::new();
        let mut n = 2u32;
        while (n as usize) <= topo.gpu_count() {
            counts.push(n);
            n *= 2;
        }
        OsDposOptions {
            split_counts: counts,
            max_splits: 64,
        }
    }
}

/// Runs plain DPOS and wraps the result in a [`Plan`] (no splitting).
pub fn dpos_plan(graph: &Graph, topo: &Topology, cost: &CostModels, hw: &HardwarePerf) -> Plan {
    dpos_plan_opt(graph, topo, cost, hw, None)
}

/// [`dpos_plan`] with an optional collector that counts the DPOS run and
/// times its phases. The planner layer threads the context's collector
/// through here.
pub(crate) fn dpos_plan_opt(
    graph: &Graph,
    topo: &Topology,
    cost: &CostModels,
    hw: &HardwarePerf,
    col: Option<&Collector>,
) -> Plan {
    let s = dpos_opt(graph, topo, cost, hw, col);
    Plan {
        graph: graph.clone(),
        splits: Vec::new(),
        placement: s.placement,
        order: Some(s.order),
        est_finish: s.est_finish,
    }
}

/// Runs OS-DPOS: DPOS plus critical-path operation splitting.
///
/// Freshly created sub-operations are seeded in the computation cost model
/// with the analytic prior `parent_time / n` per device (refined by later
/// profiling); `Split`/`Concat` plumbing starts unprofiled, i.e. at zero
/// cost, exactly like any other unexplored op (Sec. 4).
pub fn os_dpos(
    graph: &Graph,
    topo: &Topology,
    cost: &mut CostModels,
    hw: &HardwarePerf,
    opts: &OsDposOptions,
) -> Plan {
    os_dpos_opt(graph, topo, cost, hw, opts, None)
}

/// [`os_dpos`] with an optional collector: when tracing, the base DPOS run
/// is counted and every split verdict (accepted,
/// rejected-and-stop) is emitted as a `dpos.split` event with the chosen
/// dimension and degree. The inner DPOS re-runs of the split search stay
/// untraced to bound event volume.
pub(crate) fn os_dpos_opt(
    graph: &Graph,
    topo: &Topology,
    cost: &mut CostModels,
    hw: &HardwarePerf,
    opts: &OsDposOptions,
    col: Option<&Collector>,
) -> Plan {
    let base = dpos_opt(graph, topo, cost, hw, col);
    let mut ft_old = base.est_finish;

    // Critical path under the actual placement, by descending compute time.
    let cp = critical_path_placed(graph, &base.placement, cost, topo);
    let mut cp_named: Vec<(String, f64)> = cp
        .iter()
        .map(|&o| {
            let name = graph.op_ref(o).name.clone();
            let d = base.placement.device_of(o);
            let t = cost.comp.get(&name, d).unwrap_or(0.0);
            (name, t)
        })
        .collect();
    cp_named.sort_by(|a, b| b.1.total_cmp(&a.1));

    let devices: Vec<DeviceId> = topo.gpu_ids().collect();
    let mut cur_graph = graph.clone();
    let mut cur_sched = base;
    let mut splits: Vec<SplitDecision> = Vec::new();

    for (name, _) in cp_named {
        if splits.len() >= opts.max_splits {
            break;
        }
        let Some(op) = cur_graph.by_name(&name) else {
            continue; // removed by an earlier accepted split
        };
        let kind = cur_graph.op_ref(op).kind;
        if kind.split_dims().is_empty() {
            continue; // nothing to try for this op
        }

        // Try every (dimension, count) candidate and keep the best estimate.
        // The phase covers this op's whole enumeration, split per candidate
        // into `rewrite` (the graph split), `seed` (sub-op priors) and `dpos`
        // (the inner re-run, itself untraced to bound event volume).
        let _enum_phase = col.map(|c| c.phase("split_enum"));
        let mut best: Option<(Graph, crate::dpos::Schedule, SplitDecision)> = None;
        for &dim in kind.split_dims() {
            for &n in &opts.split_counts {
                let rewrite_phase = col.map(|c| c.phase("rewrite"));
                let split = split_operation(&cur_graph, op, dim, n);
                drop(rewrite_phase);
                let Ok(res) = split else {
                    continue; // not divisible this way
                };
                // analytic prior for the sub-operations
                let seed_phase = col.map(|c| c.phase("seed"));
                for d in &devices {
                    if let Some(t) = cost.comp.get(&name, *d) {
                        for &p in &res.parts {
                            cost.comp
                                .seed(&res.graph.op_ref(p).name, &[*d], t / n as f64);
                        }
                    }
                }
                drop(seed_phase);
                let dpos_phase = col.map(|c| c.phase("dpos"));
                let s = dpos(&res.graph, topo, cost, hw);
                drop(dpos_phase);
                let better = match &best {
                    Some((_, b, _)) => s.est_finish < b.est_finish,
                    None => true,
                };
                if better {
                    best = Some((
                        res.graph,
                        s,
                        SplitDecision {
                            op_name: name.clone(),
                            dim,
                            parts: n,
                        },
                    ));
                }
            }
        }

        match best {
            Some((g, s, dec)) if s.est_finish < ft_old => {
                if let Some(col) = col {
                    col.metrics().inc("dpos.splits_accepted");
                    col.emit(
                        "dpos.split",
                        jobj! {
                            "op" => dec.op_name.as_str(),
                            "dim" => dec.dim as u64,
                            "parts" => dec.parts as u64,
                            "est_before" => ft_old,
                            "est_after" => s.est_finish,
                            "accepted" => true,
                        },
                    );
                }
                ft_old = s.est_finish;
                cur_graph = g;
                cur_sched = s;
                splits.push(dec);
            }
            Some((_, s, dec)) => {
                // best split of this op does not help: stop the walk
                if let Some(col) = col {
                    col.metrics().inc("dpos.splits_rejected");
                    col.emit(
                        "dpos.split",
                        jobj! {
                            "op" => dec.op_name.as_str(),
                            "dim" => dec.dim as u64,
                            "parts" => dec.parts as u64,
                            "est_before" => ft_old,
                            "est_after" => s.est_finish,
                            "accepted" => false,
                        },
                    );
                }
                break;
            }
            None => continue, // no feasible split for this op: try the next
        }
    }

    Plan {
        graph: cur_graph,
        splits,
        placement: cur_sched.placement,
        order: Some(cur_sched.order),
        est_finish: ft_old,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastt_graph::{OpKind, Operation};

    /// One heavy conv dominating the critical path, with profiled costs on
    /// every device, cheap profiled links: a split should help.
    fn heavy_conv_graph(cost: &mut CostModels, topo: &Topology) -> Graph {
        let mut g = Graph::new();
        let x = g
            .add_op(Operation::new("x", OpKind::Input, [8, 32, 32, 8]))
            .unwrap();
        let c = g
            .add_op(Operation::new("conv", OpKind::Conv2D, [8, 32, 32, 8]).with_flops(1 << 34))
            .unwrap();
        let l = g.add_op(Operation::new("loss", OpKind::Loss, [])).unwrap();
        g.connect(x, c).unwrap();
        g.connect(c, l).unwrap();
        for d in topo.gpu_ids() {
            cost.comp.observe("x", d, 1e-4);
            cost.comp.observe("conv", d, 1.0);
            cost.comp.observe("loss", d, 1e-4);
            for d2 in topo.gpu_ids() {
                if d != d2 {
                    cost.comm.observe(d, d2, 1 << 20, 1e-4);
                }
            }
        }
        cost.comm.refit();
        g
    }

    #[test]
    fn splits_heavy_critical_path_op() {
        let topo = Topology::single_server(4);
        let mut cost = CostModels::new();
        let g = heavy_conv_graph(&mut cost, &topo);
        let plan = os_dpos(
            &g,
            &topo,
            &mut cost,
            &HardwarePerf::new(),
            &OsDposOptions::for_topology(&topo),
        );
        assert!(
            !plan.splits.is_empty(),
            "dominant conv should be split: {:?}",
            plan.splits
        );
        assert_eq!(plan.splits[0].op_name, "conv");
        // the estimate improved over the unsplit serial 1s
        assert!(plan.est_finish < 1.0, "est = {}", plan.est_finish);
        plan.placement.validate(&plan.graph, &topo).unwrap();
    }

    #[test]
    fn split_enumeration_is_profiled_per_step() {
        let topo = Topology::single_server(4);
        let mut cost = CostModels::new();
        let g = heavy_conv_graph(&mut cost, &topo);
        let col = Collector::new();
        let opts = OsDposOptions::for_topology(&topo);
        let hw = HardwarePerf::new();
        let traced = os_dpos_opt(&g, &topo, &mut cost, &hw, &opts, Some(&col));
        let paths: Vec<String> = col
            .profiler()
            .snapshot()
            .into_iter()
            .map(|e| e.path)
            .collect();
        for step in ["rewrite", "seed", "dpos"] {
            let path = format!("split_enum > {step}");
            assert!(paths.contains(&path), "missing {path} in {paths:?}");
        }
        // tracing never changes the plan
        let plain = os_dpos(&g, &topo, &mut cost, &hw, &opts);
        assert_eq!(plain.est_finish.to_bits(), traced.est_finish.to_bits());
    }

    #[test]
    fn no_split_on_single_device() {
        let topo = Topology::single_server(1);
        let mut cost = CostModels::new();
        let g = heavy_conv_graph(&mut cost, &topo);
        let opts = OsDposOptions::for_topology(&topo);
        assert!(opts.split_counts.is_empty());
        let plan = os_dpos(&g, &topo, &mut cost, &HardwarePerf::new(), &opts);
        assert!(plan.splits.is_empty());
    }

    #[test]
    fn unsplittable_ops_left_alone() {
        let topo = Topology::single_server(2);
        let mut cost = CostModels::new();
        let mut g = Graph::new();
        let a = g
            .add_op(Operation::new("bn", OpKind::BatchNorm, [8, 8]))
            .unwrap();
        let b = g.add_op(Operation::new("loss", OpKind::Loss, [])).unwrap();
        g.connect(a, b).unwrap();
        cost.comp.observe("bn", fastt_cluster::DeviceId(0), 1.0);
        let plan = os_dpos(
            &g,
            &topo,
            &mut cost,
            &HardwarePerf::new(),
            &OsDposOptions::for_topology(&topo),
        );
        assert!(plan.splits.is_empty());
        assert_eq!(plan.graph.op_count(), 2);
    }

    #[test]
    fn split_graph_still_simulates() {
        use fastt_sim::{ExecPolicy, SimConfig};
        let topo = Topology::single_server(4);
        let mut cost = CostModels::new();
        let g = heavy_conv_graph(&mut cost, &topo);
        let plan = os_dpos(
            &g,
            &topo,
            &mut cost,
            &HardwarePerf::new(),
            &OsDposOptions::for_topology(&topo),
        );
        let order = plan.order.as_deref().unwrap();
        let tr = fastt_sim::simulate(
            &plan.graph,
            &topo,
            &plan.placement,
            &HardwarePerf::new(),
            ExecPolicy::Priority(order),
            &SimConfig::default(),
        )
        .unwrap();
        assert!(tr.makespan > 0.0);
    }

    #[test]
    fn dpos_plan_has_no_splits_but_an_order() {
        let topo = Topology::single_server(2);
        let mut cost = CostModels::new();
        let g = heavy_conv_graph(&mut cost, &topo);
        let plan = dpos_plan(&g, &topo, &cost, &HardwarePerf::new());
        assert!(plan.splits.is_empty());
        assert_eq!(plan.order.as_ref().unwrap().len(), g.op_count());
    }
}
