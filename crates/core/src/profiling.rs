//! Standalone cost-model bootstrapping, outside a training session.
//!
//! The [`TrainingSession`](crate::TrainingSession) bootstraps its cost models
//! by profiling its start strategy. Tools that need cost models for an
//! arbitrary graph without running the full workflow (the GDP comparator,
//! ablations, analysis scripts) use [`bootstrap_cost_models`]: one profiled
//! run per GPU (covering every op on every device) plus one round-robin run
//! (covering the communication channels).

use fastt_cluster::{DeviceId, Topology};
use fastt_cost::CostModels;
use fastt_graph::Graph;
use fastt_sim::{simulate, ExecPolicy, HardwarePerf, Placement, SimConfig};

/// Profiles `graph` on `topo` and returns freshly fitted cost models.
///
/// Runs `gpu_count + 1` simulated iterations: one with everything on each
/// GPU in turn, then one round-robin placement so every channel carries
/// traffic for the communication regression. Placements that do not fit in
/// memory are skipped (their devices stay unprofiled, which the algorithms
/// treat as zero-cost exploration targets, Sec. 4 of the paper).
pub fn bootstrap_cost_models(graph: &Graph, topo: &Topology, hw: &HardwarePerf) -> CostModels {
    let mut cost = CostModels::new();
    for d in topo.gpu_ids() {
        let p = Placement::uniform(graph.op_count(), d);
        if let Ok(tr) = simulate(graph, topo, &p, hw, ExecPolicy::Fifo, &SimConfig::default()) {
            cost.update_from_trace(graph, &tr);
        }
    }
    // Round-robin over colocation units (a unit = a colocation group or a
    // single op) so the probe placement never violates constraints.
    let n = topo.gpu_count();
    let mut p = Placement::uniform(graph.op_count(), DeviceId(0));
    let mut unit = 0usize;
    let mut assigned = vec![false; graph.op_count()];
    for op in graph.op_ids() {
        if assigned[op.index()] {
            continue;
        }
        let d = DeviceId((unit % n) as u16);
        unit += 1;
        match graph.colocation_group(op) {
            Some(grp) => {
                for &m in grp {
                    p.set(m, d);
                    assigned[m.index()] = true;
                }
            }
            None => {
                p.set(op, d);
                assigned[op.index()] = true;
            }
        }
    }
    if let Ok(tr) = simulate(graph, topo, &p, hw, ExecPolicy::Fifo, &SimConfig::default()) {
        cost.update_from_trace(graph, &tr);
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastt_models::Model;

    #[test]
    fn covers_every_op_on_every_gpu() {
        let g = Model::LeNet.training_graph(8);
        let topo = Topology::single_server(3);
        let cost = bootstrap_cost_models(&g, &topo, &HardwarePerf::new());
        for (_, op) in g.iter_ops() {
            for d in topo.gpu_ids() {
                assert!(
                    cost.comp.get(&op.name, d).is_some(),
                    "`{}` unprofiled on {d}",
                    op.name
                );
            }
        }
    }

    #[test]
    fn fits_at_least_one_comm_pair() {
        let g = Model::LeNet.training_graph(8);
        let topo = Topology::single_server(2);
        let cost = bootstrap_cost_models(&g, &topo, &HardwarePerf::new());
        assert!(cost.comm.pair_count() >= 1);
    }

    #[test]
    fn oversized_graphs_do_not_panic() {
        // A graph too big for a single GPU: single-device profiling runs
        // OOM and are skipped, but the function still returns.
        let g = Model::BertLarge.training_graph(48);
        let topo = Topology::single_server(2);
        let cost = bootstrap_cost_models(&g, &topo, &HardwarePerf::new());
        // round-robin may or may not fit; either way we get a model back
        let _ = cost.comm.pair_count();
    }
}
