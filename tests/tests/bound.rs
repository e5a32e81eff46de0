//! Empirical check of the paper's Theorem 1: the end-to-end processing time
//! of a DPOS schedule satisfies `ω_DPOS ≤ 2·ω_opt + C_max`, where `ω_opt`
//! is the optimal makespan in an ideal system without transmission time and
//! `C_max` is the maximal total transmission time along any chain.
//!
//! `ω_opt` is unknown in general, but two lower bounds hold:
//! `ω_opt ≥ (Σ_i w_i) / |D|` (work bound) and `ω_opt ≥ max chain of w`
//! (critical-path bound without comm). We verify the theorem against
//! `max(work bound, chain bound)` — if DPOS violated the theorem with the
//! true `ω_opt`, it would also violate it with any valid lower bound
//! replaced appropriately... strictly: `ω_DPOS ≤ 2·ω_opt + C_max` implies
//! nothing about lower bounds, so we check the *sufficient* inequality
//! `ω_DPOS ≤ 2·LB_max + C_max` may fail even when the theorem holds; we
//! therefore assert the weaker, necessary direction — DPOS's estimated
//! makespan never exceeds `2·UB_opt + C_max` where `UB_opt` is the makespan
//! of the best schedule we can construct (DPOS itself is such an upper
//! bound when communication is free).

use fastt::{dpos, upward_ranks};
use fastt_cluster::Topology;
use fastt_cost::CostModels;
use fastt_graph::{Graph, OpId, OpKind, Operation};
use fastt_sim::HardwarePerf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random layered DAG with profiled costs on every device.
fn random_dag(seed: u64, layers: usize, width: usize, topo: &Topology) -> (Graph, CostModels) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new();
    let mut cost = CostModels::new();
    let mut prev_layer: Vec<OpId> = Vec::new();
    for l in 0..layers {
        let mut layer = Vec::new();
        for i in 0..width {
            let o = g
                .add_op(Operation::new(
                    format!("l{l}_o{i}"),
                    OpKind::MatMul,
                    [64u64],
                ))
                .unwrap();
            let w = rng.gen_range(0.01..0.2);
            for d in topo.gpu_ids() {
                cost.comp.observe(&format!("l{l}_o{i}"), d, w);
            }
            // connect to 1-2 random predecessors
            if !prev_layer.is_empty() {
                let k = rng.gen_range(1..=2usize.min(prev_layer.len()));
                for _ in 0..k {
                    let p = prev_layer[rng.gen_range(0..prev_layer.len())];
                    // duplicate edges are fine for the schedule
                    g.connect(p, o).unwrap();
                }
            }
            layer.push(o);
        }
        prev_layer = layer;
    }
    for s in topo.gpu_ids() {
        for d in topo.gpu_ids() {
            if s != d {
                cost.comm.observe(s, d, 256, 0.002);
            }
        }
    }
    cost.comm.refit();
    (g, cost)
}

/// Maximal total transmission time along any chain (DP over the DAG).
fn c_max(g: &Graph, cost: &CostModels) -> f64 {
    let topo_order = g.topo_order().unwrap();
    let mut best = vec![0.0f64; g.op_count()];
    let mut global: f64 = 0.0;
    let max_comm = cost.comm.resolve_max_comm();
    for &o in topo_order.iter().rev() {
        for e in g.out_edges(o) {
            let c = max_comm.price(e.bytes);
            let cand = c + best[e.dst.index()];
            if cand > best[o.index()] {
                best[o.index()] = cand;
            }
        }
        global = global.max(best[o.index()]);
    }
    global
}

/// Lower bounds on ω_opt: total work / devices, and the longest
/// computation-only chain.
fn opt_lower_bound(g: &Graph, cost: &CostModels, topo: &Topology) -> f64 {
    let n_dev = topo.gpu_count() as f64;
    let w = |o: OpId| cost.comp.max_time(&g.op_ref(o).name).unwrap_or(0.0);
    let total: f64 = g.op_ids().map(w).sum();
    let work_bound = total / n_dev;

    let topo_order = g.topo_order().unwrap();
    let mut chain = vec![0.0f64; g.op_count()];
    let mut chain_bound: f64 = 0.0;
    for &o in topo_order.iter().rev() {
        let tail = g.succs(o).map(|s| chain[s.index()]).fold(0.0f64, f64::max);
        chain[o.index()] = w(o) + tail;
        chain_bound = chain_bound.max(chain[o.index()]);
    }
    work_bound.max(chain_bound)
}

#[test]
fn dpos_respects_theorem_one_shape_on_random_dags() {
    // Theorem 1 with ω_opt replaced by its lower bound is *stronger* than
    // the theorem, so violations of the original can never hide behind it;
    // empirically DPOS satisfies even the stronger form on these DAGs,
    // giving good evidence for the implementation's fidelity.
    let topo = Topology::single_server(4);
    let hw = HardwarePerf::new();
    for seed in 0..20u64 {
        let layers = 3 + (seed % 5) as usize;
        let width = 2 + (seed % 4) as usize;
        let (g, cost) = random_dag(seed, layers, width, &topo);
        let s = dpos(&g, &topo, &cost, &hw);
        let lb = opt_lower_bound(&g, &cost, &topo);
        let cm = c_max(&g, &cost);
        assert!(
            s.est_finish <= 2.0 * lb + cm + 1e-9,
            "seed {seed}: ω_DPOS = {} > 2·{lb} + {cm}",
            s.est_finish
        );
    }
}

#[test]
fn dpos_is_optimal_when_all_devices_stay_busy() {
    // The paper notes DPOS is optimal when no device idles (B = ∅): with
    // |D| independent equal ops, the schedule must hit exactly w.
    let topo = Topology::single_server(4);
    let hw = HardwarePerf::new();
    let mut g = Graph::new();
    let mut cost = CostModels::new();
    for i in 0..4 {
        g.add_op(Operation::new(format!("o{i}"), OpKind::MatMul, [4u64]))
            .unwrap();
        for d in topo.gpu_ids() {
            cost.comp.observe(&format!("o{i}"), d, 1.0);
        }
    }
    let s = dpos(&g, &topo, &cost, &hw);
    assert!((s.est_finish - 1.0).abs() < 1e-9, "est = {}", s.est_finish);
    assert_eq!(s.placement.devices_used().len(), 4);
}

#[test]
fn rank_is_monotone_along_edges() {
    // rank_u(pred) ≥ rank_u(succ) + w(pred) by construction.
    let topo = Topology::single_server(2);
    let (g, cost) = random_dag(7, 5, 3, &topo);
    let ranks = upward_ranks(&g, &cost);
    for e in g.iter_edges() {
        let w_src = cost.comp.max_time(&g.op_ref(e.src).name).unwrap_or(0.0);
        assert!(
            ranks[e.src.index()] + 1e-12 >= ranks[e.dst.index()] + w_src,
            "rank monotonicity violated on {} -> {}",
            g.op_ref(e.src).name,
            g.op_ref(e.dst).name
        );
    }
}
