//! Properties of DPOS and OS-DPOS on random DAGs with random profiled
//! costs, checked over a fixed range of seeds.

use fastt::{dpos, os_dpos, schedule_for_placement, OsDposOptions};
use fastt_cluster::Topology;
use fastt_cost::CostModels;
use fastt_graph::{Graph, OpId, OpKind, Operation};
use fastt_sim::HardwarePerf;

/// Every property runs once per seed in this range.
const SEEDS: std::ops::Range<u64> = 0..48;

/// A random instance from `seed`: a DAG of 3–29 ops, cost models covering
/// every (op, GPU) pair of a 1–4 GPU server, and that GPU count.
fn instance(seed: u64) -> (Graph, CostModels, u16) {
    // xorshift64
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let n = 3 + next() % 27;
    let gpus = 1 + (next() % 4) as u16;
    let topo = Topology::single_server(gpus);
    let mut g = Graph::new();
    let mut cost = CostModels::new();
    for i in 0..n {
        let kind = if next() % 3 == 0 {
            OpKind::MatMul
        } else {
            OpKind::Relu
        };
        let id = g
            .add_op(Operation::new(format!("o{i}"), kind, [64u64, 64]).with_flops(1 << 20))
            .unwrap();
        for d in topo.gpu_ids() {
            // per-device times differ (heterogeneous-looking costs)
            let t = 0.001 + (next() % 100) as f64 / 10_000.0;
            cost.comp.observe(&format!("o{i}"), d, t);
        }
        if i > 0 {
            for _ in 0..(next() % 3) {
                let _ = g.connect(OpId((next() % i) as u32), id);
            }
        }
    }
    for s in topo.gpu_ids() {
        for d in topo.gpu_ids() {
            if s != d {
                cost.comm.observe(s, d, 16384, 0.0005);
            }
        }
    }
    cost.comm.refit();
    (g, cost, gpus)
}

/// DPOS always yields a valid GPU-only placement, a permutation order,
/// start times ascending along the order, a finish covering every op, and
/// a schedule in which no consumer starts before its producer finishes.
#[test]
fn dpos_output_is_well_formed() {
    for seed in SEEDS {
        let (g, cost, gpus) = instance(seed);
        let topo = Topology::single_server(gpus);
        let s = dpos(&g, &topo, &cost, &HardwarePerf::new());
        s.placement.validate(&g, &topo).unwrap();
        for (op, d) in s.placement.iter() {
            assert!(!topo.is_host(d), "seed {seed}: {op} on host");
        }
        let mut seen = vec![false; g.op_count()];
        for &o in &s.order {
            assert!(!seen[o.index()], "seed {seed}: duplicate {o} in order");
            seen[o.index()] = true;
        }
        assert!(seen.iter().all(|&b| b), "seed {seed}: order misses an op");
        for w in s.order.windows(2) {
            assert!(s.start_times[w[0].index()] <= s.start_times[w[1].index()] + 1e-12);
        }
        for o in g.op_ids() {
            assert!(s.finish_times[o.index()] <= s.est_finish + 1e-12);
        }
        for e in g.iter_edges() {
            assert!(
                s.start_times[e.dst.index()] >= s.finish_times[e.src.index()] - 1e-12,
                "seed {seed}: {} starts before {} ends",
                e.dst,
                e.src
            );
        }
    }
}

/// Pinning the DPOS placement reproduces the same device assignment.
#[test]
fn schedule_for_placement_respects_the_pin() {
    let hw = HardwarePerf::new();
    for seed in SEEDS {
        let (g, cost, gpus) = instance(seed);
        let topo = Topology::single_server(gpus);
        let free = dpos(&g, &topo, &cost, &hw);
        let pinned = schedule_for_placement(&g, &topo, &cost, &hw, &free.placement);
        for o in g.op_ids() {
            assert_eq!(
                pinned.placement.device_of(o),
                free.placement.device_of(o),
                "seed {seed}: {o}"
            );
        }
    }
}

/// OS-DPOS never returns a worse estimate than plain DPOS (it only
/// accepts improving splits) and its plan stays valid.
#[test]
fn os_dpos_never_regresses_the_estimate() {
    let hw = HardwarePerf::new();
    for seed in SEEDS {
        let (g, mut cost, gpus) = instance(seed);
        let topo = Topology::single_server(gpus);
        let base = dpos(&g, &topo, &cost, &hw);
        let plan = os_dpos(
            &g,
            &topo,
            &mut cost,
            &hw,
            &OsDposOptions::for_topology(&topo),
        );
        assert!(
            plan.est_finish <= base.est_finish + 1e-9,
            "seed {seed}: {} > {}",
            plan.est_finish,
            base.est_finish
        );
        plan.placement.validate(&plan.graph, &topo).unwrap();
    }
}

/// More devices never hurt the DPOS estimate (the scheduler may simply
/// ignore extra GPUs, and FastT "can choose a subset"). The cost models are
/// reused: unprofiled extra devices count as 0 (exploration), which can
/// only lower the estimate.
#[test]
fn more_devices_never_hurt() {
    let hw = HardwarePerf::new();
    let (t2, t4) = (Topology::single_server(2), Topology::single_server(4));
    for seed in SEEDS {
        let (g, cost, _) = instance(seed);
        let e2 = dpos(&g, &t2, &cost, &hw).est_finish;
        let e4 = dpos(&g, &t4, &cost, &hw).est_finish;
        assert!(
            e4 <= e2 + 1e-9,
            "seed {seed}: 4 GPUs ({e4}) worse than 2 ({e2})"
        );
    }
}
