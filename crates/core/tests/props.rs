//! Property tests. The offline build environment cannot fetch the external
//! `proptest` crate, so these are compiled only under `--features proptest`.
#![cfg(feature = "proptest")]

//! Property-based tests of DPOS and OS-DPOS on random DAGs with random
//! profiled costs.

use fastt::{dpos, os_dpos, schedule_for_placement, OsDposOptions};
use fastt_cluster::{DeviceId, Topology};
use fastt_cost::CostModels;
use fastt_graph::{Graph, OpId, OpKind, Operation};
use fastt_sim::{HardwarePerf, Placement};
use proptest::prelude::*;

/// A random DAG plus cost models covering every (op, GPU) pair.
fn arb_instance() -> impl Strategy<Value = (Graph, CostModels, u16)> {
    (3usize..30, any::<u64>(), 1u16..5).prop_map(|(n, seed, gpus)| {
        let topo = Topology::single_server(gpus);
        let mut g = Graph::new();
        let mut cost = CostModels::new();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
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
                    let p = OpId((next() % i as u64) as u32);
                    let _ = g.connect(p, id);
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
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DPOS always yields a valid GPU-only placement, a permutation order,
    /// and monotone start times along the order.
    #[test]
    fn dpos_output_is_well_formed((g, cost, gpus) in arb_instance()) {
        let topo = Topology::single_server(gpus);
        let s = dpos(&g, &topo, &cost, &HardwarePerf::new());
        s.placement.validate(&g, &topo).unwrap();
        for (op, d) in s.placement.iter() {
            prop_assert!(!topo.is_host(d), "{op} on host");
        }
        // order is a permutation of all ops
        let mut seen = vec![false; g.op_count()];
        for &o in &s.order {
            prop_assert!(!seen[o.index()], "duplicate {o} in order");
            seen[o.index()] = true;
        }
        prop_assert!(seen.iter().all(|&b| b));
        // start times ascend along the order
        for w in s.order.windows(2) {
            prop_assert!(
                s.start_times[w[0].index()] <= s.start_times[w[1].index()] + 1e-12
            );
        }
        // finish covers every op's schedule
        for o in g.op_ids() {
            prop_assert!(s.finish_times[o.index()] <= s.est_finish + 1e-12);
        }
    }

    /// The estimated schedule respects precedence: a consumer never starts
    /// before its producer finishes.
    #[test]
    fn dpos_schedule_respects_precedence((g, cost, gpus) in arb_instance()) {
        let topo = Topology::single_server(gpus);
        let s = dpos(&g, &topo, &cost, &HardwarePerf::new());
        for e in g.iter_edges() {
            prop_assert!(
                s.start_times[e.dst.index()] >= s.finish_times[e.src.index()] - 1e-12,
                "{} starts before {} ends",
                e.dst,
                e.src
            );
        }
    }

    /// Pinning the DPOS placement reproduces the same device assignment.
    #[test]
    fn schedule_for_placement_respects_the_pin((g, cost, gpus) in arb_instance()) {
        let topo = Topology::single_server(gpus);
        let hw = HardwarePerf::new();
        let free = dpos(&g, &topo, &cost, &hw);
        let pinned = schedule_for_placement(&g, &topo, &cost, &hw, &free.placement);
        for o in g.op_ids() {
            prop_assert_eq!(pinned.placement.device_of(o), free.placement.device_of(o));
        }
    }

    /// OS-DPOS never returns a worse estimate than plain DPOS (it only
    /// accepts improving splits) and its plan stays valid.
    #[test]
    fn os_dpos_never_regresses_the_estimate((g, mut cost, gpus) in arb_instance()) {
        let topo = Topology::single_server(gpus);
        let hw = HardwarePerf::new();
        let base = dpos(&g, &topo, &cost, &hw);
        let plan = os_dpos(&g, &topo, &mut cost, &hw, &OsDposOptions::for_topology(&topo));
        prop_assert!(plan.est_finish <= base.est_finish + 1e-9);
        plan.placement.validate(&plan.graph, &topo).unwrap();
    }

    /// More devices never hurt the DPOS estimate (the scheduler may simply
    /// ignore extra GPUs, and FastT "can choose a subset").
    #[test]
    fn more_devices_never_hurt((g, cost, _) in arb_instance()) {
        let hw = HardwarePerf::new();
        let t2 = Topology::single_server(2);
        let t4 = Topology::single_server(4);
        // reuse the same cost models; unprofiled extra devices count as 0
        // (exploration) which can only lower the estimate
        let e2 = dpos(&g, &t2, &cost, &hw).est_finish;
        let e4 = dpos(&g, &t4, &cost, &hw).est_finish;
        prop_assert!(e4 <= e2 + 1e-9, "4 GPUs ({e4}) worse than 2 ({e2})");
    }

    /// Simulated iteration time is monotone in cluster capacity — the
    /// elastic promotion ladder's invariant. Two parts: (1) idle capacity
    /// is free — a GPU-only plan that does not use the added devices
    /// simulates identically on the grown cluster (its devices keep their
    /// ids and wiring); (2) plan arbitration takes a min over candidates
    /// and the carried-over plan is always a candidate in principle, so
    /// the best simulated time over the grown cluster never regresses.
    #[test]
    fn simulated_time_is_monotone_in_capacity((g, cost, _) in arb_instance()) {
        use fastt_sim::SimConfig;
        let hw = HardwarePerf::new();
        let cfg = SimConfig { jitter_pct: 0.0, ..SimConfig::default() };
        let t2 = Topology::single_server(2);
        let t4 = Topology::single_server(4);
        let small_plan = fastt::dpos_plan(&g, &t2, &cost, &hw);
        let small = small_plan.simulate(&t2, &hw, &cfg).unwrap().makespan;
        let carried = small_plan.simulate(&t4, &hw, &cfg).unwrap().makespan;
        prop_assert!(
            (carried - small).abs() <= 1e-9 * small.max(1.0),
            "idle devices changed an unrelated plan's time: {carried} vs {small}"
        );
        let big_plan = fastt::dpos_plan(&g, &t4, &cost, &hw);
        let big = big_plan.simulate(&t4, &hw, &cfg).unwrap().makespan;
        prop_assert!(
            big.min(carried) <= small + 1e-9,
            "capacity growth regressed the best simulated time: {big} vs {small}"
        );
    }

    /// The hierarchical planner's expanded placement always passes the
    /// checker the flat planners are held to — GPU-only devices, valid ids,
    /// colocation groups kept together — and never exceeds any device's
    /// memory capacity on instances whose working set trivially fits.
    #[test]
    fn hierarchical_placement_validates_and_fits_memory((g, cost, gpus) in arb_instance()) {
        use fastt::{HierarchicalPlanner, Planner, PlanningContext};
        let topo = Topology::single_server(gpus);
        let hw = HardwarePerf::new();
        let mut ctx = PlanningContext::new(&g, &topo, &hw, cost);
        let plan = HierarchicalPlanner::default().plan(&mut ctx).unwrap();
        plan.placement.validate(&plan.graph, &topo).unwrap();
        for (op, d) in plan.placement.iter() {
            prop_assert!(!topo.is_host(d), "{op} on host");
        }
        // per-device planning bytes within capacity (these instances are
        // far below a single device's memory, so best-effort repair must
        // always succeed)
        let mut used = std::collections::HashMap::new();
        for (op, d) in plan.placement.iter() {
            *used.entry(d).or_insert(0u64) += hw.planning_bytes(plan.graph.op_ref(op));
        }
        for (d, bytes) in used {
            prop_assert!(
                bytes <= topo.device(d).mem_bytes,
                "device {d} over capacity: {bytes} bytes"
            );
        }
    }
}

#[test]
fn plan_roundtrips_through_serde() {
    let mut g = Graph::new();
    let a = g.add_op(Operation::new("a", OpKind::Relu, [8])).unwrap();
    let b = g.add_op(Operation::new("b", OpKind::Relu, [8])).unwrap();
    g.connect(a, b).unwrap();
    let topo = Topology::single_server(2);
    let cost = CostModels::new();
    let plan = fastt::dpos_plan(&g, &topo, &cost, &HardwarePerf::new());
    let json = serde_json::to_string(&plan).unwrap();
    let back: fastt::Plan = serde_json::from_str(&json).unwrap();
    assert_eq!(back.placement, plan.placement);
    assert_eq!(back.order, plan.order);
    assert_eq!(back.graph.op_count(), plan.graph.op_count());
    // the deserialized plan still validates and simulates
    back.placement.validate(&back.graph, &topo).unwrap();
    let _ = Placement::uniform(1, DeviceId(0));
}

/// The whole resilience pipeline — retries, blacklisting, re-planning,
/// fallbacks — must be a pure function of (seed, config, fault schedule):
/// two sessions over the same scripted chaos take identical decisions.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn recovery_log_replays_identically(
        seed in any::<u64>(),
        gpus in 2u16..5,
        slowdown in 1.5f64..8.0,
        crash_at in 8u64..24,
    ) {
        use fastt::{SessionConfig, TrainingSession};
        use fastt_models::Model;
        use fastt_sim::{Fault, FaultKind, FaultSchedule};
        use std::sync::Arc;
        let faults = Arc::new(FaultSchedule::new(vec![
            Fault::windowed(FaultKind::Straggler { device: DeviceId(0), slowdown }, 4, 14),
            Fault::from(FaultKind::Crash { device: DeviceId(gpus - 1) }, crash_at),
        ]));
        let run = || {
            let g = Model::LeNet.training_graph(16);
            let topo = Topology::single_server(gpus);
            let cfg = SessionConfig {
                profile_iters: 2,
                max_rounds: 2,
                seed,
                faults: Some(faults.clone()),
                ..SessionConfig::default()
            };
            let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), cfg).unwrap();
            let outcome = s.pre_train().and_then(|_| s.train_normal(20, 5));
            (
                s.recovery_log().to_vec(),
                s.topology().failed_devices(),
                s.iterations_run(),
                outcome.is_ok(),
            )
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
        prop_assert_eq!(a.3, b.3);
    }
}
