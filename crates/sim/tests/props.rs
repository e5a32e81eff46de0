//! Property tests. The offline build environment cannot fetch the external
//! `proptest` crate, so these are compiled only under `--features proptest`.
#![cfg(feature = "proptest")]

//! Property-based tests of the discrete-event engine: schedule invariants
//! that must hold for every graph, placement, and policy.

use fastt_cluster::{DeviceId, Topology};
use fastt_graph::{Graph, OpId, OpKind, Operation};
use fastt_sim::{simulate, ExecPolicy, HardwarePerf, Placement, RunTrace, SimConfig};
use proptest::prelude::*;

/// Deterministic pseudo-random DAG: `n` ops in layers, each with 0-2
/// predecessors from earlier ops, mixed kinds.
fn arb_dag() -> impl Strategy<Value = Graph> {
    (2usize..40, any::<u64>()).prop_map(|(n, seed)| {
        let mut g = Graph::new();
        let kinds = [
            OpKind::MatMul,
            OpKind::Relu,
            OpKind::Conv2D,
            OpKind::Add,
            OpKind::Pool,
        ];
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n {
            let kind = kinds[(next() % kinds.len() as u64) as usize];
            let flops = 1 << (16 + next() % 12);
            let elems = 1 << (8 + next() % 8);
            let id = g
                .add_op(Operation::new(format!("o{i}"), kind, [elems]).with_flops(flops))
                .unwrap();
            if i > 0 {
                let preds = next() % 3;
                for _ in 0..preds {
                    let p = OpId((next() % i as u64) as u32);
                    let _ = g.connect(p, id);
                }
            }
        }
        g
    })
}

fn arb_placement(n_ops: usize, gpus: u16) -> impl Strategy<Value = Placement> {
    proptest::collection::vec(0..gpus, n_ops)
        .prop_map(|v| Placement::new(v.into_iter().map(DeviceId).collect()))
}

fn cfg() -> SimConfig {
    SimConfig {
        iteration_overhead: 0.0,
        check_memory: false,
        ..SimConfig::default()
    }
}

fn check_schedule_invariants(g: &Graph, topo: &Topology, p: &Placement, tr: &RunTrace) {
    // 1. every op executed exactly once with non-negative duration
    for r in &tr.op_records {
        assert!(r.start >= 0.0, "{} never ran", r.op);
        assert!(r.end >= r.start);
    }
    // 2. records on one device never overlap
    let mut by_dev: std::collections::HashMap<DeviceId, Vec<(f64, f64)>> = Default::default();
    for r in &tr.op_records {
        by_dev.entry(r.device).or_default().push((r.start, r.end));
    }
    for (d, mut v) in by_dev {
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in v.windows(2) {
            assert!(
                w[1].0 >= w[0].1 - 1e-12,
                "overlap on {d}: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }
    // 3. precedence: a consumer starts at/after its producer ends
    //    (plus the transfer when remote)
    for e in g.iter_edges() {
        let src = tr.op_record(e.src);
        let dst = tr.op_record(e.dst);
        assert!(
            dst.start >= src.end - 1e-12,
            "{} started before {} finished",
            e.dst,
            e.src
        );
        if p.device_of(e.src) != p.device_of(e.dst) {
            // some transfer carrying this tensor must end before dst starts
            let ok = tr.transfers.iter().any(|t| {
                t.src_op == e.src && t.dst_dev == p.device_of(e.dst) && t.end <= dst.start + 1e-12
            });
            assert!(ok, "no arriving transfer for {} -> {}", e.src, e.dst);
        }
    }
    // 4. makespan covers everything; busy time never exceeds it
    let max_end = tr.op_records.iter().map(|r| r.end).fold(0.0f64, f64::max);
    assert!((tr.makespan - max_end).abs() < 1e-9);
    for d in topo.device_ids() {
        assert!(tr.device_busy[d.index()] <= tr.makespan + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedule_invariants_hold_under_fifo(g in arb_dag(), gpus in 1u16..5) {
        let topo = Topology::single_server(gpus);
        let p = Placement::uniform(g.op_count(), DeviceId(0));
        let tr = simulate(&g, &topo, &p, &HardwarePerf::new(), ExecPolicy::Fifo, &cfg()).unwrap();
        check_schedule_invariants(&g, &topo, &p, &tr);
    }

    #[test]
    fn schedule_invariants_hold_under_random_placements(
        (g, gpus) in arb_dag().prop_flat_map(|g| (Just(g), 1u16..5)),
        seed in any::<u64>(),
    ) {
        let topo = Topology::single_server(gpus);
        let n = g.op_count();
        // derive a placement deterministically from the seed
        let mut state = seed | 1;
        let mut devs = Vec::with_capacity(n);
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            devs.push(DeviceId((state % gpus as u64) as u16));
        }
        let p = Placement::new(devs);
        let tr = simulate(&g, &topo, &p, &HardwarePerf::new(), ExecPolicy::Fifo, &cfg()).unwrap();
        check_schedule_invariants(&g, &topo, &p, &tr);
    }

    #[test]
    fn priority_policy_preserves_invariants_and_work(g in arb_dag(), gpus in 1u16..4) {
        let topo = Topology::single_server(gpus);
        let p = Placement::uniform(g.op_count(), DeviceId(0));
        let order = g.topo_order().unwrap();
        let hw = HardwarePerf::new();
        let fifo = simulate(&g, &topo, &p, &hw, ExecPolicy::Fifo, &cfg()).unwrap();
        let prio = simulate(&g, &topo, &p, &hw, ExecPolicy::Priority(&order), &cfg()).unwrap();
        check_schedule_invariants(&g, &topo, &p, &prio);
        // same total work regardless of policy
        prop_assert!((fifo.total_compute_time() - prio.total_compute_time()).abs() < 1e-9);
    }

    #[test]
    fn simulation_is_deterministic(g in arb_dag(), gpus in 1u16..4) {
        let topo = Topology::single_server(gpus);
        let p = Placement::uniform(g.op_count(), DeviceId(0));
        let hw = HardwarePerf::new();
        let a = simulate(&g, &topo, &p, &hw, ExecPolicy::Fifo, &cfg()).unwrap();
        let b = simulate(&g, &topo, &p, &hw, ExecPolicy::Fifo, &cfg()).unwrap();
        prop_assert_eq!(a.makespan, b.makespan);
        for (ra, rb) in a.op_records.iter().zip(&b.op_records) {
            prop_assert_eq!(ra.start, rb.start);
            prop_assert_eq!(ra.device, rb.device);
        }
    }

    #[test]
    fn spreading_work_never_loses_ops(
        (g, p, gpus) in (arb_dag(), 2u16..5).prop_flat_map(|(g, gpus)| {
            let n = g.op_count();
            (Just(g), arb_placement(n, gpus), Just(gpus))
        })
    ) {
        let topo = Topology::single_server(gpus);
        let tr = simulate(&g, &topo, &p, &HardwarePerf::new(), ExecPolicy::Fifo, &cfg()).unwrap();
        prop_assert_eq!(tr.op_records.len(), g.op_count());
        prop_assert!(tr.op_records.iter().all(|r| r.start >= 0.0));
    }
}

/// Any fault schedule must replay bit-identically, and an empty schedule
/// must be indistinguishable from no schedule at all.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fault_injection_is_deterministic(
        g in arb_dag(),
        gpus in 2u16..5,
        seed in any::<u64>(),
        iteration in 0u64..40,
        factor in 1.5f64..8.0,
        prob in 0.0f64..1.0,
        from in 0u64..30,
    ) {
        use fastt_sim::{Fault, FaultKind, FaultSchedule};
        use std::sync::Arc;
        let topo = Topology::single_server(gpus);
        let p = Placement::uniform(g.op_count(), DeviceId(0));
        let (d0, d1) = (DeviceId(0), DeviceId(gpus - 1));
        let window = |kind| Fault::windowed(kind, from, from + 10);
        let schedule = Arc::new(FaultSchedule::new(vec![
            window(FaultKind::Straggler { device: d0, slowdown: factor }),
            window(FaultKind::LinkDegrade { src: d0, dst: d1, factor }),
            window(FaultKind::TransientOp { device: d0, prob }),
            window(FaultKind::MemPressure { device: d1, reserve_bytes: 1 << 30 }),
        ]));
        let run = || {
            let c = SimConfig {
                jitter_pct: 0.05,
                seed,
                iteration,
                faults: Some(schedule.clone()),
                ..cfg()
            };
            simulate(&g, &topo, &p, &HardwarePerf::new(), ExecPolicy::Fifo, &c)
        };
        match (run(), run()) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.makespan, b.makespan);
                prop_assert_eq!(a.reexecutions, b.reexecutions);
                for (ra, rb) in a.op_records.iter().zip(&b.op_records) {
                    prop_assert_eq!(ra.start, rb.start);
                    prop_assert_eq!(ra.end, rb.end);
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "diverged: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }

    #[test]
    fn empty_fault_schedule_is_inert(g in arb_dag(), gpus in 1u16..4, seed in any::<u64>()) {
        use fastt_sim::FaultSchedule;
        use std::sync::Arc;
        let topo = Topology::single_server(gpus);
        let p = Placement::uniform(g.op_count(), DeviceId(0));
        let base_cfg = SimConfig { jitter_pct: 0.05, seed, ..cfg() };
        let empty_cfg = SimConfig {
            faults: Some(Arc::new(FaultSchedule::none())),
            ..base_cfg.clone()
        };
        let plain = simulate(&g, &topo, &p, &HardwarePerf::new(), ExecPolicy::Fifo, &base_cfg).unwrap();
        let empty = simulate(&g, &topo, &p, &HardwarePerf::new(), ExecPolicy::Fifo, &empty_cfg).unwrap();
        prop_assert_eq!(plain.makespan, empty.makespan);
        prop_assert_eq!(plain.op_records, empty.op_records);
        prop_assert_eq!(plain.transfers, empty.transfers);
    }
}
