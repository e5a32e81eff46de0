//! Behavioural tests of deterministic fault injection in the engine.

use std::sync::Arc;

use fastt_cluster::{Device, DeviceId, Topology, TopologyBuilder};
use fastt_graph::{Graph, OpId, OpKind, Operation};
use fastt_sim::{
    simulate, ExecPolicy, Fault, FaultKind, FaultSchedule, HardwarePerf, Placement, SimConfig,
    SimError,
};

const D0: DeviceId = DeviceId(0);
const D1: DeviceId = DeviceId(1);

fn hw() -> HardwarePerf {
    HardwarePerf::new()
}

fn cfg() -> SimConfig {
    SimConfig {
        iteration_overhead: 0.0,
        ..SimConfig::default()
    }
}

fn with_faults(schedule: FaultSchedule, iteration: u64) -> SimConfig {
    SimConfig {
        faults: Some(Arc::new(schedule)),
        iteration,
        ..cfg()
    }
}

/// a -> b -> c chain of compute-bound ops.
fn chain() -> Graph {
    let mut g = Graph::new();
    let a = g
        .add_op(Operation::new("a", OpKind::Input, [1 << 20]))
        .unwrap();
    let b = g
        .add_op(Operation::new("b", OpKind::MatMul, [1 << 20]).with_flops(1 << 30))
        .unwrap();
    let c = g
        .add_op(Operation::new("c", OpKind::MatMul, [1 << 20]).with_flops(1 << 30))
        .unwrap();
    g.connect(a, b).unwrap();
    g.connect(b, c).unwrap();
    g
}

#[test]
fn empty_schedule_is_bit_identical_to_no_schedule() {
    let g = chain();
    let t = Topology::single_server(2);
    let p = Placement::uniform(g.op_count(), D0);
    let plain = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    let empty = simulate(
        &g,
        &t,
        &p,
        &hw(),
        ExecPolicy::Fifo,
        &with_faults(FaultSchedule::none(), 0),
    )
    .unwrap();
    assert_eq!(plain.makespan, empty.makespan);
    assert_eq!(plain.op_records, empty.op_records);
    assert_eq!(plain.transfers, empty.transfers);
    assert_eq!(empty.reexecutions, 0);
}

#[test]
fn straggler_slows_only_its_window() {
    let g = chain();
    let t = Topology::single_server(1);
    let p = Placement::uniform(g.op_count(), D0);
    let s = FaultSchedule::none().with(Fault::windowed(
        FaultKind::Straggler {
            device: D0,
            slowdown: 3.0,
        },
        5,
        10,
    ));
    let healthy = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    let inside = simulate(
        &g,
        &t,
        &p,
        &hw(),
        ExecPolicy::Fifo,
        &with_faults(s.clone(), 7),
    )
    .unwrap();
    let after = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &with_faults(s, 10)).unwrap();
    assert!(
        inside.makespan > 2.0 * healthy.makespan,
        "straggled {} vs healthy {}",
        inside.makespan,
        healthy.makespan
    );
    assert_eq!(after.makespan, healthy.makespan);
}

#[test]
fn link_degrade_stretches_transfers() {
    let g = chain();
    let t = Topology::single_server(2);
    let mut p = Placement::uniform(g.op_count(), D0);
    p.set(OpId(2), D1);
    let s = FaultSchedule::none().with(Fault::from(
        FaultKind::LinkDegrade {
            src: D0,
            dst: D1,
            factor: 4.0,
        },
        0,
    ));
    let healthy = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    let degraded = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &with_faults(s, 0)).unwrap();
    assert_eq!(healthy.transfers.len(), 1);
    assert_eq!(degraded.transfers.len(), 1);
    let ratio = degraded.transfers[0].duration() / healthy.transfers[0].duration();
    assert!((ratio - 4.0).abs() < 1e-9, "ratio {ratio}");
}

#[test]
fn crash_surfaces_typed_error_once_active() {
    let g = chain();
    let t = Topology::single_server(2);
    let p = Placement::uniform(g.op_count(), D0);
    let s = FaultSchedule::none().with(Fault::from(FaultKind::Crash { device: D0 }, 5));
    // before the crash the run succeeds
    simulate(
        &g,
        &t,
        &p,
        &hw(),
        ExecPolicy::Fifo,
        &with_faults(s.clone(), 4),
    )
    .unwrap();
    let err = simulate(
        &g,
        &t,
        &p,
        &hw(),
        ExecPolicy::Fifo,
        &with_faults(s.clone(), 5),
    )
    .unwrap_err();
    match err {
        SimError::DeviceCrash { device, iteration } => {
            assert_eq!(device, D0);
            assert_eq!(iteration, 5);
        }
        other => panic!("expected DeviceCrash, got {other}"),
    }
    // runs not touching the crashed device are unaffected
    let on_d1 = Placement::uniform(g.op_count(), D1);
    simulate(&g, &t, &on_d1, &hw(), ExecPolicy::Fifo, &with_faults(s, 9)).unwrap();
}

#[test]
fn mem_pressure_shrinks_capacity_to_oom() {
    let g = chain();
    let mut tb = TopologyBuilder::new();
    tb.add_device(Device::v100("tiny").with_mem_bytes(32 << 20), 0);
    let t = tb.build();
    let p = Placement::uniform(g.op_count(), D0);
    simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    let s = FaultSchedule::none().with(Fault::windowed(
        FaultKind::MemPressure {
            device: D0,
            reserve_bytes: 30 << 20,
        },
        0,
        3,
    ));
    let err = simulate(
        &g,
        &t,
        &p,
        &hw(),
        ExecPolicy::Fifo,
        &with_faults(s.clone(), 1),
    )
    .unwrap_err();
    assert!(err.is_oom(), "expected OOM under pressure, got {err}");
    // once the spike passes, the same run fits again
    simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &with_faults(s, 3)).unwrap();
}

#[test]
fn transient_op_faults_reexecute_and_slow_the_run() {
    let g = chain();
    let t = Topology::single_server(1);
    let p = Placement::uniform(g.op_count(), D0);
    let s = FaultSchedule::none().with(Fault::from(
        FaultKind::TransientOp {
            device: D0,
            prob: 1.0,
        },
        0,
    ));
    let healthy = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    let faulty = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &with_faults(s, 0)).unwrap();
    assert_eq!(faulty.reexecutions, g.op_count() as u64);
    assert!(faulty.makespan > 1.5 * healthy.makespan);
}

#[test]
fn profile_failure_yields_to_enough_attempts() {
    let g = chain();
    let t = Topology::single_server(1);
    let p = Placement::uniform(g.op_count(), D0);
    let s = FaultSchedule::none().with(Fault::windowed(
        FaultKind::ProfileFailure {
            device: D0,
            fail_attempts: 2,
        },
        0,
        10,
    ));
    for attempt in 0..2u32 {
        let c = SimConfig {
            attempt,
            ..with_faults(s.clone(), 3)
        };
        let err = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &c).unwrap_err();
        match err {
            SimError::Transient {
                device, attempt: a, ..
            } => {
                assert_eq!(device, D0);
                assert_eq!(a, attempt);
                assert!(err.is_transient());
            }
            other => panic!("expected Transient, got {other}"),
        }
    }
    let c = SimConfig {
        attempt: 2,
        ..with_faults(s, 3)
    };
    simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &c).unwrap();
}

#[test]
fn profile_failure_is_inert_on_unused_or_blacklisted_devices() {
    let g = chain();
    let t = Topology::single_server(2);
    // everything runs on D0; the failing device is D1
    let p = Placement::uniform(g.op_count(), D0);
    let s = FaultSchedule::none().with(Fault::from(
        FaultKind::ProfileFailure {
            device: D1,
            fail_attempts: u32::MAX,
        },
        0,
    ));
    // an unused device's profiling hiccups must not abort the run, even at
    // attempt 0 — this is what lets a session that blacklisted the device
    // and re-planned onto the survivors make progress again
    simulate(
        &g,
        &t,
        &p,
        &hw(),
        ExecPolicy::Fifo,
        &with_faults(s.clone(), 3),
    )
    .unwrap();

    // and once the device is blacklisted the same schedule is inert too
    let mut dead = Topology::single_server(2);
    dead.fail_device(D1);
    simulate(&g, &dead, &p, &hw(), ExecPolicy::Fifo, &with_faults(s, 3)).unwrap();
}

/// a (D0, server 0) -> b (D2, server 1): one cross-server transfer.
fn cross_chain() -> (Graph, Topology, Placement) {
    let mut g = Graph::new();
    let a = g
        .add_op(Operation::new("a", OpKind::Input, [1 << 20]))
        .unwrap();
    let b = g
        .add_op(Operation::new("b", OpKind::MatMul, [1 << 20]).with_flops(1 << 30))
        .unwrap();
    g.connect_bytes(a, b, 16 << 20).unwrap();
    let t = Topology::multi_server(2, 2);
    let mut p = Placement::uniform(g.op_count(), D0);
    p.set(OpId(1), DeviceId(2));
    (g, t, p)
}

#[test]
fn link_degrade_applies_per_physical_hop_on_staged_routes() {
    // Degrading the *logical* D0 → D2 pair must stretch only the
    // inter-server (Eth/NIC) hop of the staged route — not conjure a
    // fictional direct link, and not triple-stretch all three hops.
    let (g, t, p) = cross_chain();
    let (h0, h1) = (t.host_of(0).unwrap(), t.host_of(1).unwrap());
    let s = FaultSchedule::none().with(Fault::from(
        FaultKind::LinkDegrade {
            src: D0,
            dst: DeviceId(2),
            factor: 4.0,
        },
        0,
    ));
    let healthy = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    let degraded = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &with_faults(s, 0)).unwrap();
    assert_eq!(healthy.transfers.len(), 3, "PCIe → NIC → PCIe staging");
    let hop = |trace: &fastt_sim::RunTrace, a: DeviceId, b: DeviceId| -> f64 {
        trace
            .transfers
            .iter()
            .find(|x| x.src_dev == a && x.dst_dev == b)
            .expect("hop recorded")
            .duration()
    };
    let nic_ratio = hop(&degraded, h0, h1) / hop(&healthy, h0, h1);
    assert!((nic_ratio - 4.0).abs() < 1e-9, "NIC hop ratio {nic_ratio}");
    let pcie_out = hop(&degraded, D0, h0) / hop(&healthy, D0, h0);
    let pcie_in = hop(&degraded, h1, DeviceId(2)) / hop(&healthy, h1, DeviceId(2));
    assert!(
        (pcie_out - 1.0).abs() < 1e-9,
        "egress PCIe stretched {pcie_out}"
    );
    assert!(
        (pcie_in - 1.0).abs() < 1e-9,
        "ingress PCIe stretched {pcie_in}"
    );
    // a fault scripted directly against a physical hop still works
    let s_hop = FaultSchedule::none().with(Fault::from(
        FaultKind::LinkDegrade {
            src: h0,
            dst: h1,
            factor: 2.0,
        },
        0,
    ));
    let hop_deg = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &with_faults(s_hop, 0)).unwrap();
    let r = hop(&hop_deg, h0, h1) / hop(&healthy, h0, h1);
    assert!((r - 2.0).abs() < 1e-9, "physical-hop ratio {r}");
}

#[test]
fn nic_degrade_stretches_only_inter_server_hops() {
    let (g, t, p) = cross_chain();
    let (h0, h1) = (t.host_of(0).unwrap(), t.host_of(1).unwrap());
    let s = FaultSchedule::none().with(Fault::from(
        FaultKind::NicDegrade {
            server: 1,
            factor: 8.0,
        },
        0,
    ));
    let healthy = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    let degraded = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &with_faults(s, 0)).unwrap();
    let hop = |trace: &fastt_sim::RunTrace, a: DeviceId, b: DeviceId| -> f64 {
        trace
            .transfers
            .iter()
            .find(|x| x.src_dev == a && x.dst_dev == b)
            .unwrap()
            .duration()
    };
    let nic = hop(&degraded, h0, h1) / hop(&healthy, h0, h1);
    assert!((nic - 8.0).abs() < 1e-9, "NIC ratio {nic}");
    let pcie = hop(&degraded, h1, DeviceId(2)) / hop(&healthy, h1, DeviceId(2));
    assert!(
        (pcie - 1.0).abs() < 1e-9,
        "intra-server hop stretched {pcie}"
    );
}

#[test]
fn link_flap_retries_then_fails_typed() {
    let (g, t, p) = cross_chain();
    let (h0, h1) = (t.host_of(0).unwrap(), t.host_of(1).unwrap());
    // prob 1.0: every attempt finds the hop down → budget exhausts
    let s = FaultSchedule::none().with(Fault::from(
        FaultKind::LinkFlap {
            src: h0,
            dst: h1,
            prob: 1.0,
        },
        0,
    ));
    let err = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &with_faults(s, 0)).unwrap_err();
    assert_eq!(
        err,
        SimError::LinkDown {
            src: h0,
            dst: h1,
            iteration: 0,
        }
    );
    assert_eq!(err.dead_link(), Some((h0, h1)));
    // a moderate flap rides out on retries: the run completes, slower,
    // with the retries counted in the trace
    let s = FaultSchedule::none().with(Fault::from(
        FaultKind::LinkFlap {
            src: h0,
            dst: h1,
            prob: 0.5,
        },
        0,
    ));
    let healthy = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    let mut retried_total = 0u64;
    let mut slower_seen = false;
    for iter in 0..20u64 {
        match simulate(
            &g,
            &t,
            &p,
            &hw(),
            ExecPolicy::Fifo,
            &with_faults(s.clone(), iter),
        ) {
            Ok(trace) => {
                retried_total += trace.comm_retries;
                if trace.comm_retries > 0 {
                    assert!(trace.makespan > healthy.makespan, "backoff must cost time");
                    slower_seen = true;
                }
            }
            Err(e) => assert!(matches!(e, SimError::LinkDown { .. })),
        }
    }
    assert!(retried_total > 0, "a 50% flap must force some retries");
    assert!(slower_seen);
}

#[test]
fn partition_times_out_typed_and_deterministic() {
    let (g, t, p) = cross_chain();
    let s = FaultSchedule::none().with(Fault::from(FaultKind::HostPartition { server: 1 }, 5));
    // before the partition the cross-server run is fine
    simulate(
        &g,
        &t,
        &p,
        &hw(),
        ExecPolicy::Fifo,
        &with_faults(s.clone(), 4),
    )
    .unwrap();
    let err = simulate(
        &g,
        &t,
        &p,
        &hw(),
        ExecPolicy::Fifo,
        &with_faults(s.clone(), 5),
    )
    .unwrap_err();
    assert_eq!(
        err,
        SimError::PartitionTimeout {
            server: 1,
            iteration: 5,
        }
    );
    assert_eq!(err.partitioned_server(), Some(1));
    // work confined to the partitioned server itself still runs: the
    // partition cuts external links, not the server's own fabric
    let inside = Placement::uniform(g.op_count(), DeviceId(2));
    simulate(&g, &t, &inside, &hw(), ExecPolicy::Fifo, &with_faults(s, 9)).unwrap();
}

#[test]
fn collective_with_partitioned_participant_aborts_within_deadline() {
    // ring all-reduce across both servers; server 1 partitions mid-ring →
    // the collective must abort with a typed error, not deadlock or hang
    let mut g = Graph::new();
    let g0 = g
        .add_op(Operation::new("g0", OpKind::EltwiseGrad, [1 << 18]))
        .unwrap();
    let g1 = g
        .add_op(Operation::new("g1", OpKind::EltwiseGrad, [1 << 18]))
        .unwrap();
    let agg = g
        .add_op(
            Operation::new("agg", OpKind::AggregateGradients, [1 << 18])
                .with_collective(fastt_graph::CollectiveKind::AllReduce),
        )
        .unwrap();
    g.connect_bytes(g0, agg, 4 << 20).unwrap();
    g.connect_bytes(g1, agg, 4 << 20).unwrap();
    let t = Topology::multi_server(2, 2);
    let mut p = Placement::uniform(g.op_count(), D0);
    p.set(g1, DeviceId(2));
    let s = FaultSchedule::none().with(Fault::from(FaultKind::HostPartition { server: 1 }, 3));
    let err = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &with_faults(s, 3)).unwrap_err();
    assert_eq!(
        err,
        SimError::PartitionTimeout {
            server: 1,
            iteration: 3,
        },
        "collective must abort typed, not hang or report Deadlock"
    );
}

#[test]
fn collective_straggler_drags_the_ring_but_not_compute() {
    let mut g = Graph::new();
    let g0 = g
        .add_op(Operation::new("g0", OpKind::EltwiseGrad, [1 << 18]).with_flops(1 << 28))
        .unwrap();
    let g1 = g
        .add_op(Operation::new("g1", OpKind::EltwiseGrad, [1 << 18]).with_flops(1 << 28))
        .unwrap();
    let agg = g
        .add_op(
            Operation::new("agg", OpKind::AggregateGradients, [1 << 18])
                .with_collective(fastt_graph::CollectiveKind::AllReduce),
        )
        .unwrap();
    g.connect_bytes(g0, agg, 16 << 20).unwrap();
    g.connect_bytes(g1, agg, 16 << 20).unwrap();
    let t = Topology::single_server(2);
    let mut p = Placement::uniform(g.op_count(), D0);
    p.set(g1, D1);
    let s = FaultSchedule::none().with(Fault::from(
        FaultKind::CollectiveStraggler {
            device: D1,
            slowdown: 4.0,
        },
        0,
    ));
    let healthy = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    let dragged = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &with_faults(s, 0)).unwrap();
    assert_eq!(healthy.collectives.len(), 1);
    let ratio = dragged.collectives[0].duration() / healthy.collectives[0].duration();
    assert!((ratio - 4.0).abs() < 1e-9, "ring ratio {ratio}");
    // compute is untouched: op durations identical
    for (a, b) in healthy.op_records.iter().zip(dragged.op_records.iter()) {
        assert!((a.duration() - b.duration()).abs() < 1e-12);
    }
}

#[test]
fn chaos_schedule_is_deterministic_per_seed() {
    let g = chain();
    let t = Topology::single_server(2);
    let mut p = Placement::uniform(g.op_count(), D0);
    p.set(OpId(2), D1);
    let run = |seed: u64| {
        let s = FaultSchedule::from_scenario(
            "fault = straggler dev=1 slowdown=2.5 from=2 to=12\n\
             fault = link_degrade src=0 dst=1 factor=3.9 from=4 to=14\n\
             fault = transient dev=1 prob=0.5 from=0 to=10\n\
             fault = mem_pressure dev=0 reserve_bytes=1073741824 from=5 to=15\n",
        )
        .unwrap();
        let c = SimConfig {
            jitter_pct: 0.05,
            seed,
            ..with_faults(s, 6)
        };
        simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &c).unwrap()
    };
    let a = run(11);
    let b = run(11);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.op_records, b.op_records);
    assert_eq!(a.transfers, b.transfers);
    assert_eq!(a.reexecutions, b.reexecutions);
}

#[test]
fn network_chaos_schedule_is_deterministic_per_seed() {
    let (g, t, p) = cross_chain();
    let run = |seed: u64, iter: u64| {
        let s = FaultSchedule::from_scenario(include_str!("../../../fuzz/corpus/netchaos-21.fuzz"))
            .unwrap();
        let c = SimConfig {
            jitter_pct: 0.05,
            seed,
            ..with_faults(s, iter)
        };
        simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &c)
    };
    for iter in [0u64, 6, 13, 21, 35] {
        match (run(11, iter), run(11, iter)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.makespan, b.makespan);
                assert_eq!(a.transfers, b.transfers);
                assert_eq!(a.comm_retries, b.comm_retries);
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "typed errors must be reproducible"),
            (a, b) => panic!("same seed diverged at iter {iter}: {a:?} vs {b:?}"),
        }
    }
}
