//! Behavioural tests of the discrete-event engine on hand-built graphs.

use fastt_cluster::{Device, DeviceId, Link, Topology, TopologyBuilder};
use fastt_graph::{Graph, OpId, OpKind, Operation};
use fastt_sim::{simulate, ExecPolicy, HardwarePerf, Placement, SimConfig, SimError};

fn hw() -> HardwarePerf {
    HardwarePerf::new()
}

fn cfg() -> SimConfig {
    SimConfig {
        iteration_overhead: 0.0,
        ..SimConfig::default()
    }
}

/// a -> b -> c chain of memory-bound ops.
fn chain() -> Graph {
    let mut g = Graph::new();
    let a = g
        .add_op(Operation::new("a", OpKind::Input, [1 << 20]))
        .unwrap();
    let b = g
        .add_op(Operation::new("b", OpKind::Relu, [1 << 20]))
        .unwrap();
    let c = g
        .add_op(Operation::new("c", OpKind::Relu, [1 << 20]))
        .unwrap();
    g.connect(a, b).unwrap();
    g.connect(b, c).unwrap();
    g
}

#[test]
fn chain_on_one_device_is_sequential() {
    let g = chain();
    let t = Topology::single_server(1);
    let p = Placement::uniform(g.op_count(), DeviceId(0));
    let tr = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    assert!(tr.transfers.is_empty());
    // each op starts exactly when its predecessor ends
    let (a, b, c) = (OpId(0), OpId(1), OpId(2));
    assert_eq!(tr.op_record(a).start, 0.0);
    assert_eq!(tr.op_record(b).start, tr.op_record(a).end);
    assert_eq!(tr.op_record(c).start, tr.op_record(b).end);
    assert!((tr.makespan - tr.op_record(c).end).abs() < 1e-12);
}

#[test]
fn independent_ops_run_in_parallel_across_devices() {
    let mut g = Graph::new();
    for i in 0..2 {
        g.add_op(Operation::new(format!("m{i}"), OpKind::MatMul, [64]).with_flops(1 << 33))
            .unwrap();
    }
    let t = Topology::single_server(2);
    let mut p = Placement::uniform(2, DeviceId(0));
    p.set(OpId(1), DeviceId(1));
    let par = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    let seq = simulate(
        &g,
        &t,
        &Placement::uniform(2, DeviceId(0)),
        &hw(),
        ExecPolicy::Fifo,
        &cfg(),
    )
    .unwrap();
    assert!(par.makespan < 0.6 * seq.makespan);
}

#[test]
fn cross_device_edge_produces_transfer() {
    let g = chain();
    let t = Topology::single_server(2);
    let mut p = Placement::uniform(g.op_count(), DeviceId(0));
    p.set(OpId(2), DeviceId(1));
    let tr = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    assert_eq!(tr.transfers.len(), 1);
    let x = &tr.transfers[0];
    assert_eq!(x.bytes, (1u64 << 20) * 4);
    let link = t.link(DeviceId(0), DeviceId(1)).unwrap();
    assert!((x.duration() - link.transfer_time(x.bytes)).abs() < 1e-12);
    // consumer starts only after arrival
    assert!(tr.op_record(OpId(2)).start >= x.end);
}

#[test]
fn transfers_on_same_channel_serialize() {
    // two producers on dev0 feeding two consumers on dev1
    let mut g = Graph::new();
    for i in 0..2 {
        let a = g
            .add_op(Operation::new(format!("p{i}"), OpKind::Input, [1 << 22]))
            .unwrap();
        let b = g
            .add_op(Operation::new(format!("c{i}"), OpKind::Relu, [1 << 22]))
            .unwrap();
        g.connect(a, b).unwrap();
    }
    let t = Topology::single_server(2);
    let mut p = Placement::uniform(g.op_count(), DeviceId(0));
    p.set(OpId(1), DeviceId(1));
    p.set(OpId(3), DeviceId(1));
    let tr = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    assert_eq!(tr.transfers.len(), 2);
    let (t1, t2) = (&tr.transfers[0], &tr.transfers[1]);
    // the later transfer cannot start before the earlier finishes
    let (first, second) = if t1.start <= t2.start {
        (t1, t2)
    } else {
        (t2, t1)
    };
    assert!(second.start >= first.end - 1e-12);
}

#[test]
fn priority_order_is_respected() {
    // two independent ready ops on one device; priority reverses FIFO order
    let mut g = Graph::new();
    let a = g
        .add_op(Operation::new("a", OpKind::Relu, [1 << 18]))
        .unwrap();
    let b = g
        .add_op(Operation::new("b", OpKind::Relu, [1 << 18]))
        .unwrap();
    let t = Topology::single_server(1);
    let p = Placement::uniform(2, DeviceId(0));
    let order = [b, a];
    let tr = simulate(&g, &t, &p, &hw(), ExecPolicy::Priority(&order), &cfg()).unwrap();
    assert!(tr.op_record(b).start < tr.op_record(a).start);
    let tr_fifo = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    assert!(tr_fifo.op_record(a).start < tr_fifo.op_record(b).start);
}

#[test]
fn oom_on_oversized_variable() {
    let mut g = Graph::new();
    g.add_op(Operation::new("w", OpKind::Variable, [1]).with_param_bytes(1 << 30))
        .unwrap();
    let mut b = TopologyBuilder::new();
    b.add_device(Device::v100("tiny").with_mem_bytes(1 << 20), 0);
    let t = b.build();
    let p = Placement::uniform(1, DeviceId(0));
    let err = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap_err();
    assert!(err.is_oom(), "expected OOM, got {err}");
}

#[test]
fn oom_on_activations_mid_run() {
    // two large activations alive at once exceed a small device
    let mut g = Graph::new();
    let a = g
        .add_op(Operation::new("a", OpKind::Pool, [1 << 20]))
        .unwrap();
    let b = g
        .add_op(Operation::new("b", OpKind::Pool, [1 << 20]))
        .unwrap();
    let c = g.add_op(Operation::new("c", OpKind::Pool, [4])).unwrap();
    g.connect(a, c).unwrap();
    g.connect(b, c).unwrap();
    let mut tb = TopologyBuilder::new();
    tb.add_device(Device::v100("tiny").with_mem_bytes(6 << 20), 0);
    let t = tb.build();
    let p = Placement::uniform(3, DeviceId(0));
    let err = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap_err();
    match err {
        SimError::Oom { at_op, .. } => assert_eq!(at_op, "b"),
        other => panic!("expected OOM, got {other}"),
    }
}

#[test]
fn memory_is_freed_after_last_consumer() {
    // a feeds b; после b runs, a's activation must be freed before c runs
    let mut g = Graph::new();
    let a = g
        .add_op(Operation::new("a", OpKind::Pool, [1 << 20]))
        .unwrap();
    let b = g.add_op(Operation::new("b", OpKind::Pool, [16])).unwrap();
    let c = g
        .add_op(Operation::new("c", OpKind::Pool, [1 << 20]))
        .unwrap();
    g.connect(a, b).unwrap();
    g.connect(b, c).unwrap();
    let mut tb = TopologyBuilder::new();
    // fits one big activation (4MB + small) but not two simultaneously
    tb.add_device(Device::v100("tiny").with_mem_bytes(6 << 20), 0);
    let t = tb.build();
    let p = Placement::uniform(3, DeviceId(0));
    let tr = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    assert!(tr.max_peak_mem() <= 6 << 20);
}

#[test]
fn jitter_is_deterministic_per_seed_and_iteration() {
    let g = chain();
    let t = Topology::single_server(1);
    let p = Placement::uniform(g.op_count(), DeviceId(0));
    let mk = |seed, iteration| {
        let c = SimConfig {
            jitter_pct: 0.05,
            seed,
            iteration,
            iteration_overhead: 0.0,
            ..SimConfig::default()
        };
        simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &c)
            .unwrap()
            .makespan
    };
    assert_eq!(mk(1, 0), mk(1, 0));
    assert_ne!(mk(1, 0), mk(1, 1));
    assert_ne!(mk(1, 0), mk(2, 0));
}

#[test]
fn invalid_placement_rejected() {
    let g = chain();
    let t = Topology::single_server(1);
    let p = Placement::uniform(2, DeviceId(0)); // wrong length
    let err = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap_err();
    assert!(matches!(err, SimError::InvalidPlacement(_)));
}

#[test]
fn slow_cross_server_link_hurts() {
    let g = chain();
    let fast = Topology::single_server(2);
    let slow = Topology::multi_server(2, 1);
    let mut p = Placement::uniform(g.op_count(), DeviceId(0));
    p.set(OpId(2), DeviceId(1));
    let t_fast = simulate(&g, &fast, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    let t_slow = simulate(&g, &slow, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    assert!(t_slow.makespan > t_fast.makespan);
    let _ = Link::nvlink();
}

#[test]
fn iteration_overhead_added_to_makespan() {
    let g = chain();
    let t = Topology::single_server(1);
    let p = Placement::uniform(g.op_count(), DeviceId(0));
    let base = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    let with = simulate(
        &g,
        &t,
        &p,
        &hw(),
        ExecPolicy::Fifo,
        &SimConfig {
            iteration_overhead: 0.5,
            ..cfg()
        },
    )
    .unwrap();
    assert!((with.makespan - base.makespan - 0.5).abs() < 1e-12);
}

/// n per-device gradients feeding one aggregation node, plus one consumer.
fn grad_fanin(n: u16, collective: bool) -> (Graph, OpId, OpId) {
    use fastt_graph::CollectiveKind;
    let mut g = Graph::new();
    let mut agg = Operation::new("agg", OpKind::AggregateGradients, [1 << 20]);
    if collective {
        agg = agg.with_collective(CollectiveKind::AllReduce);
    }
    let grads: Vec<OpId> = (0..n)
        .map(|i| {
            g.add_op(Operation::new(
                format!("g{i}"),
                OpKind::EltwiseGrad,
                [1 << 20],
            ))
            .unwrap()
        })
        .collect();
    let agg = g.add_op(agg).unwrap();
    let apply = g
        .add_op(Operation::new("apply", OpKind::ApplyGradient, [1 << 20]))
        .unwrap();
    for &gr in &grads {
        g.connect(gr, agg).unwrap();
    }
    g.connect(agg, apply).unwrap();
    (g, agg, apply)
}

#[test]
fn cross_server_transfer_stages_through_both_hosts() {
    let g = chain();
    let t = Topology::multi_server(2, 1); // GPUs 0,1; hosts 2,3
    let mut p = Placement::uniform(g.op_count(), DeviceId(0));
    p.set(OpId(2), DeviceId(1));
    let tr = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    // one logical edge crosses servers -> three physical hops recorded
    assert_eq!(tr.transfers.len(), 3);
    let hops: Vec<(DeviceId, DeviceId)> = tr
        .transfers
        .iter()
        .map(|x| (x.src_dev, x.dst_dev))
        .collect();
    assert_eq!(
        hops,
        vec![
            (DeviceId(0), DeviceId(2)),
            (DeviceId(2), DeviceId(3)),
            (DeviceId(3), DeviceId(1)),
        ]
    );
    // hops serialize along the route and the consumer waits for the last
    assert!(tr.transfers[1].start >= tr.transfers[0].end - 1e-12);
    assert!(tr.transfers[2].start >= tr.transfers[1].end - 1e-12);
    assert!(tr.op_record(OpId(2)).start >= tr.transfers[2].end - 1e-12);
}

#[test]
fn allreduce_collective_runs_ring_phases() {
    use fastt_graph::CollectiveKind;
    let (g, agg, _) = grad_fanin(2, true);
    let t = Topology::single_server(2);
    let mut p = Placement::uniform(g.op_count(), DeviceId(0));
    p.set(OpId(1), DeviceId(1));
    let tr = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    assert_eq!(tr.collectives.len(), 1);
    let c = &tr.collectives[0];
    assert_eq!(c.kind, CollectiveKind::AllReduce);
    assert_eq!(c.participants, vec![DeviceId(0), DeviceId(1)]);
    // 2(n-1) phases x n ring hops, each moving bytes/n
    assert_eq!(tr.transfers.len(), 4);
    assert!(tr.transfers.iter().all(|x| x.bytes == (1u64 << 20) * 4 / 2));
    // the aggregation node itself runs only after the ring completes
    assert!(tr.op_record(agg).ready >= c.end - 1e-12);
    assert!(c.duration() > 0.0);
}

#[test]
fn allreduce_beats_ps_funnel_on_eight_gpu_nvlink() {
    let t = Topology::single_server(8);
    let host = t.host_of(0).unwrap();
    let place = |g: &Graph, agg_dev: DeviceId| {
        let mut p = Placement::uniform(g.op_count(), agg_dev);
        for i in 0..8u32 {
            p.set(OpId(i), DeviceId(i as u16));
        }
        p
    };
    let (gc, _, _) = grad_fanin(8, true);
    let ring = simulate(
        &gc,
        &t,
        &place(&gc, DeviceId(0)),
        &hw(),
        ExecPolicy::Fifo,
        &cfg(),
    )
    .unwrap();
    let (gp, _, _) = grad_fanin(8, false);
    let funnel = simulate(&gp, &t, &place(&gp, host), &hw(), ExecPolicy::Fifo, &cfg()).unwrap();
    // the PS funnel serializes 8 full-tensor copies on the host channel;
    // the ring moves 2(n-1)/n of the tensor over parallel NVLink pairs
    assert!(
        ring.makespan < funnel.makespan,
        "ring {} vs funnel {}",
        ring.makespan,
        funnel.makespan
    );
}

#[test]
fn collective_runs_are_deterministic() {
    let (g, _, _) = grad_fanin(4, true);
    let t = Topology::single_server(4);
    let mut p = Placement::uniform(g.op_count(), DeviceId(0));
    for i in 0..4u32 {
        p.set(OpId(i), DeviceId(i as u16));
    }
    let cfg = SimConfig {
        jitter_pct: 0.02,
        seed: 7,
        iteration: 3,
        iteration_overhead: 0.0,
        ..SimConfig::default()
    };
    let a = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg).unwrap();
    let b = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &cfg).unwrap();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.transfers, b.transfers);
    assert_eq!(a.collectives, b.collectives);
}

/// A traced ring all-reduce over a 2x2 cluster: the memory counter tracks
/// carry the compute rows' device names, and the link traffic is summed
/// into `comm.*` metrics once per iteration, with no per-send events.
#[test]
fn traced_two_server_run_names_memory_tracks_and_sums_traffic() {
    use fastt_cluster::LinkClass;
    use fastt_telemetry::{Collector, MemorySink, MetricValue, Value};
    use std::sync::Arc;

    let (g, _, _) = grad_fanin(4, true);
    let t = Topology::multi_server(2, 2);
    let mut p = Placement::uniform(g.op_count(), DeviceId(0));
    for i in 0..4u16 {
        p.set(OpId(u32::from(i)), DeviceId(i));
    }
    let sink = Arc::new(MemorySink::new(1024));
    let col = Arc::new(Collector::new().with_sink(sink.clone()));
    let config = SimConfig {
        record_mem_timeline: true,
        collector: Some(col.clone()),
        ..cfg()
    };
    let tr = simulate(&g, &t, &p, &hw(), ExecPolicy::Fifo, &config).unwrap();

    let v = Value::parse(&tr.to_chrome_trace_full(&[], &t)).unwrap();
    let mut tracks: Vec<&str> = v["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e["ph"] == "C")
        .filter_map(|e| e["name"].as_str())
        .collect();
    tracks.sort_unstable();
    tracks.dedup();
    assert_eq!(
        tracks,
        [
            "mem srv0/gpu0",
            "mem srv0/gpu1",
            "mem srv1/gpu0",
            "mem srv1/gpu1"
        ]
    );

    for class in LinkClass::all() {
        let bytes: u64 = tr
            .transfers
            .iter()
            .filter(|x| t.link_class(x.src_dev, x.dst_dev) == Some(class))
            .map(|x| x.bytes)
            .sum();
        let got = match col.metrics().get(&format!("comm.bytes.{}", class.name())) {
            Some(MetricValue::Counter(n)) => n,
            _ => 0,
        };
        assert_eq!(got, bytes, "{}", class.name());
    }
    assert!(tr.transfers.len() > 1);
    assert_eq!(
        col.metrics().get("comm.collectives"),
        Some(MetricValue::Counter(1))
    );
    let kinds: Vec<String> = sink.events().into_iter().map(|e| e.kind).collect();
    assert_eq!(kinds, ["sim.iteration"]);
}
