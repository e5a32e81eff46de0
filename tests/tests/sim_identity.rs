//! Simulator bit-identity pins: `simulate` must return exactly these
//! results on five plans that between them exercise every path of the
//! communication plan — host-staged cross-server routes, ring collectives,
//! a model-parallel pipeline, an enforced OS-DPOS execution order with
//! jitter, and a host-staged detour around a failed intra-server link.
//! Each pin is the makespan's bits, the event-loop step count and FNV-1a
//! hashes of the op, transfer and collective records.
//!
//! The constants were recorded before `CommPlan` moved from per-op vectors
//! and maps to flat shared arrays. The error pins at the end fix the exact
//! typed errors lowering and validation report.

use fastt::OsDposOptions;
use fastt::{data_parallel_plan, data_parallel_plan_on, model_parallel_plan, os_dpos, Plan};
use fastt_cluster::{DeviceId, Topology};
use fastt_cost::CostModels;
use fastt_graph::{replicate_grouped, replicate_with, Graph, OpKind, Operation, ReplicationMode};
use fastt_models::Model;
use fastt_sim::{
    simulate, CommPlan, ExecPolicy, HardwarePerf, Placement, RunTrace, SimConfig, SimError,
};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u64(&mut self, x: u64) -> &mut Self {
        self.mix(&x.to_le_bytes())
    }

    fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }
}

/// What one pin fixes about a [`RunTrace`].
#[derive(Debug, PartialEq, Eq)]
struct TraceSignature {
    makespan: u64,
    steps: u64,
    transfers: usize,
    collectives: usize,
    op_records: u64,
    transfer_records: u64,
    collective_records: u64,
}

fn signature(tr: &RunTrace) -> TraceSignature {
    let mut ops = Fnv::new();
    for r in &tr.op_records {
        ops.u64(r.op.0 as u64)
            .u64(r.device.0 as u64)
            .f64(r.ready)
            .f64(r.start)
            .f64(r.end);
    }
    let mut xfers = Fnv::new();
    for t in &tr.transfers {
        xfers
            .u64(t.src_op.0 as u64)
            .u64(t.dst_op.0 as u64)
            .u64(t.src_dev.0 as u64)
            .u64(t.dst_dev.0 as u64)
            .u64(t.bytes)
            .f64(t.start)
            .f64(t.end);
    }
    let mut colls = Fnv::new();
    for c in &tr.collectives {
        colls
            .u64(c.node.0 as u64)
            .mix(c.kind.to_string().as_bytes());
        for p in &c.participants {
            colls.u64(p.0 as u64);
        }
        colls.u64(c.bytes).f64(c.start).f64(c.end);
    }
    TraceSignature {
        makespan: tr.makespan.to_bits(),
        steps: tr.steps,
        transfers: tr.transfers.len(),
        collectives: tr.collectives.len(),
        op_records: ops.0,
        transfer_records: xfers.0,
        collective_records: colls.0,
    }
}

fn run(plan: &Plan, topo: &Topology, config: &SimConfig) -> RunTrace {
    plan.placement.validate(&plan.graph, topo).unwrap();
    plan.simulate(topo, &HardwarePerf::new(), config).unwrap()
}

fn check(name: &str, tr: &RunTrace, want: TraceSignature) {
    let got = signature(tr);
    assert_eq!(
        got, want,
        "{name}: simulator output moved (makespan {})",
        tr.makespan
    );
}

/// Parameter-server data parallelism on 2x2: the PS is server 0's host, so
/// every cross-server hand-off stages GPU → host → host → GPU.
#[test]
fn ps_data_parallel_transformer_2x2() {
    let topo = Topology::multi_server(2, 2);
    let groups: Vec<u16> = topo.gpu_ids().map(|d| topo.server_of(d)).collect();
    let rep = replicate_grouped(
        &Model::Transformer.training_graph(1024),
        &groups,
        ReplicationMode::ParameterServer,
    )
    .unwrap();
    let plan = data_parallel_plan(&rep, &topo);
    let tr = run(&plan, &topo, &SimConfig::default());
    assert!(
        tr.transfers
            .iter()
            .any(|t| topo.server_of(t.src_dev) != topo.server_of(t.dst_dev)),
        "the pin must cover cross-server hops"
    );
    check(
        "PS-DP Transformer 2x2",
        &tr,
        TraceSignature {
            makespan: 0x3fc6_006a_bf6c_a8e9,
            steps: 4173,
            transfers: 990,
            collectives: 0,
            op_records: 0xcc04_9106_cf03_e538,
            transfer_records: 0xd625_6e7b_209a_c50f,
            collective_records: 0xcbf2_9ce4_8422_2325,
        },
    );
}

/// Ring all-reduce data parallelism on 1x4: gradients aggregate through
/// lowered collectives instead of point-to-point sends.
#[test]
fn allreduce_data_parallel_1x4() {
    let topo = Topology::single_server(4);
    let rep = replicate_with(
        &Model::Rnnlm.training_graph(16),
        4,
        ReplicationMode::AllReduce,
    )
    .unwrap();
    let plan = data_parallel_plan(&rep, &topo);
    let tr = run(&plan, &topo, &SimConfig::default());
    assert!(!tr.collectives.is_empty(), "the pin must cover collectives");
    check(
        "all-reduce DP RNNLM 1x4",
        &tr,
        TraceSignature {
            makespan: 0x3f9c_e037_6e22_ef15,
            steps: 872,
            transfers: 96,
            collectives: 4,
            op_records: 0xc771_48c2_d2a1_5865,
            transfer_records: 0xca9a_a47e_7c9c_be15,
            collective_records: 0xf0e2_37ae_58fe_42d1,
        },
    );
}

/// Greedy layer-wise model parallelism on 1x4.
#[test]
fn model_parallel_vgg19_1x4() {
    let topo = Topology::single_server(4);
    let hw = HardwarePerf::new();
    let plan = model_parallel_plan(&Model::Vgg19.training_graph(16), &topo, &hw);
    let tr = run(&plan, &topo, &SimConfig::default());
    check(
        "model-parallel VGG-19 1x4",
        &tr,
        TraceSignature {
            makespan: 0x3fc5_6990_fcba_2019,
            steps: 143,
            transfers: 16,
            collectives: 0,
            op_records: 0x79ae_7b2a_2368_a99b,
            transfer_records: 0x3f15_3887_aba2_9371,
            collective_records: 0xcbf2_9ce4_8422_2325,
        },
    );
}

/// An OS-DPOS plan executed under its enforced order
/// ([`ExecPolicy::Priority`]), with ±2% execution-time jitter.
#[test]
fn os_dpos_priority_alexnet_1x4() {
    let topo = Topology::single_server(4);
    let graph = Model::AlexNet.training_graph(32);
    let hw = HardwarePerf::new();
    let mut cost = CostModels::new();
    for d in topo.gpu_ids() {
        let p = Placement::uniform(graph.op_count(), d);
        let tr = simulate(
            &graph,
            &topo,
            &p,
            &hw,
            ExecPolicy::Fifo,
            &SimConfig::default(),
        );
        cost.update_from_trace(&graph, &tr.unwrap());
    }
    let plan = os_dpos(
        &graph,
        &topo,
        &mut cost,
        &hw,
        &OsDposOptions::for_topology(&topo),
    );
    assert!(
        matches!(plan.policy(), ExecPolicy::Priority(_)),
        "OS-DPOS enforces its order"
    );
    let config = SimConfig {
        jitter_pct: 0.02,
        seed: 7,
        iteration: 3,
        ..SimConfig::default()
    };
    let tr = run(&plan, &topo, &config);
    check(
        "OS-DPOS AlexNet 1x4 (priority)",
        &tr,
        TraceSignature {
            makespan: 0x3f93_9cd3_e3f3_0846,
            steps: 107,
            transfers: 35,
            collectives: 0,
            op_records: 0x3c36_c3e6_0ec9_c881,
            transfer_records: 0x1995_8352_b7b1_ad97,
            collective_records: 0xcbf2_9ce4_8422_2325,
        },
    );
}

/// Data parallelism on 1x4 with the PS on GPU 0 and the GPU 1 → GPU 0
/// NVLink failed: GPU 1's traffic to the PS detours through the host.
#[test]
fn failed_link_detour_1x4() {
    let mut topo = Topology::single_server(4);
    topo.fail_link(DeviceId(1), DeviceId(0));
    let rep = replicate_with(
        &Model::LeNet.training_graph(64),
        4,
        ReplicationMode::ParameterServer,
    )
    .unwrap();
    let plan = data_parallel_plan_on(&rep, &topo, DeviceId(0));
    let tr = run(&plan, &topo, &SimConfig::default());
    assert!(
        tr.transfers
            .iter()
            .any(|t| t.src_dev == DeviceId(1) && topo.is_host(t.dst_dev)),
        "the pin must cover the host-staged detour"
    );
    assert!(!tr
        .transfers
        .iter()
        .any(|t| t.src_dev == DeviceId(1) && t.dst_dev == DeviceId(0)));
    check(
        "DP LeNet 1x4, GPU 1 → GPU 0 failed",
        &tr,
        TraceSignature {
            makespan: 0x3f6d_bb48_73df_eda2,
            steps: 153,
            transfers: 35,
            collectives: 0,
            op_records: 0x4ea8_d78a_1327_d7c0,
            transfer_records: 0xe0ed_60cd_e89c_fcb7,
            collective_records: 0xcbf2_9ce4_8422_2325,
        },
    );
}

/// `a → b` with 256 bytes on the edge.
fn pair() -> (Graph, Placement) {
    let mut g = Graph::new();
    let a = g.add_op(Operation::new("a", OpKind::Input, [64])).unwrap();
    let b = g.add_op(Operation::new("b", OpKind::Relu, [64])).unwrap();
    g.connect_bytes(a, b, 256).unwrap();
    let mut p = Placement::uniform(g.op_count(), DeviceId(0));
    p.set(b, DeviceId(1));
    (g, p)
}

#[test]
fn lowering_errors_are_exact() {
    let (g, p) = pair();
    let mut topo = Topology::single_server(2);
    topo.fail_device(DeviceId(1));
    assert_eq!(
        CommPlan::lower(&g, &p, &topo),
        Err(SimError::InvalidPlacement(
            "op 1 placed on blacklisted device gpu:1".into()
        ))
    );

    let mut unknown = p.clone();
    unknown.set(fastt_graph::OpId(1), DeviceId(9));
    assert_eq!(
        CommPlan::lower(&g, &unknown, &Topology::single_server(2)),
        Err(SimError::InvalidPlacement(
            "op 1 placed on unknown device gpu:9".into()
        ))
    );

    let mut topo = Topology::single_server(2);
    let h = topo.host_of(0).unwrap();
    topo.fail_link(DeviceId(0), DeviceId(1));
    topo.fail_link(DeviceId(0), h);
    assert_eq!(
        CommPlan::lower(&g, &p, &topo),
        Err(SimError::Unreachable {
            src: DeviceId(0),
            dst: DeviceId(1),
        })
    );
}

#[test]
fn validation_errors_are_exact() {
    // a stored route over a link that died after lowering
    let (g, p) = pair();
    let mut topo = Topology::single_server(2);
    let plan = CommPlan::lower(&g, &p, &topo).unwrap();
    assert_eq!(plan.validate(&topo, 0), Ok(()));
    topo.fail_link(DeviceId(0), DeviceId(1));
    assert_eq!(
        plan.validate(&topo, 5),
        Err(SimError::LinkDown {
            src: DeviceId(0),
            dst: DeviceId(1),
            iteration: 5,
        })
    );

    // a ring pair left without a live route
    let mut cg = Graph::new();
    let g0 = cg
        .add_op(Operation::new("g0", OpKind::EltwiseGrad, [256]))
        .unwrap();
    let g1 = cg
        .add_op(Operation::new("g1", OpKind::EltwiseGrad, [256]))
        .unwrap();
    let agg = cg
        .add_op(
            Operation::new("agg", OpKind::AggregateGradients, [256])
                .with_collective(fastt_graph::CollectiveKind::AllReduce),
        )
        .unwrap();
    cg.connect_bytes(g0, agg, 1024).unwrap();
    cg.connect_bytes(g1, agg, 1024).unwrap();
    let mut cp = Placement::uniform(cg.op_count(), DeviceId(0));
    cp.set(g1, DeviceId(1));
    let cplan = CommPlan::lower(&cg, &cp, &Topology::single_server(2)).unwrap();
    let mut ring = Topology::single_server(2);
    let h = ring.host_of(0).unwrap();
    ring.fail_link(DeviceId(1), DeviceId(0));
    ring.fail_link(DeviceId(1), h);
    assert_eq!(
        cplan.validate(&ring, 0),
        Err(SimError::Unreachable {
            src: DeviceId(1),
            dst: DeviceId(0),
        })
    );

    // a delivery cycle: lowering keeps the graph's cycle, validation and
    // the simulator both refuse it with the same counts
    let mut cyc = Graph::new();
    let a = cyc.add_op(Operation::new("a", OpKind::Relu, [4])).unwrap();
    let b = cyc.add_op(Operation::new("b", OpKind::Relu, [4])).unwrap();
    let c = cyc.add_op(Operation::new("c", OpKind::Relu, [4])).unwrap();
    cyc.connect(a, b).unwrap();
    cyc.connect(b, a).unwrap();
    cyc.connect(b, c).unwrap();
    let mut cp = Placement::uniform(cyc.op_count(), DeviceId(0));
    cp.set(b, DeviceId(1));
    let topo = Topology::single_server(2);
    let deadlock = Err(SimError::Deadlock {
        executed: 0,
        total: 3,
    });
    assert_eq!(
        CommPlan::lower(&cyc, &cp, &topo).and_then(|pl| pl.validate(&topo, 0)),
        deadlock
    );
    assert_eq!(
        simulate(
            &cyc,
            &topo,
            &cp,
            &HardwarePerf::new(),
            ExecPolicy::Fifo,
            &SimConfig::default()
        )
        .map(|tr| tr.makespan),
        deadlock.map(|()| 0.0)
    );
}
