//! Plan bit-identity pins: OS-DPOS on two paper models and two topologies
//! must produce exactly these estimates and placements. The constants were
//! recorded before the computation cost model moved to dense interned
//! storage; any later refactor of the cost layer that changes a plan —
//! even by one ULP of the estimate — fails here directly instead of only
//! through the fuzzer's determinism family.
//!
//! The DPOS pins at the bottom cover the routed cross-server case with NLP
//! graphs (data-parallel replicas on 2x2 priced by a topology-bound
//! communication model). They were recorded before the list scheduler's
//! idle-slot search and per-run route/price tables were rewritten, and pin
//! the upward ranks, DPOS's execution order and estimate, and the
//! order-only path on the data-parallel placement.

use fastt::{
    data_parallel_plan_on, dpos, os_dpos, schedule_for_placement, upward_ranks, OsDposOptions,
};
use fastt_cluster::{DeviceId, Topology};
use fastt_cost::CostModels;
use fastt_graph::{replicate_grouped, Graph, OpId, ReplicationMode};
use fastt_models::Model;
use fastt_sim::{simulate, ExecPolicy, HardwarePerf, Placement, SimConfig};

/// Cost models learned the way the bootstrap does it: every op alone on
/// each GPU, then one round-robin run for the communication model.
fn profiled_costs(graph: &Graph, topo: &Topology) -> CostModels {
    let hw = HardwarePerf::new();
    let mut cost = CostModels::new();
    let mut run = |p: &Placement| {
        if let Ok(tr) = simulate(graph, topo, p, &hw, ExecPolicy::Fifo, &SimConfig::default()) {
            cost.update_from_trace(graph, &tr);
        }
    };
    for d in topo.gpu_ids() {
        run(&Placement::uniform(graph.op_count(), d));
    }
    let mut rr = Placement::uniform(graph.op_count(), DeviceId(0));
    for (i, op) in graph.op_ids().enumerate() {
        rr.set(op, DeviceId((i % topo.gpu_count()) as u16));
    }
    run(&rr);
    cost
}

/// 64-bit FNV-1a.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over every op's name and assigned device, in op-id order.
fn placement_hash(graph: &Graph, placement: &Placement) -> u64 {
    let mut h = Fnv::new();
    for (op, d) in placement.iter() {
        h.mix(graph.op_ref(op).name.as_bytes());
        h.mix(&[0xff]);
        h.mix(&d.0.to_le_bytes());
    }
    h.0
}

/// FNV-1a over an op sequence's ids.
fn order_hash(order: &[OpId]) -> u64 {
    let mut h = Fnv::new();
    for o in order {
        h.mix(&(o.index() as u64).to_le_bytes());
    }
    h.0
}

/// FNV-1a over the bits of a float vector.
fn bits_hash(xs: &[f64]) -> u64 {
    let mut h = Fnv::new();
    for x in xs {
        h.mix(&x.to_bits().to_le_bytes());
    }
    h.0
}

/// `(est_finish bits, placement hash, accepted splits)` of one OS-DPOS run.
type Signature = (u64, u64, usize);

fn check(model: Model, batch: u64, topo: Topology, want: Signature) {
    let graph = model.training_graph(batch);
    let mut cost = profiled_costs(&graph, &topo);
    let plan = os_dpos(
        &graph,
        &topo,
        &mut cost,
        &HardwarePerf::new(),
        &OsDposOptions::for_topology(&topo),
    );
    plan.placement.validate(&plan.graph, &topo).unwrap();
    let got = (
        plan.est_finish.to_bits(),
        placement_hash(&plan.graph, &plan.placement),
        plan.splits.len(),
    );
    assert_eq!(
        got, want,
        "{model:?} plan moved: est_finish {} (bits {:#x}), hash {:#x}, splits {}",
        plan.est_finish, got.0, got.1, got.2
    );
}

#[test]
fn inception_v3_1x4() {
    check(
        Model::InceptionV3,
        8,
        Topology::single_server(4),
        (0x3f93_bbf8_66c0_1ab5, 0xd310_da20_6aa3_1817, 16),
    );
}

#[test]
fn inception_v3_2x2() {
    check(
        Model::InceptionV3,
        8,
        Topology::multi_server(2, 2),
        (0x3fa1_1edb_21b0_bcd9, 0x3dda_72c7_eec7_0478, 2),
    );
}

#[test]
fn vgg19_1x4() {
    check(
        Model::Vgg19,
        16,
        Topology::single_server(4),
        (0x3fb3_e5d3_537e_d168, 0x2b3b_05b9_de07_bcf6, 20),
    );
}

#[test]
fn vgg19_2x2() {
    check(
        Model::Vgg19,
        16,
        Topology::multi_server(2, 2),
        (0x3fcd_bbd8_ee63_220d, 0xacce_4b42_0b76_98c4, 0),
    );
}

/// What one DPOS pin fixes: upward ranks, the DPOS schedule, and the
/// order-only schedule of the data-parallel placement.
#[derive(Debug, PartialEq, Eq)]
struct DposSignature {
    /// Hash of every op's upward-rank bits.
    ranks: u64,
    /// DPOS `est_finish` bits.
    est_finish: u64,
    /// Hash of DPOS's execution order.
    order: u64,
    /// Hash of DPOS's placement.
    placement: u64,
    /// `schedule_for_placement` on the data-parallel placement:
    /// `est_finish` bits.
    dp_est_finish: u64,
    /// ... and the hash of its execution order.
    dp_order: u64,
}

/// Data-parallel replicas of `model` on 2x2 (one per GPU, parameter server
/// on GPU 0 as for the NMT baselines), costs profiled through a model bound
/// to the topology so transfers are priced along routed cross-server hops.
///
/// `degraded` then fails links the way faults would and rebinds the model
/// to the damaged topology: GPU 1 → GPU 0 reroutes through the host, and
/// GPU 0 → GPU 2 loses every staging, so that pair prices at +∞. The
/// GPU 0 → GPU 1 hop is also distrusted.
fn check_dpos(model: Model, batch: u64, degraded: bool, want: DposSignature) {
    let mut topo = Topology::multi_server(2, 2);
    let groups: Vec<u16> = topo.gpu_ids().map(|d| topo.server_of(d)).collect();
    let rep = replicate_grouped(
        &model.training_graph(batch),
        &groups,
        ReplicationMode::ParameterServer,
    )
    .unwrap();
    let dp = data_parallel_plan_on(&rep, &topo, DeviceId(0));
    let graph = &rep.graph;
    let hw = HardwarePerf::new();
    let mut cost = CostModels::new();
    cost.bind_topology(&topo);
    let mut run = |p: &Placement| {
        if let Ok(tr) = simulate(
            graph,
            &topo,
            p,
            &hw,
            ExecPolicy::Fifo,
            &SimConfig::default(),
        ) {
            cost.update_from_trace(graph, &tr);
        }
    };
    run(&dp.placement);
    for d in topo.gpu_ids() {
        run(&Placement::uniform(graph.op_count(), d));
    }
    if degraded {
        let (h0, h1) = (topo.host_of(0).unwrap(), topo.host_of(1).unwrap());
        let (g0, g2) = (DeviceId(0), DeviceId(2));
        topo.fail_link(DeviceId(1), g0);
        for (a, b) in [(h0, h1), (h1, g2), (h0, g2), (g0, g2)] {
            topo.fail_link(a, b);
        }
        cost.bind_topology(&topo);
        assert_eq!(cost.comm.predict(g0, g2, 1 << 20), Some(f64::INFINITY));
        assert!(cost.comm.distrust_link(g0, DeviceId(1), 8.0));
    }

    let sched = dpos(graph, &topo, &cost, &hw);
    sched.placement.validate(graph, &topo).unwrap();
    let order_only = schedule_for_placement(graph, &topo, &cost, &hw, &dp.placement);
    let got = DposSignature {
        ranks: bits_hash(&upward_ranks(graph, &cost)),
        est_finish: sched.est_finish.to_bits(),
        order: order_hash(&sched.order),
        placement: placement_hash(graph, &sched.placement),
        dp_est_finish: order_only.est_finish.to_bits(),
        dp_order: order_hash(&order_only.order),
    };
    assert_eq!(
        got, want,
        "{model:?} DPOS moved: est_finish {}, order-only est_finish {}",
        sched.est_finish, order_only.est_finish
    );
}

#[test]
fn transformer_dpos_2x2() {
    check_dpos(
        Model::Transformer,
        64,
        false,
        DposSignature {
            ranks: 0x0db5_1715_6756_85f6,
            est_finish: 0x3fb4_bb86_d80d_40ca,
            order: 0x4c81_feaf_46a9_b676,
            placement: 0xfcdf_7e49_1b2a_7522,
            dp_est_finish: 0x3fb9_9ee7_b8da_b05b,
            dp_order: 0x38a6_7511_d4ea_0d86,
        },
    );
}

#[test]
fn gnmt4_dpos_2x2() {
    check_dpos(
        Model::Gnmt4,
        16,
        false,
        DposSignature {
            ranks: 0xa392_e521_e907_c347,
            est_finish: 0x3fda_996d_e424_dfb2,
            order: 0xedf0_d537_1c45_ecfa,
            placement: 0x24d0_38ca_4a65_073c,
            dp_est_finish: 0x3fc9_28a4_5280_217b,
            dp_order: 0x19f7_522b_58ce_735e,
        },
    );
}

#[test]
fn gnmt4_dpos_2x2_degraded() {
    check_dpos(
        Model::Gnmt4,
        16,
        true,
        DposSignature {
            ranks: 0xa392_e521_e907_c347,
            est_finish: 0x3fd1_975b_c98a_c14a,
            order: 0xd8f7_2c64_ca99_95f6,
            placement: 0x4c93_cf0c_d944_2ead,
            dp_est_finish: 0x7ff0_0000_0000_0000,
            dp_order: 0x2ab5_d86f_7b73_9ff2,
        },
    );
}
