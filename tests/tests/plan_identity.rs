//! Plan bit-identity pins: OS-DPOS on two paper models and two topologies
//! must produce exactly these estimates and placements. The constants were
//! recorded before the computation cost model moved to dense interned
//! storage; any later refactor of the cost layer that changes a plan —
//! even by one ULP of the estimate — fails here directly instead of only
//! through the fuzzer's determinism family.

use fastt::{os_dpos, OsDposOptions, Plan};
use fastt_cluster::{DeviceId, Topology};
use fastt_cost::CostModels;
use fastt_graph::Graph;
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

/// FNV-1a over every op's name and assigned device, in op-id order.
fn placement_hash(plan: &Plan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (op, d) in plan.placement.iter() {
        mix(plan.graph.op_ref(op).name.as_bytes());
        mix(&[0xff]);
        mix(&d.0.to_le_bytes());
    }
    h
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
        placement_hash(&plan),
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
