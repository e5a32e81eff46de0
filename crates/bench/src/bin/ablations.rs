//! Ablation experiments for the design choices DESIGN.md calls out:
//!
//! * idle-slot insertion vs append-only scheduling (`avail[j]`, Sec. 5.1);
//! * critical-path device grouping vs pure min-EFT;
//! * learned cost models vs an oracle that reads the hardware ground truth;
//! * parameter-server placement for the DP baseline: CPU host vs GPU 0.
//!
//! `cargo run --release -p fastt-bench --bin ablations` prints, per model,
//! the simulated per-iteration time of each variant.

use fastt::{
    bootstrap_cost_models, data_parallel_plan, data_parallel_plan_on, dpos_with, DposFlags,
};
use fastt_cluster::{DeviceId, Topology};
use fastt_cost::CostModels;
use fastt_graph::{replicate, Graph};
use fastt_models::Model;
use fastt_sim::{simulate, ExecPolicy, HardwarePerf, SimConfig};

/// Cost models filled directly from the ground truth — the "oracle" the
/// learned models are compared against.
fn oracle(graph: &Graph, topo: &Topology) -> CostModels {
    let hw = HardwarePerf::new();
    let mut cost = CostModels::new();
    for (oid, op) in graph.iter_ops() {
        for d in topo.gpu_ids() {
            cost.comp
                .observe(&op.name, d, hw.exec_time(graph, oid, topo.device(d)));
        }
    }
    for s in topo.device_ids() {
        for d in topo.device_ids() {
            if s == d {
                continue;
            }
            if let Some(l) = topo.link(s, d) {
                for bytes in [1u64 << 12, 1 << 18, 1 << 24] {
                    cost.comm.observe(s, d, bytes, l.transfer_time(bytes));
                }
            }
        }
    }
    cost.comm.refit();
    cost
}

fn sim_time(graph: &Graph, topo: &Topology, s: &fastt::Schedule) -> f64 {
    match simulate(
        graph,
        topo,
        &s.placement,
        &HardwarePerf::new(),
        ExecPolicy::Priority(&s.order),
        &SimConfig::default(),
    ) {
        Ok(t) => t.makespan,
        Err(_) => f64::NAN,
    }
}

fn dpos_variant_ablation() {
    println!("\n## Ablation: DPOS design choices (simulated s/iteration, 4 GPUs)\n");
    println!("| Model | full DPOS | no insertion | no CP grouping | neither |");
    println!("|---|---|---|---|---|");
    let hw = HardwarePerf::new();
    for model in [Model::Vgg19, Model::InceptionV3, Model::Gnmt4] {
        let graph = model.training_graph(8);
        let topo = Topology::single_server(4);
        let rep = replicate(&graph, 4).unwrap();
        let cost = bootstrap_cost_models(&rep.graph, &topo, &hw);
        let variants = [
            DposFlags {
                insertion: true,
                cp_grouping: true,
            },
            DposFlags {
                insertion: false,
                cp_grouping: true,
            },
            DposFlags {
                insertion: true,
                cp_grouping: false,
            },
            DposFlags {
                insertion: false,
                cp_grouping: false,
            },
        ];
        let times: Vec<String> = variants
            .iter()
            .map(|f| {
                let s = dpos_with(&rep.graph, &topo, &cost, &hw, *f);
                format!("{:.4}", sim_time(&rep.graph, &topo, &s))
            })
            .collect();
        println!("| {} | {} |", model.name(), times.join(" | "));
    }
}

fn cost_model_ablation() {
    println!("\n## Ablation: learned cost models vs ground-truth oracle (4 GPUs)\n");
    println!("| Model | learned est | learned sim | oracle est | oracle sim |");
    println!("|---|---|---|---|---|");
    let hw = HardwarePerf::new();
    for model in [Model::AlexNet, Model::Vgg19] {
        let graph = model.training_graph(8);
        let topo = Topology::single_server(4);
        let rep = replicate(&graph, 4).unwrap();
        let learned = bootstrap_cost_models(&rep.graph, &topo, &hw);
        let orc = oracle(&rep.graph, &topo);
        let sl = dpos_with(&rep.graph, &topo, &learned, &hw, DposFlags::default());
        let so = dpos_with(&rep.graph, &topo, &orc, &hw, DposFlags::default());
        println!(
            "| {} | {:.4} | {:.4} | {:.4} | {:.4} |",
            model.name(),
            sl.est_finish,
            sim_time(&rep.graph, &topo, &sl),
            so.est_finish,
            sim_time(&rep.graph, &topo, &so),
        );
    }
}

fn ps_placement_ablation() {
    println!("\n## Ablation: parameter-server placement for DP (2 GPUs, s/iteration)\n");
    println!("| Model | PS on CPU host | PS on GPU 0 |");
    println!("|---|---|---|");
    let hw = HardwarePerf::new();
    for model in [Model::Vgg19, Model::AlexNet, Model::Rnnlm] {
        let graph = model.training_graph(model.paper_batch() / 2);
        let topo = Topology::single_server(2);
        let rep = replicate(&graph, 2).unwrap();
        let on_host = data_parallel_plan(&rep, &topo);
        let on_gpu = data_parallel_plan_on(&rep, &topo, DeviceId(0));
        let t = |p: &fastt::Plan| {
            p.simulate(&topo, &hw, &SimConfig::default())
                .map(|t| format!("{:.4}", t.makespan))
                .unwrap_or_else(|_| "OOM".into())
        };
        println!("| {} | {} | {} |", model.name(), t(&on_host), t(&on_gpu));
    }
}

fn main() {
    dpos_variant_ablation();
    cost_model_ablation();
    ps_placement_ablation();
}
