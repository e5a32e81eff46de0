//! Table 5: split decisions for representative operations in VGG-19
//! (4 GPUs, the paper's best-speedup setting): per-op execution time,
//! weight size, and whether FastT decided to split it.
//!
//! The paper's qualitative finding: ops that get split have long execution
//! time and small weights; large-weight ops (fc6) are not split to avoid
//! broadcasting parameters.

use fastt_bench::{per_replica_batch, print_header, run_fastt};
use fastt_cluster::Topology;
use fastt_cost::canonical_name;
use fastt_graph::OpKind;
use fastt_models::Model;

fn main() {
    let model = Model::Vgg19;
    let topo = Topology::single_server(4);
    let prb = per_replica_batch(model, 64, 4);
    let run = run_fastt(model, &topo, prb, 64, None).expect("vgg fits");
    let plan = run.session.current_plan();
    let cost = &run.session.cost;

    let split_names: Vec<String> = plan
        .splits
        .iter()
        .map(|s| canonical_name(&s.op_name))
        .collect();

    print_header(
        "Table 5: split decisions for representative VGG-19 ops (4 GPUs)",
        &["Operation", "Time(ms)", "Weight(KB)", "Split"],
    );

    let representative = [
        "conv1_1",
        "conv1_2",
        "grad/conv1_2",
        "relu1_2",
        "pool1",
        "fc6",
    ];
    // weights of an op live in its `<name>/weights` variable
    let graph = &plan.graph;
    for name in representative {
        // find any instance (replica 0 by convention, or a part of it)
        let inst = graph.iter_ops().find(|(_, o)| {
            canonical_name(&o.name) == name || {
                // split parts keep the parent name plus `.part#`
                canonical_name(&o.name).starts_with(name)
                    && canonical_name(&o.name)[name.len()..].starts_with(".part")
            }
        });
        let time_ms = cost
            .comp
            .max_time(&format!("rep0/{name}"))
            .or_else(|| cost.comp.max_time(name))
            .map(|t| t * 1e3)
            .unwrap_or(f64::NAN);
        let weight_kb = graph
            .iter_ops()
            .find(|(_, o)| {
                o.kind == OpKind::Variable
                    && canonical_name(&o.name)
                        == format!("{}/weights", name.trim_start_matches("grad/"))
            })
            .map(|(_, o)| o.param_bytes as f64 / 1024.0)
            .unwrap_or(0.0);
        let split = split_names.iter().any(|s| s == name);
        println!(
            "| {name} | {time_ms:.3} | {weight_kb:.1} | {} |{}",
            split,
            if inst.is_none() { " (op absent)" } else { "" }
        );
    }

    println!("\nAll split decisions: {:?}", plan.splits);
}
