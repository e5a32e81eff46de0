//! Table 6: per-iteration training time with and without operation
//! splitting, plus the key split op kinds (the paper's ablation of
//! Alg. 2: conv-heavy CNNs benefit from Conv2D/Conv2Dbp splits,
//! attention models from MatMul splits, LeNet/AlexNet/LSTMs not at all).
//!
//! To isolate the split decision, both plans are computed from the
//! *same* trained cost models (one FastT session with splitting on):
//! "Split" is the OS-DPOS plan, "No split" the plain-DPOS plan, and
//! both are measured in the simulator under order enforcement.

use fastt::SessionConfig;
use fastt_bench::{dp_ps_for, per_replica_batch, print_header, run_fastt};
use fastt_cluster::Topology;
use fastt_cost::canonical_name;
use fastt_sim::{HardwarePerf, SimConfig};

fn main() {
    let models = fastt_bench::cli_models();
    print_header(
        "Table 6: per-iteration time (s) with/without operation split (8 GPUs)",
        &["Model", "No split", "Split", "Speedup", "Key split op"],
    );

    let hw = HardwarePerf::new();
    for model in models {
        let topo = Topology::single_server(8);
        let global = model.paper_batch();
        let prb = per_replica_batch(model, global, 8);
        let cfg = SessionConfig {
            dp_ps: dp_ps_for(model),
            ..SessionConfig::default()
        };
        // one session to train the cost models (and the base graph)
        let run = match run_fastt(model, &topo, prb, global, Some(cfg)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("[table6] {model}: {e}");
                println!("| {} | ERR | ERR | - | - |", model.name());
                continue;
            }
        };
        let mut session = run.session;
        // candidate A: OS-DPOS (split search enabled)
        let split_plan = session.compute_candidate();
        // candidate B: plain DPOS from the same cost models
        let no_split_plan = session.compute_candidate_no_split();

        let measure = |p: &fastt::Plan| -> Option<f64> {
            p.simulate(&topo, &hw, &SimConfig::default())
                .ok()
                .map(|t| t.makespan)
        };
        match (measure(&no_split_plan), measure(&split_plan)) {
            (Some(t0), Some(t1)) => {
                let speedup = (t0 / t1 - 1.0) * 100.0;
                let mut kinds: Vec<String> = split_plan
                    .splits
                    .iter()
                    .map(|d| {
                        let base = canonical_name(&d.op_name);
                        split_plan
                            .graph
                            .iter_ops()
                            .find(|(_, o)| {
                                canonical_name(&o.name).starts_with(&format!("{base}.part"))
                            })
                            .map(|(_, o)| o.kind.to_string())
                            .unwrap_or(base)
                    })
                    .collect();
                kinds.sort();
                kinds.dedup();
                let key = if kinds.is_empty() {
                    "None".to_string()
                } else {
                    kinds.join(",")
                };
                println!(
                    "| {} | {t0:.3} | {t1:.3} | {speedup:.2}% | {key} |",
                    model.name()
                );
            }
            _ => println!("| {} | ERR | ERR | - | - |", model.name()),
        }
    }
}
