//! Table 4: wall-clock time to compute the FastT strategies (Alg. 2) per
//! model and GPU count.
//!
//! The paper's numbers (minutes) include profiling iterations and session
//! restarts on real hardware; ours isolate the pure strategy computation
//! (DPOS/OS-DPOS invocations during the whole pre-training workflow), the
//! quantity that actually scales with model size and device count. Relative
//! ordering across models/GPU counts is the reproducible shape.

use fastt_bench::{per_replica_batch, print_header, run_fastt};
use fastt_cluster::Topology;

fn main() {
    let models = fastt_bench::cli_models();
    print_header(
        "Table 4: strategy computation time (s, wall clock in Alg.1/Alg.2)",
        &["Model(batch)", "2GPUs", "4GPUs", "8GPUs"],
    );

    for model in models {
        let global = model.paper_batch();
        let mut row = vec![format!("{}({})", model.name(), global)];
        for gpus in [2u16, 4, 8] {
            let topo = Topology::single_server(gpus);
            let prb = per_replica_batch(model, global, gpus as u32);
            match run_fastt(model, &topo, prb, global, None) {
                Ok(r) => row.push(format!("{:.2}", r.report.strategy_calc_secs)),
                Err(e) => {
                    eprintln!("[table4] {model} {gpus} GPUs: {e}");
                    row.push("ERR".into());
                }
            }
        }
        println!("| {} |", row.join(" | "));
    }
}
