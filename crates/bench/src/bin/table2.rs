//! Table 2: training speed (samples/s) under **weak scaling** — the per-GPU
//! batch stays fixed, so the global batch grows with the GPU count.

use fastt_bench::{fmt_sps, print_header, run_dp, run_fastt, weak_scaling_settings};
use fastt_cluster::Topology;
use fastt_graph::ReplicationMode;

fn main() {
    let models = fastt_bench::cli_models();
    print_header(
        "Table 2: weak scaling, samples/s (per-GPU batch fixed)",
        &[
            "Model(batch/GPU)",
            "1 GPU",
            "2GPUs DP",
            "2GPUs FastT",
            "4GPUs DP",
            "4GPUs FastT",
            "8GPUs DP",
            "8GPUs FastT",
            "16GPUs(2srv) DP",
            "16GPUs(2srv) FastT",
            "Speedup",
        ],
    );

    for model in models {
        let per_gpu = model.paper_batch();
        let mut row = vec![format!("{}({})", model.name(), per_gpu)];

        let topo1 = Topology::single_server(1);
        let single = run_dp(model, &topo1, per_gpu, ReplicationMode::ParameterServer);
        row.push(fmt_sps(&single));
        let mut best_dp = match &single {
            Ok(m) => m.samples_per_sec,
            Err(_) => 0.0,
        };
        let mut best_ft = best_dp;

        for setting in weak_scaling_settings() {
            let topo = setting.topology();
            let n = setting.gpus();
            let dp = run_dp(model, &topo, per_gpu, ReplicationMode::ParameterServer);
            if let Ok(m) = &dp {
                best_dp = best_dp.max(m.samples_per_sec);
            }
            row.push(fmt_sps(&dp));
            match run_fastt(model, &topo, per_gpu, per_gpu * n as u64, None) {
                Ok(ft) => {
                    best_ft = best_ft.max(ft.measurement.samples_per_sec);
                    row.push(format!("{:>9.1}", ft.measurement.samples_per_sec));
                }
                Err(e) => {
                    eprintln!("[table2] {model} {}: {e}", setting.label);
                    row.push(format!("{:>9}", "ERR"));
                }
            }
        }

        let speedup = if best_dp > 0.0 {
            (best_ft / best_dp - 1.0) * 100.0
        } else {
            f64::NAN
        };
        row.push(format!("{speedup:.1}%"));
        println!("| {} |", row.join(" | "));
    }
}
