//! Table 1: training speed (samples/s) under **strong scaling** — the global
//! batch stays fixed while GPUs are added. Columns: 1 GPU, then DP vs FastT
//! for 2/4/8 GPUs and 8 GPUs over two servers; final column is the speedup
//! of the best FastT entry over the best DP entry (how the paper computes
//! its bold speedup column). Beyond the paper, each setting also shows
//! ring all-reduce DP, the strongest DP baseline the repository
//! implements; the speedup stays against the paper's (PS) DP.

use fastt_bench::{
    fmt_sps, per_replica_batch, print_header, run_dp, run_fastt, strong_scaling_settings,
};
use fastt_cluster::Topology;
use fastt_graph::ReplicationMode;

fn main() {
    let models = fastt_bench::cli_models();
    print_header(
        "Table 1: strong scaling, samples/s (global batch fixed)",
        &[
            "Model(batch)",
            "1 GPU",
            "2GPUs DP",
            "2GPUs ring DP",
            "2GPUs FastT",
            "4GPUs DP",
            "4GPUs ring DP",
            "4GPUs FastT",
            "8GPUs DP",
            "8GPUs ring DP",
            "8GPUs FastT",
            "8GPUs(2srv) DP",
            "8GPUs(2srv) ring DP",
            "8GPUs(2srv) FastT",
            "Speedup",
        ],
    );

    for model in models {
        let global = model.paper_batch();
        let mut row = vec![format!("{}({})", model.name(), global)];

        // single GPU: DP and FastT coincide (one replica, no choices)
        let topo1 = Topology::single_server(1);
        let single = run_dp(model, &topo1, global, ReplicationMode::ParameterServer);
        row.push(fmt_sps(&single));

        let mut best_dp = match &single {
            Ok(m) => m.samples_per_sec,
            Err(_) => 0.0,
        };
        let mut best_ft = best_dp;

        for setting in strong_scaling_settings() {
            let topo = setting.topology();
            let n = setting.gpus();
            let prb = per_replica_batch(model, global, n);
            let dp = run_dp(model, &topo, prb, ReplicationMode::ParameterServer);
            if let Ok(m) = &dp {
                best_dp = best_dp.max(m.samples_per_sec);
            }
            row.push(fmt_sps(&dp));
            // beyond the paper: the ring all-reduce DP the repository
            // also implements, not counted in the speedup
            row.push(fmt_sps(&run_dp(
                model,
                &topo,
                prb,
                ReplicationMode::AllReduce,
            )));
            match run_fastt(model, &topo, prb, prb * n as u64, None) {
                Ok(ft) => {
                    best_ft = best_ft.max(ft.measurement.samples_per_sec);
                    row.push(format!("{:>9.1}", ft.measurement.samples_per_sec));
                }
                Err(e) => {
                    eprintln!("[table1] {model} {}: {e}", setting.label);
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
