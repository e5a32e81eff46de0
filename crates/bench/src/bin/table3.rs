//! Table 3: per-iteration training time (seconds) for BERT-large at growing
//! global batch sizes — single GPU, 2-GPU DP, and 2-GPU FastT. Data
//! parallelism runs out of memory beyond batch 32; FastT keeps training at
//! 40 and 48 by deploying the model across both GPUs.

use fastt_bench::{print_header, run_dp, run_fastt};
use fastt_cluster::Topology;
use fastt_graph::ReplicationMode;
use fastt_models::Model;

fn cell(r: Result<f64, bool>) -> String {
    match r {
        Ok(t) => format!("{t:.3}"),
        Err(true) => "OOM".into(),
        Err(false) => "ERR".into(),
    }
}

fn main() {
    let model = Model::BertLarge;
    print_header(
        "Table 3: Bert-large per-iteration time (s) vs global batch",
        &["Global batch", "Single GPU", "2GPUs DP", "2GPUs FastT"],
    );

    for batch in [16u64, 32, 40, 48] {
        let topo1 = Topology::single_server(1);
        let single = run_dp(model, &topo1, batch, ReplicationMode::ParameterServer)
            .map(|m| m.iter_time)
            .map_err(|e| e.is_oom());

        let topo2 = Topology::single_server(2);
        let dp = run_dp(model, &topo2, batch / 2, ReplicationMode::ParameterServer)
            .map(|m| m.iter_time)
            .map_err(|e| e.is_oom());

        let ft = match run_fastt(model, &topo2, batch / 2, batch, None) {
            Ok(r) => Ok(r.measurement.iter_time),
            Err(fastt::FastTError::NoFeasibleStart { .. }) => Err(true),
            Err(fastt::FastTError::Sim(e)) => Err(e.is_oom()),
            Err(_) => Err(false),
        };

        println!(
            "| Bert-large({batch}) | {} | {} | {} |",
            cell(single),
            cell(dp),
            cell(ft)
        );
    }
}
