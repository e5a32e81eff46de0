//! Fig. 5: average computation time, memcpy (tensor transfer) time, and
//! per-iteration time for data parallelism vs FastT on 2 GPUs. The paper's
//! observation: FastT may *increase* computation time (more ops packed on
//! fewer devices) while reducing memcpy time and the per-iteration time.

use fastt::{data_parallel_plan, data_parallel_plan_on};
use fastt_bench::{dp_ps_for, per_replica_batch, print_header, run_fastt};
use fastt_cluster::Topology;
use fastt_graph::{replicate_grouped, ReplicationMode};
use fastt_models::Model;
use fastt_sim::{HardwarePerf, SimConfig};

fn main() {
    let models = [Model::Vgg19, Model::ResNet200, Model::AlexNet, Model::LeNet];
    let topo = Topology::single_server(2);
    let hw = HardwarePerf::new();

    print_header(
        "Fig. 5: computation / memcpy / per-iteration time (ms), 2 GPUs",
        &[
            "Model",
            "DP comp",
            "DP memcpy",
            "DP iter",
            "FastT comp",
            "FastT memcpy",
            "FastT iter",
        ],
    );

    for model in models {
        let global = model.paper_batch();
        let prb = per_replica_batch(model, global, 2);
        let graph = model.training_graph(prb);
        let rep = replicate_grouped(&graph, &[0, 0], ReplicationMode::ParameterServer)
            .expect("replicates");
        let dp = match dp_ps_for(model) {
            Some(d) => data_parallel_plan_on(&rep, &topo, d),
            None => data_parallel_plan(&rep, &topo),
        };
        let dp_tr = dp
            .simulate(&topo, &hw, &SimConfig::default())
            .expect("DP fits");

        let ft = run_fastt(model, &topo, prb, global, None).expect("fastt runs");
        let ft_tr = ft
            .session
            .current_plan()
            .simulate(&topo, &hw, &SimConfig::default())
            .expect("plan fits");

        println!(
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} |",
            model.name(),
            dp_tr.total_compute_time() * 1e3,
            dp_tr.total_memcpy_time() * 1e3,
            dp_tr.makespan * 1e3,
            ft_tr.total_compute_time() * 1e3,
            ft_tr.total_memcpy_time() * 1e3,
            ft_tr.makespan * 1e3,
        );
    }
}
