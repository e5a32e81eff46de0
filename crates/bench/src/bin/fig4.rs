//! Fig. 4: number of operations placed on each GPU by FastT, for AlexNet,
//! VGG-19 and LeNet on 2 and 4 GPUs. The paper's observation: FastT does not
//! allocate operations evenly — replicas of large-parameter ops concentrate
//! on one GPU to avoid gradient aggregation, while compute-heavy ops spread.

use fastt_bench::{per_replica_batch, print_header, run_fastt};
use fastt_cluster::Topology;
use fastt_models::Model;

fn main() {
    let models = [Model::AlexNet, Model::Vgg19, Model::LeNet];

    for gpus in [2u16, 4] {
        print_header(
            &format!("Fig. 4: ops per GPU under FastT ({gpus} GPUs)"),
            &["Model", "Ops per GPU (gpu0..)", "Total"],
        );
        for model in models {
            let topo = Topology::single_server(gpus);
            let global = model.paper_batch();
            let prb = per_replica_batch(model, global, gpus as u32);
            match run_fastt(model, &topo, prb, global, None) {
                Ok(run) => {
                    let hist = run.session.current_plan().placement.op_histogram(&topo);
                    let gpu_hist: Vec<usize> = topo.gpu_ids().map(|d| hist[d.index()]).collect();
                    let host_ops: usize = topo
                        .device_ids()
                        .filter(|d| topo.is_host(*d))
                        .map(|d| hist[d.index()])
                        .sum();
                    let total: usize = hist.iter().sum();
                    print!("| {} | {:?}", model.name(), gpu_hist);
                    if host_ops > 0 {
                        print!(" (+{host_ops} on host)");
                    }
                    println!(" | {total} |");
                }
                Err(e) => println!("| {} | ERR: {e} | - |", model.name()),
            }
        }
    }
}
