//! Fig. 2: performance gain of order enforcement. Each model runs on 2 GPUs
//! under the default data-parallel placement; we compare TensorFlow's
//! default FIFO execution order against FastT's enforced order computed for
//! the *same* placement (isolating the ordering effect, as the paper does).

use fastt::{data_parallel_plan, data_parallel_plan_on, schedule_for_placement};
use fastt_bench::{dp_ps_for, print_header, MEASURE_ITERS};
use fastt_cluster::Topology;
use fastt_cost::CostModels;
use fastt_graph::{replicate_grouped, ReplicationMode};
use fastt_models::Model;
use fastt_sim::{HardwarePerf, SimConfig};

fn main() {
    let models = [Model::AlexNet, Model::Vgg19, Model::LeNet, Model::ResNet200];
    let topo = Topology::single_server(2);
    let hw = HardwarePerf::new();

    print_header(
        "Fig. 2: per-iteration time (s), default FIFO vs order enforcement (2 GPUs, DP placement)",
        &["Model", "Default", "Order enforce", "Reduction"],
    );

    for model in models {
        let prb = model.paper_batch() / 2;
        let graph = model.training_graph(prb);
        let rep = replicate_grouped(&graph, &[0, 0], ReplicationMode::ParameterServer)
            .expect("replicates");
        let mut plan = match dp_ps_for(model) {
            Some(d) => data_parallel_plan_on(&rep, &topo, d),
            None => data_parallel_plan(&rep, &topo),
        };

        // profile under FIFO to learn the cost models and the baseline time
        let mut cost = CostModels::new();
        let mut fifo_time = 0.0;
        for it in 0..MEASURE_ITERS {
            let cfg = SimConfig {
                jitter_pct: 0.02,
                iteration: it as u64,
                ..SimConfig::default()
            };
            let tr = plan.simulate(&topo, &hw, &cfg).expect("DP fits");
            cost.update_from_trace(&rep.graph, &tr);
            fifo_time += tr.makespan;
        }
        let fifo_time = fifo_time / MEASURE_ITERS as f64;

        // enforce the order the strategy calculator derives for the SAME
        // placement
        let sched = schedule_for_placement(&rep.graph, &topo, &cost, &hw, &plan.placement);
        plan.order = Some(sched.order);
        let mut ord_time = 0.0;
        for it in 0..MEASURE_ITERS {
            let cfg = SimConfig {
                jitter_pct: 0.02,
                iteration: 100 + it as u64,
                ..SimConfig::default()
            };
            ord_time += plan
                .simulate(&topo, &hw, &cfg)
                .expect("same memory")
                .makespan;
        }
        let ord_time = ord_time / MEASURE_ITERS as f64;

        println!(
            "| {} | {fifo_time:.4} | {ord_time:.4} | {:.1}% |",
            model.name(),
            (1.0 - ord_time / fifo_time) * 100.0
        );
    }
}
