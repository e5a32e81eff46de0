//! Fig. 3: normalized training speed (relative to data parallelism) of
//! REINFORCE, GDP, Post, FlexFlow and FastT on Inception-v3, ResNet-200,
//! GNMT and RNNLM over 2/4/8 GPUs.
//!
//! Unlike the paper — which copies the comparators' numbers out of their
//! papers — every method here runs in the same simulated cluster (see
//! DESIGN.md): REINFORCE/GDP/Post search placements of the **raw** model
//! graph (model parallelism only, their published solution space), FlexFlow
//! (MCMC) searches the **replicated** graph with a large evaluation budget,
//! and FastT runs its full workflow. The expected shape: FastT beats the
//! model-parallel-only searchers everywhere; FlexFlow comes closest.

use fastt::search::{CemPlanner, GdpPlanner, McmcPlanner, ReinforcePlanner};
use fastt::{data_parallel_plan, data_parallel_plan_on, Portfolio, PortfolioInputs};
use fastt_bench::{dp_ps_for, per_replica_batch, print_header, run_dp, run_fastt};
use fastt_cluster::Topology;
use fastt_graph::{replicate_grouped, ReplicationMode};
use fastt_models::Model;
use fastt_sim::HardwarePerf;

use fastt::bootstrap_cost_models as bootstrap_costs;

fn main() {
    let models = [
        Model::InceptionV3,
        Model::ResNet200,
        Model::Gnmt4,
        Model::Rnnlm,
    ];
    let hw = HardwarePerf::new();

    print_header(
        "Fig. 3: speed normalized to DP (higher is better)",
        &[
            "Model",
            "GPUs",
            "REINFORCE",
            "GDP",
            "Post",
            "FlexFlow",
            "FastT",
        ],
    );

    for model in models {
        let global = model.paper_batch();
        for gpus in [2u16, 4, 8] {
            let topo = Topology::single_server(gpus);
            let prb = per_replica_batch(model, global, gpus as u32);
            let dp = run_dp(model, &topo, prb, ReplicationMode::ParameterServer).expect("DP fits");
            let norm = |iter: f64| dp.iter_time / iter;

            // model-parallel-only searchers on the raw graph at the global
            // batch (they cannot replicate, so they process the full batch)
            let raw = model.training_graph(global.min(prb * gpus as u64));
            let cost = bootstrap_costs(&raw, &topo, &hw);

            // one portfolio evaluation runs the three raw-graph
            // searchers concurrently; their `est_finish` is the
            // search's own best simulated time
            let raw_portfolio = Portfolio::new()
                .with(Box::new(ReinforcePlanner {
                    rounds: 12,
                    batch: 8,
                    seed: 11,
                }))
                .with(Box::new(GdpPlanner))
                .with(Box::new(CemPlanner {
                    rounds: 10,
                    pop: 10,
                    elite_frac: 0.25,
                    seed: 13,
                }));
            let raw_outcome = raw_portfolio.evaluate(
                &PortfolioInputs {
                    graph: &raw,
                    raw: None,
                    current: None,
                    topo: &topo,
                    hw: &hw,
                    cost: &cost,
                    collector: None,
                    enable_order: true,
                    dp_ps: None,
                    cache_salt: 0,
                    probe: None,
                },
                None,
            );
            let (reinforce, gdp, post) = (
                raw_outcome.candidates[0].est_finish(),
                raw_outcome.candidates[1].est_finish(),
                raw_outcome.candidates[2].est_finish(),
            );

            // FlexFlow-like MCMC on the replicated graph, seeded from DP
            let groups: Vec<u16> = topo.gpu_ids().map(|d| topo.server_of(d)).collect();
            let rep = replicate_grouped(
                &model.training_graph(prb),
                &groups,
                ReplicationMode::ParameterServer,
            )
            .expect("replicates");
            let dp_plan = match dp_ps_for(model) {
                Some(d) => data_parallel_plan_on(&rep, &topo, d),
                None => data_parallel_plan(&rep, &topo),
            };
            let flexflow = Portfolio::new()
                .with(Box::new(McmcPlanner {
                    evals: 400,
                    temp: 0.03,
                    seed: 17,
                    start_from_current: true,
                }))
                .evaluate(
                    &PortfolioInputs {
                        graph: &rep.graph,
                        raw: None,
                        current: Some(&dp_plan),
                        topo: &topo,
                        hw: &hw,
                        cost: &cost,
                        collector: None,
                        enable_order: true,
                        dp_ps: None,
                        cache_salt: 0,
                        probe: None,
                    },
                    None,
                )
                .candidates[0]
                .est_finish();

            let fastt = run_fastt(model, &topo, prb, global, None).expect("fastt runs");

            println!(
                "| {} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} |",
                model.name(),
                gpus,
                norm(reinforce),
                norm(gdp),
                norm(post),
                norm(flexflow),
                norm(fastt.measurement.iter_time),
            );
        }
    }
}
