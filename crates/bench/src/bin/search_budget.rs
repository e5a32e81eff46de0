//! Search-budget study: strategy quality vs the number of full training
//! iterations each method consumes — our measured version of the paper's
//! central resource argument ("REINFORCE and GDP use another big cluster …
//! and spend hours", while FastT "can find excellent device placement and
//! execution order within minutes using the same computing node").
//!
//! `cargo run --release -p fastt-bench --bin search_budget` prints, per
//! budget level, the best simulated iteration time each black-box method
//! found, next to the one-shot white-box results (GDP, FastT) and the DP
//! baseline.

use fastt::search::{cem_search, mcmc_search, random_search, reinforce_search};
use fastt::{bootstrap_cost_models, data_parallel_plan};
use fastt_cluster::Topology;
use fastt_graph::replicate;
use fastt_models::Model;
use fastt_sim::{HardwarePerf, SimConfig};
use std::time::Instant;

fn main() {
    let model = Model::InceptionV3;
    let gpus = 4u16;
    let topo = Topology::single_server(gpus);
    let hw = HardwarePerf::new();
    let global = model.paper_batch();

    // DP reference
    let replica = model.training_graph(global / gpus as u64);
    let rep = replicate(&replica, gpus as u32).unwrap();
    let dp = data_parallel_plan(&rep, &topo);
    let dp_time = dp
        .simulate(&topo, &hw, &SimConfig::default())
        .expect("DP fits")
        .makespan;
    println!("\n## Search budget vs quality — {model}, {gpus} GPUs\n");
    println!("DP baseline: {dp_time:.4} s/iteration\n");
    println!("| budget (evals) | random | REINFORCE | Post (CEM) | FlexFlow (MCMC) |");
    println!("|---|---|---|---|---|");

    let raw = model.training_graph(global);
    for budget in [10u32, 40, 160, 640] {
        let rnd = random_search(&raw, &topo, &hw, budget, 1);
        let rl = reinforce_search(&raw, &topo, &hw, budget / 8, 8, 2);
        let cem = cem_search(&raw, &topo, &hw, budget / 10, 10, 0.25, 3);
        let mcmc = mcmc_search(&rep.graph, &topo, &hw, Some(&dp.placement), budget, 0.03, 4);
        println!(
            "| {budget} | {:.4} | {:.4} | {:.4} | {:.4} |",
            rnd.best_time, rl.best_time, cem.best_time, mcmc.best_time
        );
    }

    // one-shot white-box methods for contrast
    let t0 = Instant::now();
    let cost = bootstrap_cost_models(&raw, &topo, &hw);
    let gdp = fastt::search::gdp_place(&raw, &topo, &cost, &hw);
    println!(
        "\nGDP (white box, 1 eval): {:.4} s/iteration, computed in {:.2}s",
        gdp.best_time,
        t0.elapsed().as_secs_f64()
    );

    let t0 = Instant::now();
    let mut session = fastt::TrainingSession::new(
        &replica,
        topo.clone(),
        hw.clone(),
        fastt::SessionConfig::default(),
    )
    .expect("feasible");
    let report = session.pre_train().expect("trains");
    println!(
        "FastT (white box + profiling): {:.4} s/iteration, strategies computed in {:.2}s \
         (total wall {:.2}s incl. simulated profiling)",
        report.final_iter_time,
        report.strategy_calc_secs,
        t0.elapsed().as_secs_f64()
    );
}
