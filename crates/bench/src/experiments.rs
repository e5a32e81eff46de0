//! Callable versions of every table/figure experiment, shared by the
//! `table*`/`fig*` binaries and the `paper` bench target (so `cargo bench`
//! regenerates the paper's entire evaluation).

pub mod table1 {
    //! Table 1: training speed (samples/s) under **strong scaling** — the global
    //! batch stays fixed while GPUs are added. Columns: 1 GPU, then DP vs FastT
    //! for 2/4/8 GPUs and 8 GPUs over two servers; final column is the speedup
    //! of the best FastT entry over the best DP entry (how the paper computes
    //! its bold speedup column). Beyond the paper, each setting also shows
    //! ring all-reduce DP, the strongest DP baseline the repository
    //! implements; the speedup stays against the paper's (PS) DP.
    #[allow(unused_imports)]
    use crate::*;
    use fastt_cluster::Topology;
    use fastt_models::Model;

    /// Runs the experiment and prints its rows.
    pub fn table1(models: &[Model]) {
        let models = models.iter().copied();
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
}

pub mod table2 {
    //! Table 2: training speed (samples/s) under **weak scaling** — the per-GPU
    //! batch stays fixed, so the global batch grows with the GPU count.
    #[allow(unused_imports)]
    use crate::*;
    use crate::{fmt_sps, print_header, run_dp, run_fastt, weak_scaling_settings};
    use fastt_cluster::Topology;
    use fastt_models::Model;

    /// Runs the experiment and prints its rows.
    pub fn table2(models: &[Model]) {
        let models = models.iter().copied();
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
}

pub mod table3 {
    //! Table 3: per-iteration training time (seconds) for BERT-large at growing
    //! global batch sizes — single GPU, 2-GPU DP, and 2-GPU FastT. Data
    //! parallelism runs out of memory beyond batch 32; FastT keeps training at
    //! 40 and 48 by deploying the model across both GPUs.
    #[allow(unused_imports)]
    use crate::*;
    use crate::{print_header, run_dp, run_fastt};
    use fastt_cluster::Topology;
    use fastt_models::Model;

    fn cell(r: Result<f64, bool>) -> String {
        match r {
            Ok(t) => format!("{t:.3}"),
            Err(true) => "OOM".into(),
            Err(false) => "ERR".into(),
        }
    }

    /// Runs the experiment and prints its rows.
    pub fn table3() {
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
}

pub mod table4 {
    //! Table 4: wall-clock time to compute the FastT strategies (Alg. 2) per
    //! model and GPU count.
    //!
    //! The paper's numbers (minutes) include profiling iterations and session
    //! restarts on real hardware; ours isolate the pure strategy computation
    //! (DPOS/OS-DPOS invocations during the whole pre-training workflow), the
    //! quantity that actually scales with model size and device count. Relative
    //! ordering across models/GPU counts is the reproducible shape.
    #[allow(unused_imports)]
    use crate::*;
    use crate::{per_replica_batch, print_header, run_fastt};
    use fastt_cluster::Topology;

    /// Runs the experiment and prints its rows.
    pub fn table4(models: &[Model]) {
        let models = models.iter().copied();
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
}

pub mod table5 {
    //! Table 5: split decisions for representative operations in VGG-19
    //! (4 GPUs, the paper's best-speedup setting): per-op execution time,
    //! weight size, and whether FastT decided to split it.
    //!
    //! The paper's qualitative finding: ops that get split have long execution
    //! time and small weights; large-weight ops (fc6) are not split to avoid
    //! broadcasting parameters.
    #[allow(unused_imports)]
    use crate::*;
    use crate::{per_replica_batch, print_header, run_fastt};
    use fastt_cluster::Topology;
    use fastt_cost::canonical_name;
    use fastt_graph::OpKind;
    use fastt_models::Model;

    /// Runs the experiment and prints its rows.
    pub fn table5() {
        let model = Model::Vgg19;
        let topo = Topology::single_server(4);
        let prb = per_replica_batch(model, 64, 4);
        let run = run_fastt(model, &topo, prb, 64, None).expect("vgg fits");
        let plan = run.session.current_plan();
        let cost = &run.session.cost;

        let split_names: Vec<String> = plan
            .splits
            .iter()
            .map(|s| canonical_name(&s.op_name))
            .collect();

        print_header(
            "Table 5: split decisions for representative VGG-19 ops (4 GPUs)",
            &["Operation", "Time(ms)", "Weight(KB)", "Split"],
        );

        let representative = [
            "conv1_1",
            "conv1_2",
            "grad/conv1_2",
            "relu1_2",
            "pool1",
            "fc6",
        ];
        // weights of an op live in its `<name>/weights` variable
        let graph = &plan.graph;
        for name in representative {
            // find any instance (replica 0 by convention, or a part of it)
            let inst = graph.iter_ops().find(|(_, o)| {
                canonical_name(&o.name) == name || {
                    // split parts keep the parent name plus `.part#`
                    canonical_name(&o.name).starts_with(name)
                        && canonical_name(&o.name)[name.len()..].starts_with(".part")
                }
            });
            let time_ms = cost
                .comp
                .max_time(&format!("rep0/{name}"))
                .or_else(|| cost.comp.max_time(name))
                .map(|t| t * 1e3)
                .unwrap_or(f64::NAN);
            let weight_kb = graph
                .iter_ops()
                .find(|(_, o)| {
                    o.kind == OpKind::Variable
                        && canonical_name(&o.name)
                            == format!("{}/weights", name.trim_start_matches("grad/"))
                })
                .map(|(_, o)| o.param_bytes as f64 / 1024.0)
                .unwrap_or(0.0);
            let split = split_names.iter().any(|s| s == name);
            println!(
                "| {name} | {time_ms:.3} | {weight_kb:.1} | {} |{}",
                split,
                if inst.is_none() { " (op absent)" } else { "" }
            );
        }

        println!("\nAll split decisions: {:?}", plan.splits);
    }
}

pub mod table6 {
    //! Table 6: per-iteration training time with and without operation
    //! splitting, plus the key split op kinds (the paper's ablation of
    //! Alg. 2: conv-heavy CNNs benefit from Conv2D/Conv2Dbp splits,
    //! attention models from MatMul splits, LeNet/AlexNet/LSTMs not at all).
    //!
    //! To isolate the split decision, both plans are computed from the
    //! *same* trained cost models (one FastT session with splitting on):
    //! "Split" is the OS-DPOS plan, "No split" the plain-DPOS plan, and
    //! both are measured in the simulator under order enforcement.
    #[allow(unused_imports)]
    use crate::*;
    use crate::{dp_ps_for, per_replica_batch, print_header, run_fastt};
    use fastt::SessionConfig;
    use fastt_cluster::Topology;
    use fastt_cost::canonical_name;
    use fastt_sim::{HardwarePerf, SimConfig};

    /// Runs the experiment and prints its rows.
    pub fn table6(models: &[Model]) {
        print_header(
            "Table 6: per-iteration time (s) with/without operation split (8 GPUs)",
            &["Model", "No split", "Split", "Speedup", "Key split op"],
        );

        let hw = HardwarePerf::new();
        for model in models.iter().copied() {
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
}

pub mod fig2 {
    //! Fig. 2: performance gain of order enforcement. Each model runs on 2 GPUs
    //! under the default data-parallel placement; we compare TensorFlow's
    //! default FIFO execution order against FastT's enforced order computed for
    //! the *same* placement (isolating the ordering effect, as the paper does).
    #[allow(unused_imports)]
    use crate::*;
    use crate::{dp_ps_for, print_header, MEASURE_ITERS};
    use fastt::{data_parallel_plan, data_parallel_plan_on, schedule_for_placement};
    use fastt_cluster::Topology;
    use fastt_cost::CostModels;
    use fastt_graph::{replicate_grouped, ReplicationMode};
    use fastt_models::Model;
    use fastt_sim::{HardwarePerf, SimConfig};

    /// Runs the experiment and prints its rows.
    pub fn fig2() {
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
}

pub mod fig3 {
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
    #[allow(unused_imports)]
    use crate::*;
    use crate::{dp_ps_for, per_replica_batch, print_header, run_dp, run_fastt};
    use fastt::search::{CemPlanner, GdpPlanner, McmcPlanner, ReinforcePlanner};
    use fastt::{data_parallel_plan, data_parallel_plan_on, Portfolio, PortfolioInputs};
    use fastt_cluster::Topology;
    use fastt_graph::{replicate_grouped, ReplicationMode};
    use fastt_models::Model;
    use fastt_sim::HardwarePerf;

    use fastt::bootstrap_cost_models as bootstrap_costs;

    /// Runs the experiment and prints its rows.
    pub fn fig3() {
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
                let dp =
                    run_dp(model, &topo, prb, ReplicationMode::ParameterServer).expect("DP fits");
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
}

pub mod fig4 {
    //! Fig. 4: number of operations placed on each GPU by FastT, for AlexNet,
    //! VGG-19 and LeNet on 2 and 4 GPUs. The paper's observation: FastT does not
    //! allocate operations evenly — replicas of large-parameter ops concentrate
    //! on one GPU to avoid gradient aggregation, while compute-heavy ops spread.
    #[allow(unused_imports)]
    use crate::*;
    use crate::{per_replica_batch, print_header, run_fastt};
    use fastt_cluster::Topology;
    use fastt_models::Model;

    /// Runs the experiment and prints its rows.
    pub fn fig4() {
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
                        let gpu_hist: Vec<usize> =
                            topo.gpu_ids().map(|d| hist[d.index()]).collect();
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
}

pub mod fig5 {
    //! Fig. 5: average computation time, memcpy (tensor transfer) time, and
    //! per-iteration time for data parallelism vs FastT on 2 GPUs. The paper's
    //! observation: FastT may *increase* computation time (more ops packed on
    //! fewer devices) while reducing memcpy time and the per-iteration time.
    #[allow(unused_imports)]
    use crate::*;
    use crate::{dp_ps_for, per_replica_batch, print_header, run_fastt};
    use fastt::{data_parallel_plan, data_parallel_plan_on};
    use fastt_cluster::Topology;
    use fastt_graph::{replicate_grouped, ReplicationMode};
    use fastt_models::Model;
    use fastt_sim::{HardwarePerf, SimConfig};

    /// Runs the experiment and prints its rows.
    pub fn fig5() {
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
}
