//! End-to-end integration tests: the full FastT workflow over every
//! benchmark model on small simulated clusters.

use std::sync::Arc;

use fastt::{data_parallel_plan, LadderRung, SessionConfig, TrainingSession};
use fastt_bench_support::small_batch;
use fastt_cluster::{DeviceId, Topology};
use fastt_graph::replicate;
use fastt_models::Model;
use fastt_sim::{HardwarePerf, SimConfig};
use fastt_telemetry::{Collector, MemorySink};

/// Small batches per model so the suite stays fast.
mod fastt_bench_support {
    use fastt_models::Model;

    pub fn small_batch(m: Model) -> u64 {
        match m {
            Model::Transformer => 128,
            Model::BertLarge => 4,
            Model::ResNet200 => 4,
            _ => 8,
        }
    }
}

fn quick() -> SessionConfig {
    SessionConfig {
        profile_iters: 2,
        max_rounds: 3,
        ..SessionConfig::default()
    }
}

#[test]
fn every_model_completes_a_session_on_two_gpus() {
    for model in Model::all() {
        let graph = model.training_graph(small_batch(model));
        let topo = Topology::single_server(2);
        let mut session = TrainingSession::new(&graph, topo.clone(), HardwarePerf::new(), quick())
            .unwrap_or_else(|e| panic!("{model}: {e}"));
        let report = session
            .pre_train()
            .unwrap_or_else(|e| panic!("{model}: {e}"));
        assert!(
            report.final_iter_time.is_finite() && report.final_iter_time > 0.0,
            "{model}: bad iter time {}",
            report.final_iter_time
        );
        // the activated plan must be a valid deployment
        let plan = session.current_plan();
        plan.placement
            .validate(&plan.graph, &topo)
            .unwrap_or_else(|e| panic!("{model}: {e}"));
        // and actually executable
        plan.simulate(&topo, &HardwarePerf::new(), &SimConfig::default())
            .unwrap_or_else(|e| panic!("{model}: {e}"));
    }
}

#[test]
fn fastt_never_ends_worse_than_data_parallel() {
    // Rollback protection (Sec. 4): the measured per-iteration time after
    // pre-training can never materially exceed the DP start it began from.
    for model in [Model::LeNet, Model::AlexNet, Model::Rnnlm] {
        let batch = small_batch(model);
        let graph = model.training_graph(batch);
        let topo = Topology::single_server(2);
        let rep = replicate(&graph, 2).unwrap();
        let dp = data_parallel_plan(&rep, &topo);
        let dp_time = dp
            .simulate(&topo, &HardwarePerf::new(), &SimConfig::default())
            .unwrap()
            .makespan;

        let mut session = TrainingSession::new(&graph, topo, HardwarePerf::new(), quick()).unwrap();
        let report = session.pre_train().unwrap();
        assert!(
            report.final_iter_time <= dp_time * 1.10,
            "{model}: FastT {} vs DP {dp_time}",
            report.final_iter_time
        );
    }
}

#[test]
fn session_is_deterministic_for_a_seed() {
    let model = Model::AlexNet;
    let graph = model.training_graph(16);
    let run = || {
        let topo = Topology::single_server(2);
        let mut s = TrainingSession::new(&graph, topo, HardwarePerf::new(), quick()).unwrap();
        s.pre_train().unwrap().final_iter_time
    };
    assert_eq!(run(), run());
}

#[test]
fn order_enforcement_never_hurts_at_session_level() {
    // Sessions with ordering enabled must end at least as fast as sessions
    // without it (both protected by rollback).
    for model in [Model::Vgg19, Model::AlexNet] {
        let graph = model.training_graph(8);
        let topo = Topology::single_server(2);
        let with = {
            let mut s = TrainingSession::new(
                &graph,
                topo.clone(),
                HardwarePerf::new(),
                SessionConfig {
                    enable_order: true,
                    ..quick()
                },
            )
            .unwrap();
            s.pre_train().unwrap().final_iter_time
        };
        let without = {
            let mut s = TrainingSession::new(
                &graph,
                topo.clone(),
                HardwarePerf::new(),
                SessionConfig {
                    enable_order: false,
                    ..quick()
                },
            )
            .unwrap();
            s.pre_train().unwrap().final_iter_time
        };
        assert!(
            with <= without * 1.05,
            "{model}: with order {with} vs without {without}"
        );
    }
}

#[test]
fn multi_server_sessions_work() {
    let graph = Model::AlexNet.training_graph(16);
    let topo = Topology::multi_server(2, 2);
    let mut s = TrainingSession::new(&graph, topo.clone(), HardwarePerf::new(), quick()).unwrap();
    let report = s.pre_train().unwrap();
    assert!(report.final_iter_time.is_finite());
    // the DP base graph must contain the hierarchical helpers
    assert!(s
        .current_plan()
        .graph
        .iter_ops()
        .any(|(_, o)| o.name.starts_with("srv1/")));
}

#[test]
fn too_large_model_reports_no_feasible_start() {
    // A model that cannot fit even under model parallelism must produce the
    // structured NoFeasibleStart error, not a panic.
    let graph = Model::BertLarge.training_graph(128);
    let topo = Topology::single_server(1);
    let cfg = SessionConfig {
        dp_ps: Some(DeviceId(0)),
        ..quick()
    };
    match TrainingSession::new(&graph, topo, HardwarePerf::new(), cfg) {
        Err(fastt::FastTError::NoFeasibleStart { dp, mp }) => {
            assert!(dp.is_oom());
            assert!(mp.is_oom());
        }
        other => panic!("expected NoFeasibleStart, got {:?}", other.is_ok()),
    }
}

/// Runs `pre_train` on `graph` over 1x2 with an in-memory collector.
fn traced_pre_train(
    graph: &fastt_graph::Graph,
) -> (TrainingSession, fastt::PreTrainReport, Arc<MemorySink>) {
    let mut s = TrainingSession::new(
        graph,
        Topology::single_server(2),
        HardwarePerf::new(),
        quick(),
    )
    .unwrap();
    let sink = Arc::new(MemorySink::with_default_capacity());
    s.attach_collector(Arc::new(Collector::new().with_sink(sink.clone())));
    let report = s.pre_train().unwrap();
    (s, report, sink)
}

/// The events of `kind` whose `kind` field is `ring_dp`.
fn ring_dp_events(sink: &MemorySink, kind: &str) -> Vec<fastt_telemetry::Event> {
    sink.events_of(kind)
        .into_iter()
        .filter(|e| e.str_field("kind") == Some("ring_dp"))
        .collect()
}

#[test]
fn pre_train_ends_on_ring_data_parallelism_when_it_probes_faster() {
    // RNNLM at batch 8 on 1x2: no round's plan measures faster than ring
    // all-reduce DP, so the incumbent step that closes pre-training adopts
    // it and the session ends no slower than the ring plan's probe.
    let (s, report, sink) = traced_pre_train(&Model::Rnnlm.training_graph(8));
    let candidates = ring_dp_events(&sink, "session.candidate");
    assert_eq!(candidates.len(), 1, "one ring-DP candidate per session");
    let probe = candidates[0].num("probe").unwrap();
    assert!(probe < candidates[0].num("measured").unwrap());
    assert_eq!(ring_dp_events(&sink, "session.activation").len(), 1);
    assert_eq!(s.ladder_rung(), LadderRung::RingDp);
    assert!(
        s.measured_iter_time() <= probe,
        "measured {} vs ring probe {probe}",
        s.measured_iter_time()
    );
    assert_eq!(report.final_iter_time, s.measured_iter_time());
}

#[test]
fn model_parallel_start_skips_the_ring_data_parallel_step() {
    // AlexNet's batch-4096 replicas do not fit on one GPU, so the session
    // starts model-parallel, and the step, which only data-parallel starts
    // run, plans nothing.
    let (s, _, sink) = traced_pre_train(&Model::AlexNet.training_graph(4096));
    assert!(!s.started_data_parallel());
    assert!(sink
        .events_of("planner.candidate")
        .iter()
        .all(|e| e.str_field("planner") != Some("data_parallel_allreduce")));
    assert!(ring_dp_events(&sink, "session.candidate").is_empty());
    assert_ne!(s.ladder_rung(), LadderRung::RingDp);
}
