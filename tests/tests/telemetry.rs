//! Cross-crate telemetry acceptance tests: a session with an attached
//! in-memory collector must surface every lifecycle stage as structured
//! events, and the drift path of normal training must be observable.

use fastt::{SessionConfig, TrainingSession};
use fastt_cluster::Topology;
use fastt_models::Model;
use fastt_sim::HardwarePerf;
use fastt_telemetry::{Collector, MemorySink, MetricValue};
use std::sync::Arc;

fn quick_config() -> SessionConfig {
    SessionConfig {
        profile_iters: 2,
        max_rounds: 3,
        ..SessionConfig::default()
    }
}

fn session_with_sink(
    model: Model,
    batch: u64,
) -> (TrainingSession, Arc<MemorySink>, Arc<Collector>) {
    let g = model.training_graph(batch);
    let topo = Topology::single_server(2);
    let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick_config()).unwrap();
    let sink = Arc::new(MemorySink::with_default_capacity());
    let col = Arc::new(Collector::new().with_sink(sink.clone()));
    s.attach_collector(col.clone());
    (s, sink, col)
}

#[test]
fn pre_train_emits_every_lifecycle_kind() {
    let (mut s, sink, col) = session_with_sink(Model::LeNet, 32);
    let report = s.pre_train().unwrap();

    // the full lifecycle is visible as events
    assert!(!sink.events_of("session.start").is_empty());
    assert!(!sink.events_of("session.round").is_empty());
    assert!(!sink.events_of("session.candidate").is_empty());
    let strategy_changes =
        sink.events_of("session.activation").len() + sink.events_of("session.rollback").len();
    assert!(
        strategy_changes >= 1,
        "at least one activation or rollback must be recorded \
         (report: {} activations, {} rollbacks)",
        report.activations,
        report.rollbacks
    );
    assert!(!sink.events_of("session.pre_train_done").is_empty());
    // the ring-DP incumbent step that closes pre-training races once
    let ring: Vec<_> = sink
        .events_of("session.candidate")
        .into_iter()
        .filter(|e| e.str_field("kind") == Some("ring_dp"))
        .collect();
    assert_eq!(ring.len(), 1, "one ring_dp candidate: {ring:?}");
    assert_eq!(ring[0].str_field("stage"), Some("pre_train"));
    assert!(ring[0].num("probe").is_some_and(f64::is_finite));
    assert!(
        !sink.events_of("cost.error").is_empty(),
        "cost models must be scored against fresh traces"
    );
    // scheduler decision traces and simulator summaries ride along
    assert!(!sink.events_of("dpos.place").is_empty());
    assert!(!sink.events_of("sim.iteration").is_empty());

    // events counts match the report
    assert_eq!(
        sink.events_of("session.activation").len(),
        report.activations as usize
    );
    assert_eq!(
        sink.events_of("session.rollback").len(),
        report.rollbacks as usize
    );
    assert_eq!(
        sink.events_of("session.round").len(),
        report.rounds as usize
    );

    // the metrics registry accumulated alongside
    assert!(matches!(
        col.metrics().get("sim.iterations"),
        Some(MetricValue::Counter(n)) if n > 0
    ));
    assert!(matches!(
        col.metrics().get("cost.mape"),
        Some(MetricValue::Gauge(g)) if g.is_finite()
    ));
    assert!(matches!(
        col.metrics().get("dpos.ops_placed"),
        Some(MetricValue::Counter(n)) if n > 0
    ));
}

#[test]
fn pre_train_builds_profile_tree_and_per_planner_latency() {
    let (mut s, _sink, col) = session_with_sink(Model::LeNet, 32);
    s.pre_train().unwrap();

    // The instrumented hot paths rolled up into a profile tree: the
    // portfolio fan-out on the main thread, each planner's plan phase
    // (with DPOS's inner phases nested under it) on its worker thread.
    let paths: Vec<String> = col
        .profiler()
        .snapshot()
        .into_iter()
        .map(|e| e.path)
        .collect();
    assert!(
        paths.iter().any(|p| p == "portfolio"),
        "portfolio phase missing: {paths:?}"
    );
    assert!(
        paths.iter().any(|p| p == "portfolio > cache_pass"),
        "cache_pass phase missing: {paths:?}"
    );
    assert!(
        paths
            .iter()
            .any(|p| p.starts_with("plan > ") && p.ends_with("dpos.place > eft_scan")),
        "nested DPOS phases missing: {paths:?}"
    );
    assert!(
        paths.iter().any(|p| p.contains("sim.event_loop")),
        "simulator phases missing: {paths:?}"
    );

    // planner.latency is recorded both in aggregate and per planner name,
    // in fine (sub-µs-capable) buckets.
    let Some(MetricValue::Histogram(agg)) = col.metrics().get("planner.latency") else {
        panic!("planner.latency histogram missing");
    };
    assert!(agg.count > 0);
    assert_eq!(agg.bounds[0], 1e-8, "fine buckets start at 10ns");
    let per: Vec<(String, u64)> = col
        .metrics()
        .snapshot()
        .into_iter()
        .filter_map(|(k, v)| match v {
            MetricValue::Histogram(h) if k.starts_with("planner.latency.") => Some((k, h.count)),
            _ => None,
        })
        .collect();
    assert!(
        !per.is_empty(),
        "per-planner latency series missing: {:?}",
        col.metrics()
            .snapshot()
            .iter()
            .map(|(k, _)| k)
            .collect::<Vec<_>>()
    );
    let total: u64 = per.iter().map(|(_, c)| c).sum();
    assert_eq!(
        total, agg.count,
        "per-planner series partition the aggregate"
    );

    // The ROADMAP planner.latency SLO is gradeable from this registry.
    let verdicts = fastt_telemetry::evaluate_slos(&fastt::default_slos(), col.metrics());
    assert!(verdicts
        .iter()
        .any(|v| v.slo == "planner.latency.p95" && v.grade != fastt_telemetry::SloGrade::NoData));
}

#[test]
fn dpos_place_events_record_considered_devices() {
    let (mut s, sink, _col) = session_with_sink(Model::LeNet, 32);
    s.pre_train().unwrap();
    let places = sink.events_of("dpos.place");
    // at least one decision considered multiple devices and scored each
    let multi = places
        .iter()
        .find(|e| {
            e.field("considered")
                .as_array()
                .is_some_and(|a| a.len() > 1)
        })
        .expect("some op must have had a real device choice");
    let considered = multi.field("considered").as_array().unwrap();
    for c in considered {
        assert!(c["device"].as_u64().is_some());
        assert!(c["eft"].as_f64().is_some());
    }
    // the chosen device is among the considered ones, with the best score
    let chosen = multi.field("device").as_u64().unwrap();
    let best = considered
        .iter()
        .min_by(|a, b| {
            a["eft"]
                .as_f64()
                .unwrap()
                .total_cmp(&b["eft"].as_f64().unwrap())
        })
        .unwrap();
    assert_eq!(best["device"].as_u64().unwrap(), chosen);
}

#[test]
fn hardware_drift_is_detected_and_recomputation_observable() {
    // Slow the hardware down mid-run: the periodic re-profiler must emit a
    // drift event and follow up with a candidate recomputation.
    let (mut s, sink, col) = session_with_sink(Model::AlexNet, 16);
    s.pre_train().unwrap();
    s.train_normal(10, 3).unwrap();
    let counter = |name: &str| match col.metrics().get(name) {
        Some(MetricValue::Counter(n)) => n,
        _ => 0,
    };
    let (activations_before, rollbacks_before) =
        (counter("session.activations"), counter("session.rollbacks"));
    sink.clear();

    let mut slow_hw = HardwarePerf::new();
    slow_hw.launch_overhead *= 50.0;
    s.set_hardware(slow_hw);
    s.train_normal(10, 3).unwrap();

    let drifts = sink.events_of("session.drift");
    assert!(
        !drifts.is_empty(),
        "a 50x launch-overhead change must trip the drift detector"
    );
    let d = &drifts[0];
    let drift = d.num("drift").unwrap();
    let eps = d.num("eps").unwrap();
    assert!(
        drift > eps,
        "reported drift {drift} must exceed the threshold {eps}"
    );
    // drift triggers a strategy recomputation, visible as a fresh candidate
    let candidates = sink.events_of("session.candidate");
    assert!(
        !candidates.is_empty(),
        "drift must be followed by a recomputed candidate"
    );
    assert!(candidates
        .iter()
        .any(|e| e.str_field("stage") == Some("normal")));
    // and the drift event precedes the candidate it caused
    assert!(drifts[0].seq < candidates[0].seq);

    // Normal-stage strategy changes are counted and labelled exactly like
    // pre-training ones, so `report` can render every one of them.
    let activations = sink.events_of("session.activation");
    let rollbacks = sink.events_of("session.rollback");
    assert!(
        activations
            .iter()
            .chain(&rollbacks)
            .any(|e| e.str_field("stage") == Some("normal")),
        "the drift re-plan must activate or roll back a candidate"
    );
    assert_eq!(
        counter("session.activations") - activations_before,
        activations.len() as u64
    );
    assert_eq!(
        counter("session.rollbacks") - rollbacks_before,
        rollbacks.len() as u64
    );
    for e in activations.iter().chain(&rollbacks) {
        assert!(
            e.str_field("kind").is_some(),
            "{} without a kind: {:?}",
            e.kind,
            e.fields
        );
    }
}
