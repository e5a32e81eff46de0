//! Session decision pins: what `TrainingSession` decides — which plans it
//! activates or rolls back in `pre_train`, how it recovers from seeded
//! device, network and churn faults, how it reacts to hardware drift — and
//! what a seeded fleet run logs. The constants were recorded before the
//! session's four plan-adoption loops were folded into one re-plan path;
//! a refactor that changes any decision, or does extra probe or portfolio
//! work (the `sim.iterations` and `planner.candidates` counters), fails
//! here directly.
//!
//! The start-plan pins at the end fix what a session starts with on the
//! benchmark's session inputs, on one start data parallelism cannot host,
//! and in a fleet stream over the benchmark's paper templates. They were
//! recorded while every start still planned and probed data parallelism,
//! model parallelism and the hierarchical fallback together.

use std::sync::Arc;

use fastt::fleet::{seeded_workload, ClusterManager};
use fastt::{Plan, PlanCache, SessionConfig, TrainingSession};
use fastt_cluster::{Allocation, AllocationId, DeviceId, Topology};
use fastt_graph::build_training_graph;
use fastt_models::{stacked_transformer, Model};
use fastt_sim::{FaultSchedule, HardwarePerf};
use fastt_telemetry::{Collector, MemorySink, MetricValue};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.mix(bytes);
    h.0
}

/// FNV-1a over every op's name and assigned device, in op-id order.
fn placement_hash(plan: &Plan) -> u64 {
    let mut h = Fnv::new();
    for (op, d) in plan.placement.iter() {
        h.mix(plan.graph.op_ref(op).name.as_bytes());
        h.mix(&[0xff]);
        h.mix(&d.0.to_le_bytes());
    }
    h.0
}

/// FNV-1a over the enforced order's op ids; 0 for FIFO plans.
fn order_hash(plan: &Plan) -> u64 {
    let Some(order) = &plan.order else {
        return 0;
    };
    let mut h = Fnv::new();
    for o in order {
        h.mix(&(o.index() as u64).to_le_bytes());
    }
    h.0
}

fn counter(col: &Collector, name: &str) -> u64 {
    match col.metrics().get(name) {
        Some(MetricValue::Counter(n)) => n,
        _ => 0,
    }
}

fn config(max_rounds: u32, faults: Option<FaultSchedule>) -> SessionConfig {
    SessionConfig {
        profile_iters: 2,
        max_rounds,
        faults: faults.map(Arc::new),
        ..SessionConfig::default()
    }
}

/// `(rounds, activations, rollbacks, final_iter_time bits, placement hash,
/// order hash)` after `pre_train`.
type PreTrainSig = (u32, u32, u32, u64, u64, u64);

/// Checks the pin, and that pre-training's ring-DP incumbent step ran and
/// lost: its one candidate probed no faster than the measured time, so it
/// was never trialled and every decision above is the rounds' own.
fn check_pre_train(model: Model, batch: u64, topo: Topology, max_rounds: u32, want: PreTrainSig) {
    let g = model.training_graph(batch);
    let mut s =
        TrainingSession::new(&g, topo, HardwarePerf::new(), config(max_rounds, None)).unwrap();
    let sink = Arc::new(MemorySink::with_default_capacity());
    s.attach_collector(Arc::new(Collector::new().with_sink(sink.clone())));
    let r = s.pre_train().unwrap();
    let ring = |kind: &str| {
        sink.events_of(kind)
            .into_iter()
            .filter(|e| e.str_field("kind") == Some("ring_dp"))
            .collect::<Vec<_>>()
    };
    let candidates = ring("session.candidate");
    assert_eq!(candidates.len(), 1, "{} raced ring DP once", model.name());
    assert!(candidates[0].num("probe") >= candidates[0].num("measured"));
    assert!(ring("session.activation").is_empty() && ring("session.rollback").is_empty());
    let got = (
        r.rounds,
        r.activations,
        r.rollbacks,
        r.final_iter_time.to_bits(),
        placement_hash(s.current_plan()),
        order_hash(s.current_plan()),
    );
    assert_eq!(got, want, "{} pre_train decisions moved", model.name());
}

#[test]
fn lenet_1x2_pre_train() {
    check_pre_train(
        Model::LeNet,
        32,
        Topology::single_server(2),
        3,
        (
            3,
            3,
            0,
            4570308069536630424,
            12224796912511805964,
            11598844843410793985,
        ),
    );
}

#[test]
fn alexnet_1x2_pre_train() {
    check_pre_train(
        Model::AlexNet,
        16,
        Topology::single_server(2),
        3,
        (
            3,
            1,
            2,
            4580119431761161853,
            18196105762769350599,
            5626029164076504388,
        ),
    );
}

#[test]
fn transformer_2x2_pre_train() {
    check_pre_train(
        Model::Transformer,
        64,
        Topology::multi_server(2, 2),
        // two rounds (one activation, one rollback) keep this, the file's
        // longest pin, short
        2,
        (2, 1, 1, 4590630470783272529, 6473028792413555953, 0),
    );
}

/// `(recovery-log hash, ladder rung, measured_iter_time bits,
/// sim.iterations, planner.candidates)` after `pre_train` and `iters`
/// normal iterations of LeNet under a fault schedule. The work counters
/// include pre-training's ring-DP incumbent step: one more candidate and
/// its probe, which loses to the measured time in all three sessions.
type FaultSig = (u64, &'static str, u64, u64, u64);

/// Runs the pinned fault session and returns its event stream, for the
/// properties `report --scenario` prints about the same schedule.
fn check_faults(topo: Topology, scenario: &str, iters: u32, want: FaultSig) -> Arc<MemorySink> {
    let g = Model::LeNet.training_graph(32);
    let faults = FaultSchedule::from_scenario(scenario).unwrap();
    let mut s =
        TrainingSession::new(&g, topo, HardwarePerf::new(), config(2, Some(faults))).unwrap();
    let sink = Arc::new(MemorySink::with_default_capacity());
    let col = Arc::new(Collector::new().with_sink(sink.clone()));
    s.attach_collector(col.clone());
    s.pre_train().unwrap();
    s.train_normal(iters, 5).unwrap();
    let got = (
        fnv(format!("{:?}", s.recovery_log()).as_bytes()),
        s.ladder_rung().label(),
        s.measured_iter_time().to_bits(),
        counter(&col, "sim.iterations"),
        counter(&col, "planner.candidates"),
    );
    assert_eq!(
        got,
        want,
        "recovery decisions moved: {:?}",
        s.recovery_log()
    );
    assert_eq!(sink.dropped(), 0);
    sink
}

/// How many events of any of `kinds` the sink holds.
fn count_any(sink: &MemorySink, kinds: &[&str]) -> usize {
    sink.events()
        .iter()
        .filter(|e| kinds.contains(&e.kind.as_str()))
        .count()
}

#[test]
fn chaos_recovery() {
    let events = check_faults(
        Topology::single_server(4),
        include_str!("../../fuzz/corpus/chaos-21.fuzz"),
        25,
        (
            13788468429794968510,
            "replanned",
            4571374308066869766,
            51,
            12,
        ),
    );
    // the crash is recovered through the degradation ladder...
    assert!(count_any(&events, &["session.recovered"]) >= 1);
    // ...and every activation and rollback names its plan kind
    for e in events.events() {
        if e.kind == "session.activation" || e.kind == "session.rollback" {
            assert!(e.str_field("kind").is_some(), "unlabelled {}", e.kind);
        }
    }
}

#[test]
fn network_chaos_recovery() {
    let events = check_faults(
        Topology::multi_server(2, 2),
        include_str!("../../fuzz/corpus/netchaos-21.fuzz"),
        25,
        (
            2874121466831566243,
            "replanned",
            4570469399847067587,
            43,
            11,
        ),
    );
    // the link-health timeline has content
    let link_health = [
        "fault.link",
        "health.link_degraded",
        "health.link_restored",
        "health.link_failed",
        "session.partition",
        "session.stranded",
        "session.unreachable",
        "comm.collective_abort",
        "session.degraded_mode",
    ];
    assert!(count_any(&events, &link_health) >= 1);
}

#[test]
fn churn_recovery_and_promotion() {
    let events = check_faults(
        Topology::multi_server(2, 2),
        include_str!("../../fuzz/corpus/churn-21.fuzz"),
        40,
        (
            14936507452986110347,
            "ps_data_parallel",
            4570841181689096559,
            78,
            28,
        ),
    );
    // at least one re-plan over an enlarged survivor set...
    assert!(count_any(&events, &["session.promoted", "session.promotion_held"]) >= 1);
    // ...and the live-GPU count moves (the events `report`'s capacity
    // timeline is built from)
    assert!(count_any(&events, &["session.replan", "session.scaled_up"]) >= 1);
}

/// The drift path: AlexNet on 1x2 trains normally, then its hardware slows
/// down 50x in launch overhead. Pins both phases' average iteration times,
/// the final measured time and plan, and how many normal-stage
/// activations and rollbacks the drift re-plans produced.
#[test]
fn hardware_drift_replan() {
    let g = Model::AlexNet.training_graph(16);
    let topo = Topology::single_server(2);
    let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), config(3, None)).unwrap();
    let sink = Arc::new(MemorySink::with_default_capacity());
    s.attach_collector(Arc::new(Collector::new().with_sink(sink.clone())));
    s.pre_train().unwrap();
    let fast = s.train_normal(10, 3).unwrap();
    let mut slow_hw = HardwarePerf::new();
    slow_hw.launch_overhead *= 50.0;
    s.set_hardware(slow_hw);
    let slow = s.train_normal(10, 3).unwrap();
    let normal = |kind: &str| {
        sink.events_of(kind)
            .iter()
            .filter(|e| e.str_field("stage") == Some("normal"))
            .count()
    };
    let got = (
        fast.to_bits(),
        slow.to_bits(),
        s.measured_iter_time().to_bits(),
        placement_hash(s.current_plan()),
        order_hash(s.current_plan()),
        normal("session.activation"),
        normal("session.rollback"),
    );
    assert_eq!(
        got,
        (
            4580145010510866957,
            4586592803460895149,
            4586328727003684834,
            4576751233677563969,
            2796506122287902693,
            1,
            1,
        ),
        "drift decisions moved"
    );
}

#[test]
fn seeded_fleet_event_log() {
    let templates = vec![
        ("lenet32".to_string(), Model::LeNet.training_graph(32)),
        ("lenet16".to_string(), Model::LeNet.training_graph(16)),
    ];
    let mut fleet = ClusterManager::new(Topology::multi_server(2, 4), HardwarePerf::new(), 3);
    for spec in seeded_workload(3, &templates, 8) {
        fleet.submit(spec);
    }
    let log = fleet.run().unwrap().event_log();
    assert_eq!(
        fnv(log.as_bytes()),
        13550257718724455374,
        "fleet decisions moved:\n{log}"
    );
}

/// FNV-1a over a start plan: placement, enforced order and `est_finish`
/// bits.
fn start_hash(plan: &Plan) -> u64 {
    let mut h = Fnv::new();
    h.mix(&placement_hash(plan).to_le_bytes());
    h.mix(&order_hash(plan).to_le_bytes());
    h.mix(&plan.est_finish.to_bits().to_le_bytes());
    h.0
}

/// The benchmark's session inputs: `model` on `topo` at its per-replica
/// batch, with the parameter-server rule of the paper baselines (CNNs on
/// the host, NLP models on GPU 0).
fn start_sig(model: Model, topo: Topology) -> (bool, u64) {
    let n = topo.gpu_count() as u64;
    let batch = (model.paper_batch() / n).max(model.min_batch());
    let config = SessionConfig {
        dp_ps: (!model.is_cnn()).then_some(DeviceId(0)),
        ..SessionConfig::default()
    };
    let s = TrainingSession::new(
        &model.training_graph(batch),
        topo,
        HardwarePerf::new(),
        config,
    )
    .unwrap();
    (s.started_data_parallel(), start_hash(s.current_plan()))
}

fn check_start_plans(topo: Topology, want: &[(Model, bool, u64)]) {
    let got: Vec<(Model, bool, u64)> = want
        .iter()
        .map(|&(model, _, _)| {
            let (dp, hash) = start_sig(model, topo.clone());
            (model, dp, hash)
        })
        .collect();
    assert_eq!(got, want, "start plans moved");
}

#[test]
fn paper_1server_start_plans() {
    check_start_plans(
        Topology::multi_server(1, 4),
        &[
            (Model::AlexNet, true, 1792167710483117375),
            (Model::Vgg19, true, 11250465298657441693),
            (Model::InceptionV3, true, 3282200981617485674),
            (Model::ResNet200, true, 13397860529636395981),
            (Model::LeNet, true, 10285176723134832962),
            (Model::Transformer, true, 4495214998148436297),
            (Model::BertLarge, true, 5012977205467480295),
            (Model::Gnmt4, true, 10852785677144469965),
            (Model::Rnnlm, true, 10218121053737556769),
        ],
    );
}

#[test]
fn paper_2server_start_plans() {
    check_start_plans(
        Topology::multi_server(2, 2),
        &[
            (Model::Transformer, true, 12925154152861365302),
            (Model::Gnmt4, true, 16809705132265502015),
            (Model::Rnnlm, true, 8603166314061979641),
            (Model::InceptionV3, true, 14898252866307404958),
            (Model::Vgg19, true, 9441396215801387089),
        ],
    );
}

/// A start that data parallelism cannot host: a 32768-sample stacked
/// Transformer on a two-GPU slice of 2x4 falls back to model parallelism.
#[test]
fn data_parallel_infeasible_admission_start_plan() {
    let g = build_training_graph(&stacked_transformer(32768, 4)).unwrap();
    let shared = Topology::multi_server(2, 4);
    let alloc = Allocation::new(AllocationId(0), &shared, &[DeviceId(0), DeviceId(1)]);
    let s = TrainingSession::with_allocation(
        &g,
        alloc,
        HardwarePerf::new(),
        SessionConfig::default(),
        Arc::new(PlanCache::default()),
        None,
    )
    .unwrap();
    assert_eq!(
        (s.started_data_parallel(), start_hash(s.current_plan())),
        (false, 4475980827116120482),
        "model-parallel fallback start moved"
    );
}

/// One job stream over the fleet benchmark's eight paper templates: four
/// models, each at its per-replica batch on 2x4 and at half of it.
#[test]
fn paper_template_fleet_event_log() {
    let topo = Topology::multi_server(2, 4);
    let n = topo.gpu_count() as u64;
    let mut templates = Vec::new();
    for m in [
        Model::Transformer,
        Model::InceptionV3,
        Model::Vgg19,
        Model::Gnmt4,
    ] {
        let big = (m.paper_batch() / n).max(m.min_batch());
        for batch in [big, (big / 2).max(m.min_batch())] {
            templates.push((format!("{}@{batch}", m.name()), m.training_graph(batch)));
        }
    }
    let mut fleet = ClusterManager::new(topo, HardwarePerf::new(), 3);
    for spec in seeded_workload(3, &templates, 8) {
        fleet.submit(spec);
    }
    let log = fleet.run().unwrap().event_log();
    assert_eq!(
        fnv(log.as_bytes()),
        14470471035103837158,
        "fleet decisions moved:\n{log}"
    );
}
