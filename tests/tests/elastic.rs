//! Cross-crate elastic-lifecycle tests: spot revocations with a notice
//! window must be drained proactively (no crash recovery, no retries),
//! departed devices must come back through explicit re-admission and
//! quarantine, and restored capacity must climb the promotion ladder —
//! adopting the enlarged plan only when its probed per-replica time beats
//! the incumbent's — all deterministically for a fixed seed.

use std::sync::Arc;

use fastt::{LadderRung, Plan, PlanCache, RecoveryEvent, SessionConfig, TrainingSession};
use fastt_cluster::{Allocation, DeviceId, Topology};
use fastt_graph::build_training_graph;
use fastt_models::{stacked_transformer, Model};
use fastt_sim::{
    Fault, FaultKind, FaultSchedule, HardwarePerf, LifecycleEvent, LifecycleKind, SimConfig,
};
use fastt_telemetry::{Collector, Event, MemorySink};

const D1: DeviceId = DeviceId(1);

fn quick(faults: FaultSchedule) -> SessionConfig {
    SessionConfig {
        profile_iters: 2,
        max_rounds: 2,
        faults: Some(Arc::new(faults)),
        ..SessionConfig::default()
    }
}

/// Steps the session forward until it has executed `target` iterations.
fn run_to(s: &mut TrainingSession, target: u64) {
    while s.iterations_run() < target {
        s.train_normal(1, 1).unwrap();
    }
}

/// Data-parallel replica count encoded in a plan's graph (`repN/...` op
/// names); per-iteration work scales with it, so probed makespans are only
/// comparable per replica.
fn replicas(plan: &Plan) -> usize {
    plan.graph
        .op_ids()
        .filter_map(|id| {
            let name = &plan.graph.op_ref(id).name;
            let rest = name.strip_prefix("rep")?;
            rest[..rest.find('/')?].parse::<usize>().ok()
        })
        .max()
        .map(|n| n + 1)
        .unwrap_or(1)
}

/// The acceptance scenario: a 2-server cluster loses a GPU to a spot
/// revocation and recovers it through a `DeviceArrival`. The session must
/// drain proactively (zero crash recovery for the revoked device), walk
/// the device through quarantine, and *provably* promote — the
/// post-scale-up plan's probed per-replica time beats the degraded plan's
/// on the restored topology, and the plan actually uses the device again.
#[test]
fn spot_revocation_then_arrival_promotes_back_up() {
    let g = Model::LeNet.training_graph(32);
    let faults = FaultSchedule::none()
        .with_lifecycle(LifecycleEvent::at(
            LifecycleKind::SpotRevocation {
                device: D1,
                notice_iters: 4,
            },
            30,
        ))
        .with_lifecycle(LifecycleEvent::at(
            LifecycleKind::DeviceArrival { device: D1 },
            44,
        ));
    let mut s = TrainingSession::new(
        &g,
        Topology::multi_server(2, 2),
        HardwarePerf::new(),
        quick(faults),
    )
    .unwrap();
    s.pre_train().unwrap();
    assert!(
        s.iterations_run() < 30,
        "pre-training must end before the scripted revocation"
    );

    // Phase 1: past the drain deadline, short of the arrival.
    run_to(&mut s, 40);
    assert!(s.topology().is_failed(D1), "revoked device must be drained");
    assert!(s
        .recovery_log()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::RevocationNotice { device: D1, .. })));
    assert!(s
        .recovery_log()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Drained { device: D1, .. })));
    let degraded = s.current_plan().clone();
    assert!(
        !degraded.placement.devices_used().contains(&D1),
        "the degraded plan must not use the drained device"
    );

    // Phase 2: arrival, quarantine, restore, promotion.
    run_to(&mut s, 60);
    assert!(!s.topology().is_failed(D1), "device must be restored");
    assert!(s
        .recovery_log()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Readmitted { device: D1, .. })));
    assert!(s
        .recovery_log()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Restored { device: D1, .. })));
    assert!(
        s.recovery_log()
            .iter()
            .any(|e| matches!(e, RecoveryEvent::Promoted { survivors: 4, .. })),
        "restored capacity must promote over the full survivor set: {:?}",
        s.recovery_log()
    );
    let promoted = s.current_plan();
    assert!(
        promoted.placement.devices_used().contains(&D1),
        "the promoted plan must use the restored device"
    );

    // Provably better: probe both plans over the restored topology and
    // compare per-replica (a 4-replica plan does more work per iteration
    // than a 3-replica one, so raw makespans are not comparable).
    let probe = SimConfig::default();
    let hw = HardwarePerf::new();
    let d = degraded
        .simulate(s.topology(), &hw, &probe)
        .unwrap()
        .makespan
        / replicas(&degraded) as f64;
    let p = promoted
        .simulate(s.topology(), &hw, &probe)
        .unwrap()
        .makespan
        / replicas(promoted) as f64;
    assert!(
        p < d,
        "promoted per-replica time {p} must beat degraded {d}"
    );

    // The proactive drain means the revoked device never took the crash
    // path: no retries, no blacklisting-by-failure.
    assert!(!s.recovery_log().iter().any(|e| matches!(
        e,
        RecoveryEvent::Retry { device: D1, .. } | RecoveryEvent::DeviceFailed { device: D1, .. }
    )));
}

/// A notice window at least as long as the drain cost must re-plan
/// proactively: the revoked device sees **zero** crash-recovery retries
/// and is never blacklisted reactively — the drain beat the deadline.
#[test]
fn revocation_notice_drains_proactively_without_retries() {
    let g = Model::LeNet.training_graph(32);
    let faults = FaultSchedule::none().with_lifecycle(LifecycleEvent::at(
        LifecycleKind::SpotRevocation {
            device: D1,
            notice_iters: 3,
        },
        10,
    ));
    let mut s = TrainingSession::new(
        &g,
        Topology::single_server(4),
        HardwarePerf::new(),
        quick(faults),
    )
    .unwrap();
    s.pre_train().unwrap();
    run_to(&mut s, 30); // far past the deadline at iteration 13
    assert!(s
        .recovery_log()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Drained { device: D1, .. })));
    assert_eq!(
        s.recovery_log()
            .iter()
            .filter(|e| matches!(
                e,
                RecoveryEvent::Retry { device: D1, .. }
                    | RecoveryEvent::DeviceFailed { device: D1, .. }
            ))
            .count(),
        0,
        "a drained device must never enter crash recovery: {:?}",
        s.recovery_log()
    );
    assert!(s.topology().gpu_count() >= 3);
}

/// Runs the seed-21 churn scenario and returns its recovery log,
/// debug-formatted.
fn churn_log(with_partition: bool) -> String {
    let g = Model::LeNet.training_graph(32);
    let mut faults =
        FaultSchedule::from_scenario(include_str!("../../fuzz/corpus/churn-21.fuzz")).unwrap();
    if with_partition {
        faults = faults.with(Fault::windowed(
            FaultKind::HostPartition { server: 1 },
            52,
            54,
        ));
    }
    let mut s = TrainingSession::new(
        &g,
        Topology::multi_server(2, 2),
        HardwarePerf::new(),
        quick(faults),
    )
    .unwrap();
    s.pre_train().unwrap();
    run_to(&mut s, 60);
    format!("{:?}", s.recovery_log())
}

/// Same seed ⇒ byte-identical recovery logs, for a pure churn schedule and
/// for churn mixed with a host partition (arrival + revocation + partition
/// interleaved). The oscillating schedule must actually exercise the
/// elastic path, not vacuously pass on an empty log.
#[test]
fn same_seed_churn_recovery_logs_are_byte_identical() {
    for with_partition in [false, true] {
        let a = churn_log(with_partition);
        let b = churn_log(with_partition);
        assert_eq!(
            a, b,
            "same-seed recovery logs must be byte-identical (partition={with_partition})"
        );
        assert!(
            a.contains("RevocationNotice"),
            "churn must revoke at least one device (partition={with_partition}): {a}"
        );
        assert!(
            a.contains("Readmitted"),
            "churn must re-admit at least one device (partition={with_partition}): {a}"
        );
    }
}

/// `(planner, probed)` for each arbitrated candidate, sorted.
type Raced = Vec<(String, bool)>;

/// The [`Raced`] candidates of every `planner.candidate` event in `events`.
fn candidates(events: &[Event]) -> Raced {
    let mut raced: Raced = events
        .iter()
        .filter(|e| e.kind == "planner.candidate")
        .map(|e| {
            let planner = e.str_field("planner").unwrap_or_default().to_string();
            (planner, e.num("simulated").is_some_and(f64::is_finite))
        })
        .collect();
    raced.sort();
    raced
}

/// Starts a traced session of `graph` on all of `topo`, releases `lost`,
/// and returns the start's candidates, the survivor ladder's candidates
/// and the session.
fn release_one(
    graph: &fastt_graph::Graph,
    topo: Topology,
    lost: DeviceId,
) -> (Raced, Raced, TrainingSession) {
    let sink = Arc::new(MemorySink::with_default_capacity());
    let mut s = TrainingSession::with_allocation(
        graph,
        Allocation::whole(&topo),
        HardwarePerf::new(),
        SessionConfig::default(),
        Arc::new(PlanCache::default()),
        Some(Arc::new(Collector::new().with_sink(sink.clone()))),
    )
    .unwrap();
    let started = sink.events().len();
    s.release_devices(&[lost]).unwrap();
    let events = sink.events();
    let (start, ladder) = events.split_at(started);
    (candidates(start), candidates(ladder), s)
}

/// The survivor ladder races OS-DPOS and both DP modes; the hierarchical
/// planner joins when the survivors span servers or DP no longer fits, and
/// model parallelism when DP no longer fits. Every session recovers.
#[test]
fn survivor_ladder_races_hierarchical_only_across_servers_or_without_dp() {
    let lenet = Model::LeNet.training_graph(32);
    let too_big = build_training_graph(&stacked_transformer(32768, 4)).unwrap();
    let cases = [
        (&lenet, Topology::single_server(4), &[][..]),
        (&lenet, Topology::multi_server(2, 2), &["hierarchical"][..]),
        (
            &too_big,
            Topology::single_server(4),
            &["hierarchical", "model_parallel"][..],
        ),
    ];
    for (graph, topo, extra) in cases {
        let (_, ladder, s) = release_one(graph, topo, DeviceId(3));
        let mut want = vec!["data_parallel", "data_parallel_allreduce", "os_dpos"];
        want.extend(extra);
        want.sort();
        let raced: Vec<&str> = ladder.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(raced, want);
        assert!(
            s.recovery_log()
                .iter()
                .any(|e| matches!(e, RecoveryEvent::Replanned { survivors: 3, .. })),
            "{:?}",
            s.recovery_log()
        );
    }
}

/// A session that could only start on the hierarchical fallback (neither
/// DP nor model parallelism fits) recovers from a device loss through the
/// hierarchical rung: it is the only survivor candidate that fits.
#[test]
fn hierarchical_started_session_recovers_through_the_hierarchical_rung() {
    let g = build_training_graph(&stacked_transformer(57344, 8)).unwrap();
    let (start, ladder, s) = release_one(&g, Topology::single_server(6), DeviceId(5));
    assert_eq!(
        start,
        [
            ("data_parallel".to_string(), false),
            ("hierarchical".to_string(), true),
            ("model_parallel".to_string(), false),
        ]
    );
    let probed: Vec<&str> = ladder
        .iter()
        .filter(|(_, ok)| *ok)
        .map(|(p, _)| p.as_str())
        .collect();
    assert_eq!(probed, ["hierarchical"]);
    assert_eq!(s.ladder_rung(), LadderRung::Replanned);
    assert!(
        s.recovery_log()
            .iter()
            .any(|e| matches!(e, RecoveryEvent::Replanned { survivors: 5, .. })),
        "{:?}",
        s.recovery_log()
    );
}
