//! Cross-crate fault-tolerance tests: scripted infrastructure faults in the
//! simulator must drive the session's detection → blacklist → re-plan →
//! degrade machinery, deterministically.

use std::sync::Arc;

use fastt::{FastTError, RecoveryEvent, SessionConfig, TrainingSession};
use fastt_cluster::{DeviceId, Topology};
use fastt_models::Model;
use fastt_sim::{Fault, FaultKind, FaultSchedule, HardwarePerf};

const D0: DeviceId = DeviceId(0);
const D1: DeviceId = DeviceId(1);

fn quick(faults: FaultSchedule) -> SessionConfig {
    SessionConfig {
        profile_iters: 2,
        max_rounds: 2,
        faults: Some(Arc::new(faults)),
        ..SessionConfig::default()
    }
}

#[test]
fn device_crash_mid_training_blacklists_and_replans() {
    let g = Model::LeNet.training_graph(32);
    let topo = Topology::single_server(4);
    let faults = FaultSchedule::none().with(Fault::from(FaultKind::Crash { device: D1 }, 8));
    let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick(faults)).unwrap();
    s.pre_train().unwrap();
    let avg = s.train_normal(20, 5).unwrap();
    assert!(avg.is_finite() && avg > 0.0);

    // the dead device is blacklisted, the cluster shrank, training went on
    assert!(s.topology().is_failed(D1));
    assert_eq!(s.topology().gpu_count(), 3);
    assert!(s
        .recovery_log()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::DeviceFailed { device, .. } if *device == D1)));
    assert!(s
        .recovery_log()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Replanned { survivors: 3, .. })));
    assert!(s
        .recovery_log()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Recovered { .. })));

    // the active plan is valid over the surviving topology (validation
    // rejects any op on a failed device) and never touches the dead GPU
    let plan = s.current_plan();
    plan.placement.validate(&plan.graph, s.topology()).unwrap();
    assert!(!plan.placement.devices_used().contains(&D1));
}

#[test]
fn recovery_decisions_are_deterministic() {
    let run = || {
        let g = Model::LeNet.training_graph(32);
        let topo = Topology::single_server(4);
        let faults =
            FaultSchedule::from_scenario(include_str!("../../fuzz/corpus/chaos-21.fuzz")).unwrap();
        let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick(faults)).unwrap();
        s.pre_train().unwrap();
        s.train_normal(25, 5).unwrap();
        (
            s.recovery_log().to_vec(),
            s.measured_iter_time(),
            s.iterations_run(),
            s.topology().failed_devices(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "recovery logs must replay identically");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
    assert!(
        !a.0.is_empty(),
        "the seeded chaos scenario should exercise recovery"
    );
}

#[test]
fn transient_profile_failures_are_retried_not_fatal() {
    let g = Model::LeNet.training_graph(32);
    let topo = Topology::single_server(2);
    let faults = FaultSchedule::none().with(Fault::windowed(
        FaultKind::ProfileFailure {
            device: D0,
            fail_attempts: 2,
        },
        0,
        100,
    ));
    let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick(faults)).unwrap();
    let avg = s.profile(3).unwrap();
    assert!(avg.is_finite() && avg > 0.0);
    let retries = s
        .recovery_log()
        .iter()
        .filter(|e| matches!(e, RecoveryEvent::Retry { .. }))
        .count();
    assert!(retries >= 2, "each iteration needs 2 retried attempts");
    assert!(
        !s.recovery_log()
            .iter()
            .any(|e| matches!(e, RecoveryEvent::DeviceFailed { .. })),
        "a transient hiccup within the budget must not blacklist"
    );
    assert_eq!(s.topology().failed_devices(), vec![]);
}

#[test]
fn profile_failure_past_the_retry_budget_blacklists_instead_of_looping() {
    // A profile-failure fault whose threshold exceeds the retry budget used
    // to live-lock the session: the device was blacklisted, re-planning
    // moved the work, but the still-active fault re-failed every subsequent
    // run with the attempt counter reset. The fault must go inert once its
    // device is out of the placement.
    let g = Model::LeNet.training_graph(32);
    let topo = Topology::single_server(2);
    let faults = FaultSchedule::none().with(Fault::from(
        FaultKind::ProfileFailure {
            device: D1,
            fail_attempts: u32::MAX - 1,
        },
        0,
    ));
    let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick(faults)).unwrap();
    let avg = s.train_normal(10, 5).unwrap();
    assert!(avg.is_finite() && avg > 0.0);
    assert!(s.topology().is_failed(D1));
    assert!(s
        .recovery_log()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::DeviceFailed { device, .. } if *device == D1)));
    assert!(s
        .recovery_log()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Recovered { .. })));
    let plan = s.current_plan();
    plan.placement.validate(&plan.graph, s.topology()).unwrap();
    assert!(!plan.placement.devices_used().contains(&D1));
}

#[test]
fn losing_every_gpu_is_a_typed_dead_end() {
    let g = Model::LeNet.training_graph(32);
    let topo = Topology::single_server(2);
    let faults = FaultSchedule::none()
        .with(Fault::from(FaultKind::Crash { device: D0 }, 3))
        .with(Fault::from(FaultKind::Crash { device: D1 }, 4));
    let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick(faults)).unwrap();
    let err = s.train_normal(20, 5).unwrap_err();
    assert!(
        matches!(err, FastTError::ClusterExhausted),
        "expected ClusterExhausted, got {err}"
    );
}

#[test]
fn degenerate_arguments_are_typed_errors_not_nan() {
    let g = Model::LeNet.training_graph(32);
    let topo = Topology::single_server(2);
    let mut s = TrainingSession::new(
        &g,
        topo,
        HardwarePerf::new(),
        SessionConfig {
            profile_iters: 2,
            max_rounds: 2,
            ..SessionConfig::default()
        },
    )
    .unwrap();
    assert!(matches!(s.profile(0), Err(FastTError::InvalidArgument(_))));
    assert!(matches!(
        s.train_normal(0, 5),
        Err(FastTError::InvalidArgument(_))
    ));
    assert!(matches!(
        s.train_normal(5, 0),
        Err(FastTError::InvalidArgument(_))
    ));
    // and a well-formed call still works afterwards
    assert!(s.profile(1).unwrap().is_finite());
}
