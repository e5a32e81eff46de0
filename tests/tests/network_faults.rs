//! Cross-crate network-fault tests: scripted link flaps, host partitions,
//! collective stragglers, and NIC degradation in the simulator must drive
//! the session's link-health detection → blacklist → re-route → degradation
//! ladder, deterministically and without deadlocks.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fastt::{
    data_parallel_plan, FastTError, RecoveryEvent, SessionConfig, TrainingSession,
    DEGRADED_SLOWDOWN,
};
use fastt_cluster::{DeviceId, Topology};
use fastt_graph::{replicate_grouped, ReplicationMode};
use fastt_models::Model;
use fastt_sim::{Fault, FaultKind, FaultSchedule, HardwarePerf, SimConfig, SimError};

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

/// The acceptance scenario: a host partition mid-training on a 2×2 cluster.
/// The session must detect the partition timeout, blacklist the unreachable
/// server's devices, step down the degradation ladder, and keep training on
/// the surviving server.
#[test]
fn host_partition_mid_training_degrades_and_completes() {
    let g = Model::LeNet.training_graph(32);
    let topo = Topology::multi_server(2, 2);
    let faults =
        FaultSchedule::none().with(Fault::from(FaultKind::HostPartition { server: 1 }, 10));
    let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick(faults)).unwrap();
    s.pre_train().unwrap();
    let avg = s.train_normal(20, 5).unwrap();
    assert!(avg.is_finite() && avg > 0.0);

    // the partition was detected and every device of server 1 blacklisted
    assert!(s
        .recovery_log()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Partitioned { server: 1, .. })));
    let topo_now = s.topology();
    assert_eq!(topo_now.gpu_count(), 2, "only server 0's GPUs survive");
    for d in topo_now.device_ids() {
        assert_eq!(
            topo_now.is_failed(d),
            topo_now.server_of(d) == 1,
            "exactly server 1's devices must be blacklisted (device {d:?})"
        );
    }
    assert!(s
        .recovery_log()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Replanned { survivors: 2, .. })));
    assert!(s
        .recovery_log()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Recovered { .. })));

    // the active plan never touches the partitioned server
    let plan = s.current_plan();
    plan.placement.validate(&plan.graph, topo_now).unwrap();
    for d in plan.placement.devices_used() {
        assert_eq!(topo_now.server_of(d), 0);
    }
}

/// Same-seed determinism of the acceptance scenario: the whole recovery log
/// — every partition, blacklist, re-plan, and degradation decision — must
/// replay byte-identically across two runs.
#[test]
fn partition_recovery_log_is_byte_identical_across_same_seed_runs() {
    let run = || {
        let g = Model::LeNet.training_graph(32);
        let topo = Topology::multi_server(2, 2);
        let faults =
            FaultSchedule::from_scenario(include_str!("../../fuzz/corpus/netchaos-21.fuzz"))
                .unwrap();
        let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick(faults)).unwrap();
        s.pre_train().unwrap();
        s.train_normal(25, 5).unwrap();
        (
            format!("{:?}", s.recovery_log()),
            s.measured_iter_time(),
            s.iterations_run(),
            s.topology().failed_devices(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "recovery logs must replay byte-identically");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
    assert!(
        !a.0.is_empty() && a.0 != "[]",
        "the seeded network-chaos scenario should exercise recovery"
    );
}

/// A ring collective whose participant sits behind a partition must abort
/// with a typed error within the transfer deadline — not hang waiting for a
/// rank that will never answer.
#[test]
fn ring_collective_with_partitioned_participant_aborts_typed() {
    let g = Model::LeNet.training_graph(32);
    let topo = Topology::multi_server(2, 2);
    let groups: Vec<u16> = topo.gpu_ids().map(|d| topo.server_of(d)).collect();
    let rep = replicate_grouped(&g, &groups, ReplicationMode::AllReduce).unwrap();
    let plan = data_parallel_plan(&rep, &topo);
    let cfg = SimConfig {
        faults: Some(Arc::new(
            FaultSchedule::none().with(Fault::from(FaultKind::HostPartition { server: 1 }, 0)),
        )),
        ..SimConfig::default()
    };
    let t0 = Instant::now();
    let err = plan
        .simulate(&topo, &HardwarePerf::new(), &cfg)
        .expect_err("a ring spanning a partitioned server cannot complete");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "the abort must be prompt, not a hang"
    );
    assert!(
        matches!(err, SimError::PartitionTimeout { server: 1, .. }),
        "expected PartitionTimeout, got {err}"
    );
}

/// Satellite: overlapping device and link faults. A GPU crash and a later
/// permanent link flap must both be absorbed, and the recovery log must
/// record them in fault order — deterministically across same-seed runs.
#[test]
fn overlapping_device_and_link_faults_recover_in_deterministic_order() {
    let run = || {
        let g = Model::LeNet.training_graph(32);
        let topo = Topology::multi_server(2, 2);
        let h0 = topo.host_of(0).unwrap();
        let h1 = topo.host_of(1).unwrap();
        let faults = FaultSchedule::none()
            .with(Fault::from(FaultKind::Crash { device: D1 }, 8))
            .with(Fault::from(
                FaultKind::LinkFlap {
                    src: h0,
                    dst: h1,
                    prob: 1.0,
                },
                16,
            ));
        let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick(faults)).unwrap();
        s.pre_train().unwrap();
        s.train_normal(25, 5).unwrap();
        (s.recovery_log().to_vec(), s.topology().failed_links())
    };
    let (log, failed_links) = run();
    let (log2, failed_links2) = run();
    assert_eq!(log, log2, "recovery logs must replay identically");
    assert_eq!(failed_links, failed_links2);

    let crash_at = log
        .iter()
        .position(|e| matches!(e, RecoveryEvent::DeviceFailed { device, .. } if *device == D1))
        .expect("the crashed GPU must be blacklisted");
    let link_at = log
        .iter()
        .position(|e| matches!(e, RecoveryEvent::LinkFailed { .. }))
        .expect("the permanently flapping link must be blacklisted");
    assert!(
        crash_at < link_at,
        "the iteration-8 crash must be logged before the iteration-16 link death"
    );
    assert!(log
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Recovered { .. })));
    assert!(
        !failed_links.is_empty(),
        "the dead hop must be recorded in the topology's link blacklist"
    );
}

/// NIC degradation stretches inter-server hop times; the session's
/// link-health detector must flag the slow hops, re-seed pessimistic cost
/// priors for exactly those pairs, and keep training.
#[test]
fn nic_degradation_flags_links_and_reseeds_pessimistic_priors() {
    let g = Model::LeNet.training_graph(32);
    let topo = Topology::multi_server(2, 2);
    let faults = FaultSchedule::none().with(Fault::from(
        FaultKind::NicDegrade {
            server: 1,
            factor: 8.0,
        },
        2,
    ));
    let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick(faults)).unwrap();
    s.pre_train().unwrap();
    let avg = s.train_normal(10, 5).unwrap();
    assert!(avg.is_finite() && avg > 0.0);

    let degraded: Vec<_> = s
        .recovery_log()
        .iter()
        .filter_map(|e| match e {
            RecoveryEvent::LinkDegraded { src, dst, slowdown } => Some((*src, *dst, *slowdown)),
            _ => None,
        })
        .collect();
    assert!(
        !degraded.is_empty(),
        "an 8x NIC slowdown must trip the link-health detector"
    );
    for (src, dst, slowdown) in &degraded {
        assert!(
            *slowdown >= DEGRADED_SLOWDOWN,
            "flagged hop {src:?}->{dst:?} at only {slowdown}x"
        );
        // every flagged hop crosses into the degraded server
        let topo_now = s.topology();
        assert!(
            topo_now.server_of(*src) == 1 || topo_now.server_of(*dst) == 1,
            "hop {src:?}->{dst:?} does not touch the degraded server"
        );
    }
    // no devices were blacklisted — degradation re-prices, it does not kill
    assert_eq!(s.topology().failed_devices(), vec![]);
}

/// Losing one server to a partition and then every surviving GPU to crashes
/// must end in the typed dead-end error, not a loop or panic.
#[test]
fn partition_then_crashes_exhaust_the_cluster_typed() {
    let g = Model::LeNet.training_graph(32);
    let topo = Topology::multi_server(2, 2);
    let faults = FaultSchedule::none()
        .with(Fault::from(FaultKind::HostPartition { server: 1 }, 4))
        .with(Fault::from(FaultKind::Crash { device: D0 }, 8))
        .with(Fault::from(FaultKind::Crash { device: D1 }, 10));
    let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), quick(faults)).unwrap();
    let err = s.train_normal(30, 5).unwrap_err();
    assert!(
        matches!(err, FastTError::ClusterExhausted),
        "expected ClusterExhausted, got {err}"
    );
    assert!(s
        .recovery_log()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Partitioned { server: 1, .. })));
}
