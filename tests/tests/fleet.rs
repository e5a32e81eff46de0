//! Multi-tenant fleet integration: the ClusterManager scheduling a seeded
//! arrival workload over one shared topology, allocation-scoped sessions
//! racing on the shared plan cache, and preemption leaving every survivor
//! with a valid plan on disjoint devices.

use fastt::fleet::{seeded_workload, ClusterManager, FleetEvent, JobSpec};
use fastt::{LadderRung, SessionConfig, TrainingSession};
use fastt_cluster::{Allocation, AllocationId, DeviceId, Topology};
use fastt_models::Model;
use fastt_sim::HardwarePerf;
use std::collections::BTreeSet;
use std::sync::Arc;

fn templates() -> Vec<(String, fastt_graph::Graph)> {
    vec![
        ("lenet32".to_string(), Model::LeNet.training_graph(32)),
        ("lenet16".to_string(), Model::LeNet.training_graph(16)),
    ]
}

fn run_fleet(seed: u64) -> fastt::FleetReport {
    let topo = Topology::multi_server(2, 4);
    let mut fleet = ClusterManager::new(topo, HardwarePerf::new(), seed);
    for spec in seeded_workload(seed, &templates(), 8) {
        fleet.submit(spec);
    }
    fleet.run().unwrap()
}

#[test]
fn seeded_fleet_overlaps_three_jobs_on_one_topology() {
    let report = run_fleet(21);
    assert!(
        report.max_concurrent >= 3,
        "want >=3 overlapping jobs, got {}",
        report.max_concurrent
    );
    assert_eq!(report.deadlocks, 0);
    assert_eq!(report.jobs.len(), 5, "every submitted job departs");
    assert!(report.preemptions >= 1, "burst job must preempt");
    assert!(!report.utilization.is_empty());
    // The workload is shaped so the cluster saturates at the burst.
    assert!(
        report
            .utilization
            .iter()
            .any(|(_, busy, total)| busy == total),
        "the burst should fill the cluster"
    );
}

#[test]
fn same_seed_fleet_logs_are_byte_identical() {
    let a = run_fleet(21).event_log();
    let b = run_fleet(21).event_log();
    assert_eq!(a, b, "same-seed fleet runs must render identical logs");
    let c = run_fleet(22).event_log();
    assert_ne!(a, c, "different seeds must perturb the schedule");
}

/// Pinned: a job arriving with a model + allocation shape a sibling
/// already planned is served from the shared cache with zero planner
/// evaluations — the admission portfolio only performs lookups.
#[test]
fn twin_job_admission_is_a_pure_cache_hit() {
    let shared = Topology::multi_server(2, 4);
    let graph = Model::LeNet.training_graph(32);
    let cache = Arc::new(fastt::PlanCache::default());
    let config = |salt: u64| SessionConfig {
        profile_iters: 1,
        max_rounds: 2,
        cache_salt: salt,
        ..SessionConfig::default()
    };

    // Job 1 on server 0's first two GPUs: populates the cache.
    let alloc1 = Allocation::new(AllocationId(0), &shared, &[DeviceId(1), DeviceId(2)]);
    let s1 = TrainingSession::with_allocation(
        &graph,
        alloc1,
        HardwarePerf::new(),
        config(11),
        cache.clone(),
        None,
    )
    .unwrap();
    let hits_after_first = cache.hits();
    let misses_after_first = cache.misses();
    assert!(misses_after_first > 0, "first admission must plan for real");

    // Job 2 on server 1's first two GPUs: same model, same allocation
    // shape (twin slice), different raw device ids.
    let alloc2 = Allocation::new(AllocationId(1), &shared, &[DeviceId(6), DeviceId(7)]);
    let s2 = TrainingSession::with_allocation(
        &graph,
        alloc2,
        HardwarePerf::new(),
        config(22),
        cache.clone(),
        None,
    )
    .unwrap();
    assert!(
        cache.hits() > hits_after_first,
        "twin admission must hit the shared cache"
    );
    assert_eq!(
        cache.misses(),
        misses_after_first,
        "twin admission must not evaluate any planner (zero cache misses)"
    );
    // The cached plan was remapped onto job 2's devices: same shape,
    // disjoint placement, both valid on their own slices.
    assert_eq!(s1.started_data_parallel(), s2.started_data_parallel());
    let p1 = s1.current_plan();
    let p2 = s2.current_plan();
    p1.placement.validate(&p1.graph, s1.topology()).unwrap();
    p2.placement.validate(&p2.graph, s2.topology()).unwrap();
    let d1: BTreeSet<DeviceId> = p1
        .graph
        .iter_ops()
        .map(|(id, _)| p1.placement.device_of(id))
        .collect();
    let d2: BTreeSet<DeviceId> = p2
        .graph
        .iter_ops()
        .map(|(id, _)| p2.placement.device_of(id))
        .collect();
    assert!(d1.is_disjoint(&d2), "twin plans must not share devices");
}

/// Depth-sibling admission over the shared cache: a job whose model repeats
/// the same layer block as an admitted sibling but at a different depth
/// cannot reuse the whole plan (different graph fingerprint), yet the
/// hierarchical planner serves its repeated regions from the sibling's
/// region sub-plans — recorded on the separate region counters, so the
/// pinned twin-admission zero-miss invariant above is unaffected. Both
/// siblings are too large to replicate on their two-GPU slices, so their
/// admissions fall back and plan the hierarchical planner.
#[test]
fn depth_sibling_admission_reuses_region_sub_plans() {
    use fastt_graph::build_training_graph;
    use fastt_models::stacked_transformer;

    let shared = Topology::multi_server(2, 4);
    let g4 = build_training_graph(&stacked_transformer(32768, 4)).unwrap();
    let g6 = build_training_graph(&stacked_transformer(32768, 6)).unwrap();
    let cache = Arc::new(fastt::PlanCache::new(512));
    let config = || SessionConfig {
        profile_iters: 1,
        max_rounds: 2,
        ..SessionConfig::default()
    };

    let alloc1 = Allocation::new(AllocationId(0), &shared, &[DeviceId(1), DeviceId(2)]);
    let s1 = TrainingSession::with_allocation(
        &g4,
        alloc1,
        HardwarePerf::new(),
        config(),
        cache.clone(),
        None,
    )
    .unwrap();
    assert!(!s1.started_data_parallel());
    assert!(
        cache.region_misses() > 0,
        "first admission must record region sub-plans"
    );
    let region_hits_after_first = cache.region_hits();

    // Same layer block, two layers deeper, on the other server's slice.
    let alloc2 = Allocation::new(AllocationId(1), &shared, &[DeviceId(6), DeviceId(7)]);
    let s2 = TrainingSession::with_allocation(
        &g6,
        alloc2,
        HardwarePerf::new(),
        config(),
        cache.clone(),
        None,
    )
    .unwrap();
    assert!(!s2.started_data_parallel());
    assert!(
        cache.region_hits() > region_hits_after_first,
        "depth-sibling admission must reuse the sibling's region sub-plans \
         (region hits {} -> {})",
        region_hits_after_first,
        cache.region_hits(),
    );
}

/// Admission is first-feasible: a job whose replicas fit plans data
/// parallelism alone (one whole-plan miss, no region traffic), and only a
/// job whose replicas do not fit also plans model parallelism and the
/// hierarchical fallback, which records its region sub-plans.
#[test]
fn admission_plans_fallbacks_only_when_data_parallelism_does_not_fit() {
    use fastt_graph::build_training_graph;
    use fastt_models::stacked_transformer;

    let shared = Topology::multi_server(2, 4);
    let admit = |graph: &fastt_graph::Graph, cache: &Arc<fastt::PlanCache>| {
        let alloc = Allocation::new(AllocationId(0), &shared, &[DeviceId(0), DeviceId(1)]);
        TrainingSession::with_allocation(
            graph,
            alloc,
            HardwarePerf::new(),
            SessionConfig::default(),
            cache.clone(),
            None,
        )
        .unwrap()
    };

    let fits = Arc::new(fastt::PlanCache::default());
    let s = admit(&Model::LeNet.training_graph(32), &fits);
    assert!(s.started_data_parallel());
    assert_eq!((fits.hits(), fits.misses()), (0, 1), "DP planned alone");
    assert_eq!(
        (fits.region_hits(), fits.region_misses()),
        (0, 0),
        "no hierarchical plan at a DP-feasible admission"
    );

    let too_big = Arc::new(fastt::PlanCache::default());
    let g = build_training_graph(&stacked_transformer(32768, 4)).unwrap();
    let s = admit(&g, &too_big);
    assert!(!s.started_data_parallel());
    assert_eq!(
        too_big.misses(),
        3,
        "DP, then model parallelism and hierarchical"
    );
    assert!(
        too_big.region_misses() > 0,
        "the hierarchical fallback records region sub-plans"
    );
}

/// Pinned: two identical jobs racing on the shared cache from separate
/// threads stay deterministic — whichever wins the insert, both end up
/// with the same plan, and the cache records exactly one planning pass.
#[test]
fn racing_twin_jobs_on_the_shared_cache_stay_deterministic() {
    let shared = Topology::multi_server(2, 4);
    let graph = Model::LeNet.training_graph(32);

    // Serial reference: what a lone job plans on a twin slice.
    let reference = TrainingSession::with_allocation(
        &graph,
        Allocation::new(AllocationId(9), &shared, &[DeviceId(1), DeviceId(2)]),
        HardwarePerf::new(),
        SessionConfig {
            profile_iters: 1,
            max_rounds: 2,
            ..SessionConfig::default()
        },
        Arc::new(fastt::PlanCache::default()),
        None,
    )
    .unwrap();

    for round in 0..4u64 {
        let cache = Arc::new(fastt::PlanCache::default());
        let slices = [
            vec![DeviceId(1), DeviceId(2)],
            vec![DeviceId(6), DeviceId(7)],
        ];
        let mut handles = Vec::new();
        for (i, gpus) in slices.iter().enumerate() {
            let shared = shared.clone();
            let graph = graph.clone();
            let gpus = gpus.clone();
            let cache = cache.clone();
            handles.push(std::thread::spawn(move || {
                let alloc = Allocation::new(AllocationId(i as u32), &shared, &gpus);
                let config = SessionConfig {
                    profile_iters: 1,
                    max_rounds: 2,
                    cache_salt: (round + 1) * 100 + i as u64,
                    ..SessionConfig::default()
                };
                TrainingSession::with_allocation(
                    &graph,
                    alloc,
                    HardwarePerf::new(),
                    config,
                    cache,
                    None,
                )
                .unwrap()
            }));
        }
        let sessions: Vec<TrainingSession> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        // An op's placement in slice-local coordinates: its device's slot
        // in the allocation's member list (hosts map to a sentinel). Twin
        // slices must agree exactly in these coordinates.
        let canonical = |s: &TrainingSession| -> Vec<usize> {
            let p = s.current_plan();
            let members = s.allocation().members();
            p.graph
                .iter_ops()
                .map(|(id, _)| {
                    let d = p.placement.device_of(id);
                    members.iter().position(|m| *m == d).unwrap_or(usize::MAX)
                })
                .collect()
        };
        let want = canonical(&reference);
        for s in &sessions {
            // Both racers land on the reference outcome regardless of who
            // won the insert.
            assert_eq!(s.started_data_parallel(), reference.started_data_parallel());
            assert_eq!(
                canonical(s),
                want,
                "racer diverged from the serial reference plan"
            );
            let p = s.current_plan();
            p.placement.validate(&p.graph, s.topology()).unwrap();
        }
    }
}

/// Preempting a job never deadlocks or strands devices: after the burst
/// job finishes, every shrunken survivor is regrown, all jobs depart, and
/// no device is double-booked along the way.
#[test]
fn preemption_then_regrowth_strands_nothing() {
    let report = run_fleet(5);
    assert_eq!(report.deadlocks, 0);
    assert_eq!(report.jobs.len(), 5);
    let preempts = report
        .events
        .iter()
        .filter(|e| matches!(e, FleetEvent::Preempted { .. }))
        .count();
    let grows = report
        .events
        .iter()
        .filter(|e| matches!(e, FleetEvent::Expanded { .. }))
        .count();
    assert!(preempts >= 1, "burst must preempt");
    assert!(grows >= 1, "freed capacity must flow back to survivors");
    // The run drains completely: final utilization sample is zero busy.
    let (_, busy, _) = report.utilization.last().unwrap();
    assert_eq!(*busy, 0, "all devices must return to the pool");
    // Victims kept running: every preempted job still finished its
    // iteration budget.
    for j in &report.jobs {
        assert!(j.iters_run > 0, "job {} never ran", j.name);
    }
}

/// Per-job collectors: fleet telemetry interleaves into one stream with
/// job labels, and the planner.latency series (the admission-path SLO
/// input) is populated.
#[test]
fn fleet_telemetry_labels_jobs_and_feeds_the_admission_slo() {
    use fastt_telemetry::{Collector, MemorySink};

    let sink = Arc::new(MemorySink::new(65536));
    let collector = Arc::new(Collector::new().with_sink(sink.clone()));
    let topo = Topology::multi_server(2, 4);
    let mut fleet =
        ClusterManager::new(topo, HardwarePerf::new(), 21).with_collector(collector.clone());
    for spec in seeded_workload(21, &templates(), 8) {
        fleet.submit(spec);
    }
    let report = fleet.run().unwrap();
    assert_eq!(report.deadlocks, 0);

    let events = sink.events();
    let labeled = events
        .iter()
        .filter(|e| e.kind.starts_with("session.") && e.field("job").as_str().is_some())
        .count();
    assert!(
        labeled > 0,
        "session telemetry must carry the per-job label"
    );
    let job_names: BTreeSet<String> = events
        .iter()
        .filter_map(|e| e.field("job").as_str().map(str::to_string))
        .collect();
    assert!(
        job_names.len() >= 3,
        "at least the three overlapping jobs must label events, got {job_names:?}"
    );
    // The admission portfolio fed the planner.latency histogram the SLO
    // grades.
    match collector.metrics().get("planner.latency") {
        Some(fastt_telemetry::MetricValue::Histogram(h)) => assert!(h.count > 0),
        other => panic!("planner.latency missing: {other:?}"),
    }
    // And the fleet SLOs all evaluate against the same registry.
    let verdicts = fastt_telemetry::evaluate_slos(&fastt::fleet::fleet_slos(), collector.metrics());
    assert_eq!(verdicts.len(), 2);
}

/// The workload `report lenet 2x4 <out> fleet:21` runs — LeNet at its
/// per-replica batch on 8 GPUs and at half of it, seed 21 — overlaps
/// jobs, preempts and logs it, samples utilization, serves an admission
/// from a sibling's cached plan, never deadlocks, and grades the
/// admission-path `planner.latency.p95` SLO.
#[test]
fn report_fleet_workload_meets_its_smoke_claims() {
    use fastt_telemetry::{Collector, SloGrade};

    let model = Model::LeNet;
    let big = (model.paper_batch() / 8).max(model.min_batch());
    let small = (big / 2).max(model.min_batch());
    let templates: Vec<_> = [big, small]
        .into_iter()
        .map(|b| (format!("lenet{b}"), model.training_graph(b)))
        .collect();
    let collector = Arc::new(Collector::new());
    let mut fleet = ClusterManager::new(Topology::multi_server(2, 4), HardwarePerf::new(), 21)
        .with_collector(collector.clone());
    for spec in seeded_workload(21, &templates, 8) {
        fleet.submit(spec);
    }
    let report = fleet.run().unwrap();

    assert!(report.max_concurrent >= 2, "{}", report.max_concurrent);
    assert!(report.preemptions >= 1);
    assert!(
        report
            .event_log()
            .lines()
            .any(|l| l.split_whitespace().nth(1) == Some("preempt")),
        "no preempt line in the event log"
    );
    assert!(!report.utilization.is_empty());
    assert!(report.jobs.iter().any(|j| j.cached_start));
    assert_eq!(report.deadlocks, 0);
    let p95 = fastt_telemetry::evaluate_slos(&fastt::default_slos(), collector.metrics())
        .into_iter()
        .find(|v| v.slo == "planner.latency.p95")
        .expect("planner.latency.p95 is a default SLO");
    assert_ne!(p95.grade, SloGrade::NoData, "{}", p95.render());
}

/// A fleet job's spec floor is respected: preemption never shrinks a
/// victim below `min_gpus`.
#[test]
fn preemption_respects_min_gpu_floors() {
    let topo = Topology::multi_server(2, 4);
    let g = Model::LeNet.training_graph(32);
    let mut fleet = ClusterManager::new(topo, HardwarePerf::new(), 13);
    fleet.submit(JobSpec {
        name: "protected".into(),
        graph: g.clone(),
        arrival: 0,
        iters: 10,
        gpus: 4,
        min_gpus: 3,
        priority: 1,
        deadline: None,
    });
    fleet.submit(JobSpec {
        name: "greedy-hi".into(),
        graph: g,
        arrival: 2,
        iters: 3,
        gpus: 8,
        min_gpus: 1,
        priority: 9,
        deadline: None,
    });
    let report = fleet.run().unwrap();
    assert_eq!(report.deadlocks, 0);
    // The high-priority job can never assemble 8 GPUs (the floor holds 3
    // back), so it must wait for the protected job to finish rather than
    // shrink it below its floor.
    let protected_losses: usize = report
        .events
        .iter()
        .filter_map(|e| match e {
            FleetEvent::Preempted {
                victim, devices, ..
            } if victim == "protected" => Some(devices.len()),
            _ => None,
        })
        .sum();
    assert!(
        protected_losses <= 1,
        "protected job lost {protected_losses} GPUs, floor allows at most 1"
    );
    assert_eq!(report.jobs.len(), 2, "both jobs still depart");
}

/// A fleet of `jobs` on `topo`, traced into a memory sink.
fn traced_fleet(
    topo: Topology,
    jobs: Vec<JobSpec>,
) -> (fastt::FleetReport, Vec<fastt_telemetry::Event>) {
    use fastt_telemetry::{Collector, MemorySink};

    let sink = Arc::new(MemorySink::new(65536));
    let collector = Arc::new(Collector::new().with_sink(sink.clone()));
    let mut fleet = ClusterManager::new(topo, HardwarePerf::new(), 7).with_collector(collector);
    for spec in jobs {
        fleet.submit(spec);
    }
    (fleet.run().unwrap(), sink.events())
}

fn job(name: &str, graph: fastt_graph::Graph, arrival: u64, iters: u64, gpus: usize) -> JobSpec {
    JobSpec {
        name: name.into(),
        graph,
        arrival,
        iters,
        gpus,
        min_gpus: gpus,
        priority: 1,
        deadline: None,
    }
}

/// The rung `job` was admitted on.
fn admitted_on(report: &fastt::FleetReport, job: &str) -> LadderRung {
    report
        .events
        .iter()
        .find_map(|e| match e {
            FleetEvent::Admitted { job: j, start, .. } if j == job => Some(*start),
            _ => None,
        })
        .unwrap_or_else(|| panic!("{job} was not admitted"))
}

/// `(cache event, planner)` for every plan-cache lookup `job`'s admission
/// made: the job's `planner.cache_*` events before its `fleet.admit`.
fn admission_lookups(events: &[fastt_telemetry::Event], job: &str) -> Vec<(String, String)> {
    let of_job = |e: &&fastt_telemetry::Event| e.field("job").as_str() == Some(job);
    events
        .iter()
        .filter(of_job)
        .take_while(|e| e.kind != "fleet.admit")
        .filter(|e| e.kind.starts_with("planner.cache_"))
        .map(|e| {
            let planner = e.field("planner").as_str().unwrap_or_default();
            (e.kind.clone(), planner.to_string())
        })
        .collect()
}

/// On one server the ring all-reduce beats the parameter-server funnel on
/// the host, so a fleet admission deploys the ring: the admitted job
/// trains on a plan whose iterations run an all-reduce collective.
#[test]
fn fleet_admission_starts_a_one_server_cnn_on_ring_all_reduce() {
    let (report, events) = traced_fleet(
        Topology::multi_server(1, 4),
        vec![job("lenet", Model::LeNet.training_graph(64), 0, 2, 4)],
    );
    assert_eq!(admitted_on(&report, "lenet"), LadderRung::RingDp);
    assert!(report
        .event_log()
        .contains("admit   job=lenet gpus=gpu:0+gpu:1+gpu:2+gpu:3 wait=0 cached=false start=ring_data_parallel"));
    let iterations: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == "sim.iteration" && e.field("job").as_str() == Some("lenet"))
        .map(|e| e.field("collectives").as_u64().unwrap())
        .collect();
    assert!(!iterations.is_empty(), "the job never ran");
    assert!(
        iterations.iter().all(|&c| c > 0),
        "every iteration runs the all-reduce: {iterations:?}"
    );
}

/// Across two servers the ring's cross-server phases cost GNMT more than
/// the host-side funnel, so its admission keeps the parameter server.
#[test]
fn fleet_admission_keeps_the_parameter_server_where_it_probes_faster() {
    let (report, _) = traced_fleet(
        Topology::multi_server(2, 2),
        vec![job("gnmt", Model::Gnmt4.training_graph(32), 0, 1, 4)],
    );
    assert_eq!(admitted_on(&report, "gnmt"), LadderRung::PsDp);
}

/// Only the fleet races the data-parallel modes: a session that
/// pre-trains keeps the parameter-server start, the profiling baseline
/// its cost models are fitted from, even where the fleet admits the same
/// model on the ring.
#[test]
fn sessions_keep_the_parameter_server_start() {
    let graph = Model::LeNet.training_graph(64);
    let topo = Topology::multi_server(1, 4);
    let no_collective = |s: &TrainingSession| {
        let g = &s.current_plan().graph;
        g.op_ids().all(|id| g.op_ref(id).collective.is_none())
    };
    let s = TrainingSession::new(
        &graph,
        topo.clone(),
        HardwarePerf::new(),
        SessionConfig::default(),
    )
    .unwrap();
    assert_eq!(s.ladder_rung(), LadderRung::PsDp);
    assert!(no_collective(&s));
    let alloc = Allocation::new(
        AllocationId(0),
        &topo,
        &[DeviceId(0), DeviceId(1), DeviceId(2), DeviceId(3)],
    );
    let s = TrainingSession::with_allocation(
        &graph,
        alloc,
        HardwarePerf::new(),
        SessionConfig::default(),
        Arc::new(fastt::PlanCache::default()),
        None,
    )
    .unwrap();
    assert_eq!(s.ladder_rung(), LadderRung::PsDp);
    assert!(no_collective(&s));
}

/// A twin fleet admission stays a pure cache hit with both data-parallel
/// modes raced: the sibling's admission planned both, so the twin's
/// looks both up and plans neither.
#[test]
fn twin_fleet_admission_hits_the_cache_for_both_modes() {
    let graph = Model::LeNet.training_graph(32);
    let (report, events) = traced_fleet(
        Topology::multi_server(1, 4),
        vec![
            job("twin-a", graph.clone(), 0, 4, 2),
            job("twin-b", graph, 1, 2, 2),
        ],
    );
    let cached: Vec<bool> = report
        .events
        .iter()
        .filter_map(|e| match e {
            FleetEvent::Admitted { cached, .. } => Some(*cached),
            _ => None,
        })
        .collect();
    assert_eq!(cached, [false, true]);
    let misses = |job| {
        let mut planners: Vec<String> = admission_lookups(&events, job)
            .into_iter()
            .filter(|(kind, _)| kind == "planner.cache_miss")
            .map(|(_, p)| p)
            .collect();
        planners.sort();
        planners
    };
    assert_eq!(
        misses("twin-a"),
        ["data_parallel", "data_parallel_allreduce"]
    );
    let twin = admission_lookups(&events, "twin-b");
    assert_eq!(
        twin,
        [
            ("planner.cache_hit".to_string(), "data_parallel".to_string()),
            (
                "planner.cache_hit".to_string(),
                "data_parallel_allreduce".to_string()
            ),
        ],
        "the twin admission plans nothing"
    );
}

/// When the parameter server does not fit (here: a host too small for
/// the shared variables) but the ring does, data parallelism is still
/// feasible: the job starts on the ring, and neither model parallelism
/// nor the hierarchical fallback is planned.
#[test]
fn fleet_admission_starts_ring_when_only_the_ring_fits() {
    use fastt_cluster::{Device, Link, TopologyBuilder};

    let mut b = TopologyBuilder::new();
    for g in 0..4 {
        b.add_device(Device::v100(format!("srv0/gpu{g}")), 0);
    }
    b.add_device(Device::host("srv0/cpu").with_mem_bytes(1 << 10), 0);
    b.connect_intra_server(Link::nvlink());
    b.connect_host_pcie(Link::pcie());
    let (report, events) = traced_fleet(
        b.build(),
        vec![job("lenet", Model::LeNet.training_graph(64), 0, 1, 4)],
    );
    assert_eq!(admitted_on(&report, "lenet"), LadderRung::RingDp);
    let planners: BTreeSet<String> = admission_lookups(&events, "lenet")
        .into_iter()
        .map(|(_, p)| p)
        .collect();
    assert_eq!(
        planners,
        BTreeSet::from(["data_parallel".into(), "data_parallel_allreduce".into()]),
        "no fallback is planned while a data-parallel mode fits"
    );
}
