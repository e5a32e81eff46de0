//! The invariant oracle: runs one [`Scenario`] end to end and
//! property-checks the six invariant families the repo claims globally.
//!
//! | family | claim |
//! |---|---|
//! | [`COMM_DEADLOCK_FREE`] | every lowered `CommPlan` passes the cycle validator; the fleet scheduler never wedges |
//! | [`DETERMINISM`] | same-seed runs produce byte-identical recovery and fleet logs |
//! | [`CACHE_IDENTITY`] | a plan served from the `PlanCache` is structurally identical to a freshly computed one |
//! | [`PLACEMENT_VALIDITY`] | every adopted placement validates over survivors and fits device memory (and the topology itself passes [`Topology::validate`]) |
//! | [`TIME_MONOTONE`] | simulated time is monotone in fault severity and never regresses under added capacity |
//! | [`DECOMPOSE_ROUNDTRIP`] | decompose ↔ expand is a lossless partition of ops and edges |
//!
//! A scenario run is allowed to *fail* (a cluster that loses every GPU
//! exhausts legitimately) — but it must fail identically under the same
//! seed, and every plan it adopted along the way must have been valid.

use crate::scenario::{PlannerChoice, Scenario};
use fastt::{
    bootstrap_cost_models, ClusterManager, DataParallelPlanner, DposPlanner, Fingerprint,
    FingerprintContext, HierarchicalPlanner, JobSpec, Plan, PlanCache, Planner, PlanningContext,
    SessionConfig, TrainingSession,
};
use fastt_cluster::Topology;
use fastt_graph::decompose;
use fastt_sim::{FaultKind, FaultSchedule, HardwarePerf, SimConfig, SimError};
use fastt_telemetry::{jobj, Collector};
use std::collections::HashMap;
use std::sync::Arc;

/// Family 1: deadlock-freedom of every lowered comm plan.
pub const COMM_DEADLOCK_FREE: &str = "comm_deadlock_free";
/// Family 2: same-seed byte-identical recovery and fleet logs.
pub const DETERMINISM: &str = "determinism";
/// Family 3: cache-served plans structurally identical to fresh plans.
pub const CACHE_IDENTITY: &str = "cache_identity";
/// Family 4: adopted placements validate and fit memory over survivors.
pub const PLACEMENT_VALIDITY: &str = "placement_validity";
/// Family 5: simulated time monotone in fault severity / capacity.
pub const TIME_MONOTONE: &str = "time_monotone";
/// Family 6: decompose↔expand round-trips partition-exactly.
pub const DECOMPOSE_ROUNDTRIP: &str = "decompose_roundtrip";

/// All six invariant families, in reporting order.
pub const FAMILIES: [&str; 6] = [
    COMM_DEADLOCK_FREE,
    DETERMINISM,
    CACHE_IDENTITY,
    PLACEMENT_VALIDITY,
    TIME_MONOTONE,
    DECOMPOSE_ROUNDTRIP,
];

/// Test-only invariant breakers: each mode corrupts one oracle input the
/// way a real bug would, proving the fuzzer catches and minimizes it.
/// Production sweeps run [`Sabotage::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// No corruption — the production mode.
    None,
    /// Re-routes the first op of every adopted placement to the CPU host
    /// (planners must never place work on hosts), breaking
    /// [`PLACEMENT_VALIDITY`].
    Placement,
    /// Perturbs the cache-served plan's signature before comparison,
    /// simulating a fingerprint collision, breaking [`CACHE_IDENTITY`].
    Cache,
}

impl Sabotage {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Result<Sabotage, String> {
        match s {
            "none" => Ok(Sabotage::None),
            "placement" => Ok(Sabotage::Placement),
            "cache" => Ok(Sabotage::Cache),
            other => Err(format!("unknown sabotage mode `{other}`")),
        }
    }
}

/// One invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violated family (one of [`FAMILIES`]).
    pub family: &'static str,
    /// Human-readable description of what broke.
    pub detail: String,
}

fn violation(out: &mut Vec<Violation>, family: &'static str, detail: String) {
    out.push(Violation { family, detail });
}

/// Structural signature of a plan: placement pairs, splits, and order —
/// everything the cache must preserve exactly (estimated finish is
/// derived, not structural).
fn plan_signature(plan: &Plan) -> String {
    let placement: Vec<(u32, u16)> = plan.placement.iter().map(|(o, d)| (o.0, d.0)).collect();
    format!(
        "ops={} placement={placement:?} splits={:?} order={:?}",
        plan.graph.op_count(),
        plan.splits,
        plan.order
    )
}

/// Validates one adopted plan against family 1 (deadlock-freedom) and
/// family 4 (placement validity + memory fit), over the given (possibly
/// degraded) topology. `iteration` selects the fault-schedule instant the
/// comm plan is validated at.
fn check_adopted_plan(
    plan: &Plan,
    topo: &Topology,
    hw: &HardwarePerf,
    iteration: u64,
    label: &str,
    sabotage: Sabotage,
    out: &mut Vec<Violation>,
) {
    let mut placement = plan.placement.clone();
    if sabotage == Sabotage::Placement {
        if let Some(host) = (0..topo.device_count())
            .map(|i| fastt_cluster::DeviceId(i as u16))
            .find(|&d| topo.is_host(d))
        {
            if let Some((op, _)) = plan.placement.iter().next() {
                placement.set(op, host);
            }
        }
    }
    if let Err(e) = placement.validate(&plan.graph, topo) {
        violation(out, PLACEMENT_VALIDITY, format!("{label}: {e}"));
        return;
    }
    let mut used: HashMap<u16, u64> = HashMap::new();
    for (op, d) in placement.iter() {
        *used.entry(d.0).or_insert(0) += hw.planning_bytes(plan.graph.op_ref(op));
    }
    for (d, bytes) in used {
        let cap = topo.device(fastt_cluster::DeviceId(d)).mem_bytes;
        if bytes > cap {
            violation(
                out,
                PLACEMENT_VALIDITY,
                format!("{label}: device {d} holds {bytes} planning bytes over {cap}"),
            );
        }
    }
    // Lowering can legitimately fail while links are down mid-recovery;
    // only an actual cycle (Deadlock) breaks the invariant.
    if let Ok(cp) = fastt_sim::CommPlan::lower(&plan.graph, &placement, topo) {
        if let Err(SimError::Deadlock { executed, total }) = cp.validate(topo, iteration) {
            violation(
                out,
                COMM_DEADLOCK_FREE,
                format!("{label}: comm plan cyclic ({executed}/{total} steps reachable)"),
            );
        }
    }
}

/// The planner slate a [`PlannerChoice`] checks.
fn planners(choice: PlannerChoice) -> Vec<Box<dyn Planner>> {
    match choice {
        PlannerChoice::Flat => vec![Box::<DposPlanner>::default()],
        PlannerChoice::Hierarchical => vec![Box::<HierarchicalPlanner>::default()],
        PlannerChoice::Portfolio => vec![
            Box::<DposPlanner>::default(),
            Box::<DataParallelPlanner>::default(),
            Box::<HierarchicalPlanner>::default(),
        ],
    }
}

/// One deterministic single-session run; returns the byte-stable outcome
/// transcript, and (when `deep` is set) checks every adopted plan along
/// the way.
#[allow(clippy::too_many_arguments)]
fn session_run(
    sc: &Scenario,
    schedule: &Arc<FaultSchedule>,
    hw: &HardwarePerf,
    deep: bool,
    sabotage: Sabotage,
    out: &mut Vec<Violation>,
) -> String {
    let g = sc.graph.training();
    let topo = sc.topo.build();
    let config = SessionConfig {
        profile_iters: 1,
        max_rounds: 2,
        seed: sc.seed,
        faults: Some(schedule.clone()),
        ..SessionConfig::default()
    };
    let mut session = match TrainingSession::new(&g, topo, hw.clone(), config) {
        Ok(s) => s,
        Err(e) => return format!("construct-err: {e}"),
    };
    let mut transcript = String::new();
    match session.pre_train() {
        Ok(r) => transcript.push_str(&format!("pretrain: {:.6}\n", r.final_iter_time)),
        Err(e) => {
            transcript.push_str(&format!("pretrain-err: {e}\n"));
            transcript.push_str(&format!("recovery: {:?}\n", session.recovery_log()));
            return transcript;
        }
    }
    if deep {
        check_adopted_plan(
            session.current_plan(),
            session.topology(),
            hw,
            0,
            "post-pretrain plan",
            sabotage,
            out,
        );
    }
    while session.iterations_run() < sc.iters {
        let before = session.iterations_run();
        match session.train_normal(1, 4) {
            Ok(_) => {}
            Err(e) => {
                transcript.push_str(&format!("train-err@{before}: {e}\n"));
                break;
            }
        }
        if deep {
            check_adopted_plan(
                session.current_plan(),
                session.topology(),
                hw,
                session.iterations_run(),
                &format!("plan@iter{}", session.iterations_run()),
                sabotage,
                out,
            );
        }
        if session.iterations_run() == before {
            transcript.push_str("stalled\n");
            break;
        }
    }
    transcript.push_str(&format!("iters: {}\n", session.iterations_run()));
    transcript.push_str(&format!("recovery: {:?}\n", session.recovery_log()));
    transcript
}

/// One deterministic fleet run; returns the byte-stable fleet log and
/// checks the scheduler never wedged.
fn fleet_run(sc: &Scenario, hw: &HardwarePerf, out: &mut Vec<Violation>) -> String {
    let g = sc.graph.training();
    let mut fleet = ClusterManager::new(sc.topo.build(), hw.clone(), sc.seed);
    for (i, j) in sc.jobs.iter().enumerate() {
        fleet.submit(JobSpec {
            name: format!("job{i}"),
            graph: g.clone(),
            arrival: j.arrival,
            iters: j.iters,
            gpus: j.gpus,
            min_gpus: j.min_gpus,
            priority: j.priority,
            deadline: None,
        });
    }
    let report = match fleet.run() {
        Ok(r) => r,
        Err(e) => return format!("fleet-err: {e}"),
    };
    if report.deadlocks != 0 {
        violation(
            out,
            COMM_DEADLOCK_FREE,
            format!("fleet run lowered {} cyclic comm plans", report.deadlocks),
        );
    }
    report.event_log()
}

/// Checks family 6 on the scenario's training graph: every op lands in
/// exactly one region and `region_of` agrees, every edge is either
/// internal to one region or listed as a boundary edge (never both), and
/// the quotient edges are exactly the region-level projection of the
/// boundary set.
fn check_decompose(sc: &Scenario, out: &mut Vec<Violation>) {
    let g = sc.graph.training();
    let tree = decompose(&g);
    let mut covered = vec![0u32; g.op_count()];
    for (id, r) in tree.regions() {
        for &op in &r.ops {
            covered[op.index()] += 1;
            if tree.region_of(op) != id {
                violation(
                    out,
                    DECOMPOSE_ROUNDTRIP,
                    format!("op {op} in region {id:?} but region_of disagrees"),
                );
                return;
            }
        }
    }
    if let Some(op) = covered.iter().position(|&c| c != 1) {
        violation(
            out,
            DECOMPOSE_ROUNDTRIP,
            format!("op {op} covered by {} regions", covered[op]),
        );
        return;
    }
    let boundary: std::collections::HashSet<(u32, u32)> = tree
        .boundary_edges()
        .iter()
        .map(|&(s, d, _)| (s.0, d.0))
        .collect();
    let mut cross = 0usize;
    let mut quotient_proj: std::collections::HashSet<(u32, u32)> = Default::default();
    for e in g.iter_edges() {
        let (rs, rd) = (tree.region_of(e.src), tree.region_of(e.dst));
        let listed = boundary.contains(&(e.src.0, e.dst.0));
        if rs == rd && listed {
            violation(
                out,
                DECOMPOSE_ROUNDTRIP,
                format!("internal edge {}->{} listed as boundary", e.src, e.dst),
            );
            return;
        }
        if rs != rd {
            cross += 1;
            quotient_proj.insert((rs.0, rd.0));
            if !listed {
                violation(
                    out,
                    DECOMPOSE_ROUNDTRIP,
                    format!(
                        "cross-region edge {}->{} missing from boundary",
                        e.src, e.dst
                    ),
                );
                return;
            }
        }
    }
    if boundary.len() != cross {
        violation(
            out,
            DECOMPOSE_ROUNDTRIP,
            format!(
                "{} boundary edges for {cross} cross-region edges",
                boundary.len()
            ),
        );
        return;
    }
    let quotient: std::collections::HashSet<(u32, u32)> = tree
        .quotient_edges()
        .iter()
        .map(|&(s, d, _)| (s.0, d.0))
        .collect();
    if quotient != quotient_proj {
        violation(
            out,
            DECOMPOSE_ROUNDTRIP,
            "quotient edges are not the projected cross-region edges".to_string(),
        );
    }
}

/// Checks families 1/3/4 at the planner level and family 5 on the chosen
/// plan, over a healthy topology.
fn check_planners(sc: &Scenario, hw: &HardwarePerf, sabotage: Sabotage, out: &mut Vec<Violation>) {
    let g = sc.graph.training();
    let topo = sc.topo.build();
    if let Err(e) = topo.validate() {
        violation(
            out,
            PLACEMENT_VALIDITY,
            format!("generated topology invalid: {e}"),
        );
        return;
    }
    if topo.gpu_count() == 0 {
        return;
    }
    let cost = bootstrap_cost_models(&g, &topo, hw);
    let cache = PlanCache::new(64);
    let mut monotone_plan: Option<Plan> = None;

    for p in planners(sc.planner) {
        let mut ctx = PlanningContext::new(&g, &topo, hw, cost.clone()).with_raw(&g);
        let plan = match p.plan(&mut ctx) {
            Ok(plan) => plan,
            Err(_) => continue, // planners may legitimately decline an instance
        };
        check_adopted_plan(
            &plan,
            &topo,
            hw,
            0,
            &format!("{} plan", p.name()),
            sabotage,
            out,
        );

        // family 3: insert, re-fetch, and recompute — the cache-served
        // plan must be structurally identical to a fresh computation
        if p.cacheable() {
            let fp = Fingerprint::compute(
                p.as_ref(),
                &g,
                Some(&g),
                &topo,
                &ctx.cost,
                &FingerprintContext {
                    dp_ps: None,
                    enable_order: true,
                    cache_salt: 0,
                },
            );
            cache.insert(fp.clone(), &plan, &topo);
            match cache.get(&fp, &topo) {
                None => violation(
                    out,
                    CACHE_IDENTITY,
                    format!("{}: inserted plan not served back", p.name()),
                ),
                Some(cached) => {
                    let mut ctx2 = PlanningContext::new(&g, &topo, hw, cost.clone()).with_raw(&g);
                    if let Ok(fresh) = p.plan(&mut ctx2) {
                        let mut cached_sig = plan_signature(&cached);
                        if sabotage == Sabotage::Cache {
                            cached_sig.push_str(" corrupted");
                        }
                        if cached_sig != plan_signature(&fresh) {
                            violation(
                                out,
                                CACHE_IDENTITY,
                                format!(
                                    "{}: cache-served plan diverges from fresh plan\n  cached: {}\n  fresh:  {}",
                                    p.name(),
                                    cached_sig,
                                    plan_signature(&fresh)
                                ),
                            );
                        }
                    }
                }
            }
        }
        if monotone_plan.is_none() {
            monotone_plan = Some(plan);
        }
    }

    // family 5: time monotone in fault severity and capacity
    if let Some(plan) = monotone_plan {
        let quiet = SimConfig {
            jitter_pct: 0.0,
            ..SimConfig::default()
        };
        let straggler = |slowdown: f64| {
            Some(Arc::new(FaultSchedule::none().with(
                fastt_sim::Fault::windowed(
                    FaultKind::Straggler {
                        device: fastt_cluster::DeviceId(0),
                        slowdown,
                    },
                    0,
                    1,
                ),
            )))
        };
        let base = plan.simulate(&topo, hw, &quiet).map(|t| t.makespan);
        let light = plan
            .simulate(
                &topo,
                hw,
                &SimConfig {
                    faults: straggler(1.5),
                    ..quiet.clone()
                },
            )
            .map(|t| t.makespan);
        let heavy = plan
            .simulate(
                &topo,
                hw,
                &SimConfig {
                    faults: straggler(3.0),
                    ..quiet.clone()
                },
            )
            .map(|t| t.makespan);
        if let (Ok(b), Ok(l), Ok(h)) = (base, light, heavy) {
            let eps = 1e-9 * b.max(1.0);
            if l > h + eps || b > l + eps {
                violation(
                    out,
                    TIME_MONOTONE,
                    format!(
                        "makespan not monotone in straggler severity: base {b} light {l} heavy {h}"
                    ),
                );
            }
            // idle capacity is free: the same plan on a grown cluster
            // simulates identically
            let mut grown = topo.clone();
            grown.add_server(2);
            if let Ok(carried) = plan.simulate(&grown, hw, &quiet).map(|t| t.makespan) {
                if (carried - b).abs() > eps {
                    violation(
                        out,
                        TIME_MONOTONE,
                        format!("idle hot-added capacity changed simulated time: {b} -> {carried}"),
                    );
                }
            }
        }
    }
}

/// Runs the full oracle over one scenario: all six invariant families,
/// with optional [`Sabotage`] and telemetry. Returns every violation
/// found (empty = the scenario upholds all claims).
pub fn check(sc: &Scenario, sabotage: Sabotage, collector: Option<&Collector>) -> Vec<Violation> {
    let mut out = Vec::new();
    let hw = HardwarePerf::new();

    // family 6 + topology consistency are pure structure checks
    check_decompose(sc, &mut out);
    if let Err(e) = sc.topo.build().validate() {
        violation(&mut out, PLACEMENT_VALIDITY, format!("topology: {e}"));
    }

    // families 1/3/4/5 at the planner level
    check_planners(sc, &hw, sabotage, &mut out);

    // families 1/2/4 over a live fault-injected session, run twice
    let schedule = Arc::new(sc.fault_schedule());
    let first = session_run(sc, &schedule, &hw, true, sabotage, &mut out);
    let second = session_run(sc, &schedule, &hw, false, Sabotage::None, &mut out);
    if first != second {
        violation(
            &mut out,
            DETERMINISM,
            format!(
                "same-seed session transcripts diverge:\n--- run 1\n{first}--- run 2\n{second}"
            ),
        );
    }

    // family 1/2 over the shared-cluster fleet, run twice
    if !sc.jobs.is_empty() {
        let f1 = fleet_run(sc, &hw, &mut out);
        let mut scratch = Vec::new();
        let f2 = fleet_run(sc, &hw, &mut scratch);
        if f1 != f2 {
            violation(
                &mut out,
                DETERMINISM,
                format!("same-seed fleet logs diverge:\n--- run 1\n{f1}--- run 2\n{f2}"),
            );
        }
    }

    if let Some(col) = collector {
        col.metrics().inc("fuzz.scenarios");
        for v in &out {
            col.metrics().inc("fuzz.violations");
            col.emit(
                "fuzz.violation",
                jobj! { "family" => v.family, "detail" => v.detail.as_str() },
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_scenarios_uphold_all_invariants() {
        for i in 0..4 {
            let sc = Scenario::generate(0, i);
            let v = check(&sc, Sabotage::None, None);
            assert!(v.is_empty(), "scenario {i} violated: {:?}", v);
        }
    }

    #[test]
    fn sabotage_is_caught() {
        let sc = Scenario::generate(0, 0);
        let v = check(&sc, Sabotage::Placement, None);
        assert!(
            v.iter().any(|v| v.family == PLACEMENT_VALIDITY),
            "placement sabotage not caught: {v:?}"
        );
        let v = check(&sc, Sabotage::Cache, None);
        assert!(
            v.iter().any(|v| v.family == CACHE_IDENTITY),
            "cache sabotage not caught: {v:?}"
        );
    }
}
