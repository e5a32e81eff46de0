//! Post-mortem telemetry report for one FastT pre-training session.
//!
//! Runs a session with a JSONL telemetry sink attached, then reads the
//! event stream back and prints what happened: the activation/rollback
//! timeline, where time waits in queues, and how the cost models' accuracy
//! evolved.
//!
//! ```bash
//! cargo run --release -p fastt-bench --bin report -- alexnet 4 /tmp/fastt-report
//! # multi-server: SERVERSxGPUS (2 servers of 4 GPUs over RDMA)
//! cargo run --release -p fastt-bench --bin report -- alexnet 2x4 /tmp/fastt-report
//! # replay a scenario file's faults and lifecycle events, then train for
//! # its `iters` (device chaos, network chaos, elastic churn):
//! cargo run --release -p fastt-bench --bin report -- lenet 4 /tmp/fastt-report \
//!     --scenario fuzz/corpus/chaos-21.fuzz
//! cargo run --release -p fastt-bench --bin report -- lenet 2x2 /tmp/fastt-report \
//!     --scenario fuzz/corpus/netchaos-21.fuzz
//! cargo run --release -p fastt-bench --bin report -- lenet 2x2 /tmp/fastt-report \
//!     --scenario fuzz/corpus/churn-21.fuzz
//! # multi-tenant fleet (seeded job arrivals, preemption, shared plan cache):
//! cargo run --release -p fastt-bench --bin report -- lenet 2x4 /tmp/fastt-report fleet:21
//! ```

use fastt::search::{CemPlanner, GdpPlanner, McmcPlanner, RandomPlanner, ReinforcePlanner};
use fastt::{Portfolio, PortfolioInputs, SessionConfig, TrainingSession};
use fastt_bench::{dp_ps_for, per_replica_batch};
use fastt_cluster::Topology;
use fastt_sim::faults::scenario_lines;
use fastt_sim::{FaultSchedule, HardwarePerf, SimConfig};
use fastt_telemetry::{parse_jsonl, Collector, Event, JsonlSink};
use std::path::PathBuf;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let model_arg = args.next().unwrap_or_else(|| "alexnet".into());
    // `N` → one server with N GPUs; `SxG` → S servers of G GPUs over RDMA.
    let topo_arg = args.next().unwrap_or_else(|| "2".into());
    let (topo, topo_label) = parse_topology(&topo_arg)?;
    let gpus = topo.gpu_count() as u16;
    let outdir = PathBuf::from(args.next().unwrap_or_else(|| "report-out".into()));
    std::fs::create_dir_all(&outdir)?;

    let needle = model_arg.to_lowercase();
    let model = fastt_models::Model::all()
        .into_iter()
        .find(|m| m.name().to_lowercase().contains(&needle))
        .ok_or_else(|| format!("unknown model `{model_arg}`"))?;

    // Optional 4th argument: `--scenario <file>` injects the fault and
    // lifecycle lines of a scenario file (the `fuzz/corpus/` format) and
    // runs the normal-training stage for the file's `iters`, so the
    // recovery machinery has something to do; `fleet[:seed]` runs a seeded
    // multi-tenant fleet instead of one session.
    let scenario = match args.next().as_deref() {
        None => None,
        Some("--scenario") => {
            let path = args.next().ok_or("`--scenario` needs a scenario file")?;
            Some(load_scenario(&path, &topo)?)
        }
        Some("fleet") => return fleet_report(model, topo, &topo_label, &outdir, 21),
        Some(arg) => {
            let seed = arg.strip_prefix("fleet:").ok_or_else(|| {
                format!("unknown argument `{arg}` (expected `--scenario <file>` or `fleet[:seed]`)")
            })?;
            let seed = seed
                .parse()
                .map_err(|_| format!("fleet seed must be an integer, got `{seed}`"))?;
            return fleet_report(model, topo, &topo_label, &outdir, seed);
        }
    };
    let (faults, scenario_iters) = scenario.unzip();

    let batch = per_replica_batch(model, model.paper_batch(), gpus as u32);
    let graph = model.training_graph(batch);
    let config = SessionConfig {
        dp_ps: dp_ps_for(model),
        faults: faults.map(Arc::new),
        ..SessionConfig::default()
    };

    let jsonl_path = outdir.join(format!("{needle}-{topo_label}.events.jsonl"));
    let collector = Arc::new(Collector::new().with_sink(JsonlSink::create(&jsonl_path)?));

    let mut session = TrainingSession::new(&graph, topo.clone(), HardwarePerf::new(), config)?;
    session.attach_collector(collector.clone());
    let report = session.pre_train()?;
    if let Some(iters) = scenario_iters {
        // run into the fault windows so the recovery timeline has content
        session.train_normal(iters, 5)?;
    }
    collector.flush();

    // ---- Post-mortem: everything below is reconstructed from the JSONL
    // stream, exactly as an offline analysis of a saved run would do.
    let events = parse_jsonl(&std::fs::read_to_string(&jsonl_path)?);
    if events.is_empty() {
        return Err("event stream is empty — telemetry produced nothing".into());
    }

    println!("=== FastT session post-mortem: {model} on {topo_label} ({gpus} GPUs) ===");
    println!(
        "{} events in {} | rounds {} | activations {} | rollbacks {} | final iter {:.3} ms",
        events.len(),
        jsonl_path.display(),
        report.rounds,
        report.activations,
        report.rollbacks,
        report.final_iter_time * 1e3,
    );

    println!("\n--- Activation / rollback timeline ---");
    let mut any = false;
    for e in &events {
        let by = score_key(e);
        let line = match e.kind.as_str() {
            "session.round" => format!(
                "round {} starts (measured {:.3} ms, drift {:.3})",
                e.field("round"),
                ms(e, "measured"),
                e.num("drift").unwrap_or(0.0),
            ),
            "session.candidate" => format!(
                "  candidate [{}] {} {:.3} ms vs measured {:.3} ms",
                e.str_field("kind").unwrap_or("?"),
                by,
                ms(e, if by == "est" { "est_finish" } else { by }),
                ms(e, "measured"),
            ),
            "session.activation" => format!(
                "  ACTIVATED [{}]: {:.3} -> {:.3} ms ({} was {:.3} ms, off by {:+.1}%)",
                e.str_field("kind").unwrap_or("?"),
                ms(e, "measured_before"),
                ms(e, "measured_after"),
                by,
                ms(e, by),
                e.num(&format!("{by}_error")).unwrap_or(0.0) * 100.0,
            ),
            "session.rollback" => format!(
                "  ROLLED BACK [{}]: {} {:.3} ms but measured {:.3} ms (was {:.3} ms)",
                e.str_field("kind").unwrap_or("?"),
                by,
                ms(e, by),
                ms(e, "measured_after"),
                ms(e, "measured_before"),
            ),
            _ => continue,
        };
        any = true;
        println!("[{:>9} us] {line}", e.t_us);
    }
    if !any {
        println!("(no strategy changes recorded)");
    }

    println!("\n--- Planner arbitration ---");
    let mut any_planner = false;
    for e in &events {
        let line = match e.kind.as_str() {
            "planner.cache_hit" => format!(
                "  cache HIT  [{}] (graph {:016x}, shape {:016x}, cost gen {})",
                e.str_field("planner").unwrap_or("?"),
                e.num("graph_hash").unwrap_or(0.0) as u64,
                e.num("capacity_mask").unwrap_or(0.0) as u64,
                e.field("cost_generation"),
            ),
            "planner.candidate" => {
                let cached = e.field("cached").as_bool().unwrap_or(false);
                let selected = e.field("selected").as_bool().unwrap_or(false);
                let sim = e.num("simulated").unwrap_or(f64::NAN);
                format!(
                    "  candidate [{}/{}] est {:.3} ms{}{}{}{}",
                    e.str_field("planner").unwrap_or("?"),
                    e.str_field("kind").unwrap_or("?"),
                    ms(e, "est_finish"),
                    if sim.is_nan() {
                        String::new()
                    } else {
                        format!(", probed {:.3} ms", sim * 1e3)
                    },
                    match e.num("evals_used") {
                        Some(v) if v > 0.0 => format!(", {v} evals"),
                        _ => String::new(),
                    },
                    if cached { " (cached)" } else { "" },
                    if selected { "  << selected" } else { "" },
                )
            }
            "planner.selected" => format!(
                "  WINNER [{}] by {} at {:.3} ms ({} candidates)",
                e.str_field("planner").unwrap_or("?"),
                e.str_field("by").unwrap_or("?"),
                ms(e, "score"),
                e.field("candidates"),
            ),
            _ => continue,
        };
        any_planner = true;
        println!("[{:>9} us] {line}", e.t_us);
    }
    if !any_planner {
        println!("(no portfolio evaluations recorded)");
    }
    println!(
        "plan cache: {} hits / {} misses, {} plans held",
        session.plan_cache().hits(),
        session.plan_cache().misses(),
        session.plan_cache().len(),
    );
    println!(
        "region sub-plans: {} hits / {} misses",
        session.plan_cache().region_hits(),
        session.plan_cache().region_misses(),
    );

    println!("\n--- Hierarchical decomposition ---");
    let hier: Vec<&Event> = events.iter().filter(|e| e.kind == "hier.plan").collect();
    if hier.is_empty() {
        println!("(the hierarchical planner never completed a plan this run)");
    }
    for e in &hier {
        let ops = e.num("ops").unwrap_or(0.0);
        let regions = e.num("regions").unwrap_or(0.0);
        println!(
            "[{:>9} us] {} ops -> {} regions ({:.1}x collapse, {} rounds) | \
             decompose {:.3} ms ({}), across {:.3} ms, within {:.3} ms | \
             {} region-cache hits | est {:.3} ms",
            e.t_us,
            ops,
            regions,
            if regions > 0.0 { ops / regions } else { 0.0 },
            e.field("rounds"),
            ms(e, "decompose_secs"),
            match e.field("decompose_cached").as_bool() {
                Some(true) => "memo hit",
                Some(false) => "cold",
                None => "?",
            },
            ms(e, "across_secs"),
            ms(e, "within_secs"),
            e.field("region_cache_hits"),
            ms(e, "est_finish"),
        );
    }

    println!("\n--- Fault / recovery timeline ---");
    let mut any_fault = false;
    // the engine re-emits `fault.injected` on every iteration a fault is
    // active; the timeline only needs the first sighting of each fault
    let mut seen_faults = std::collections::HashSet::new();
    // a flapping transfer retries up to the budget: aggregate all of its
    // attempts so the timeline shows ONE line per retried transfer with the
    // retry count, not one line per attempt
    let mut retry_totals: std::collections::HashMap<String, (u64, f64)> =
        std::collections::HashMap::new();
    for e in &events {
        if e.kind == "comm.retry" {
            let key = format!(
                "{}/{}/{}/{}",
                e.field("op"),
                e.field("src"),
                e.field("dst"),
                e.field("iteration"),
            );
            let ent = retry_totals.entry(key).or_default();
            ent.0 += 1;
            ent.1 += e.num("backoff").unwrap_or(0.0);
        }
    }
    let mut seen_retries = std::collections::HashSet::new();
    for e in &events {
        let line = match e.kind.as_str() {
            "fault.injected" => {
                let key = format!(
                    "{}/{}/{}/{}/{}",
                    e.str_field("kind").unwrap_or("?"),
                    e.str_field("scope").unwrap_or("device"),
                    e.field("device"),
                    e.field("from_iter"),
                    e.field("until_iter"),
                );
                if !seen_faults.insert(key) {
                    continue;
                }
                let until = match e.num("until_iter") {
                    Some(v) if v > 1e18 => "forever".to_string(),
                    _ => e.field("until_iter").to_string(),
                };
                format!(
                    "fault [{}] on {} {} (iterations {}..{until})",
                    e.str_field("kind").unwrap_or("?"),
                    e.str_field("scope").unwrap_or("device"),
                    e.field("device"),
                    e.field("from_iter"),
                )
            }
            "comm.retry" => {
                let key = format!(
                    "{}/{}/{}/{}",
                    e.field("op"),
                    e.field("src"),
                    e.field("dst"),
                    e.field("iteration"),
                );
                if !seen_retries.insert(key.clone()) {
                    continue;
                }
                let (count, backoff) = retry_totals.get(&key).copied().unwrap_or((1, 0.0));
                format!(
                    "  link retry x{count} on {}->{} (op {}, iteration {}, total backoff {:.1} ms)",
                    e.field("src"),
                    e.field("dst"),
                    e.field("op"),
                    e.field("iteration"),
                    backoff * 1e3,
                )
            }
            "health.degraded" => format!(
                "  DEGRADED device {} running {:.2}x slower than predicted (iteration {})",
                e.field("device"),
                e.num("slowdown").unwrap_or(f64::NAN),
                e.field("iteration"),
            ),
            "health.restored" => format!(
                "  restored device {} (iteration {})",
                e.field("device"),
                e.field("iteration"),
            ),
            "session.retry" => format!(
                "  retry attempt {} on device {} (iteration {}, backoff {:.0} ms)",
                e.field("attempt"),
                e.field("device"),
                e.field("iteration"),
                ms(e, "backoff_secs"),
            ),
            "session.replan" => format!(
                "  REPLAN [{}] over {} survivors (iteration {}, failed {})",
                e.str_field("reason").unwrap_or("?"),
                e.field("survivors"),
                e.field("iteration"),
                e.field("failed"),
            ),
            "session.fallback" => format!(
                "  FELL BACK to [{}] at {:.3} ms (iteration {})",
                e.str_field("kind").unwrap_or("?"),
                ms(e, "measured"),
                e.field("iteration"),
            ),
            "session.recovered" => format!(
                "  RECOVERED with [{}] on {} survivors at {:.3} ms (iteration {})",
                e.str_field("kind").unwrap_or("?"),
                e.field("survivors"),
                ms(e, "measured"),
                e.field("iteration"),
            ),
            _ => continue,
        };
        any_fault = true;
        println!("[{:>9} us] {line}", e.t_us);
    }
    if !any_fault {
        println!("(no faults injected — pass `--scenario fuzz/corpus/chaos-21.fuzz`)");
    } else {
        let topo_now = session.topology();
        println!(
            "surviving GPUs {}/{} | blacklisted {:?} | {} recovery decisions",
            topo_now.gpu_count(),
            gpus,
            topo_now
                .failed_devices()
                .iter()
                .map(|d| d.0)
                .collect::<Vec<_>>(),
            session.recovery_log().len(),
        );
    }

    println!("\n--- Link-health / partition timeline ---");
    let mut any_link = false;
    for e in &events {
        let line = match e.kind.as_str() {
            "fault.link" => format!(
                "LINK FAULT [{}] on hop {}->{} (iteration {})",
                e.str_field("kind").unwrap_or("?"),
                e.field("src"),
                e.field("dst"),
                e.field("iteration"),
            ),
            "health.link_degraded" => format!(
                "  DEGRADED link {}->{} running {:.2}x slower than predicted (iteration {})",
                e.field("src"),
                e.field("dst"),
                e.num("slowdown").unwrap_or(f64::NAN),
                e.field("iteration"),
            ),
            "health.link_restored" => format!(
                "  restored link {}->{} (iteration {})",
                e.field("src"),
                e.field("dst"),
                e.field("iteration"),
            ),
            "health.link_failed" => format!(
                "  FAILED link {}->{} blacklisted (iteration {})",
                e.field("src"),
                e.field("dst"),
                e.field("iteration"),
            ),
            "session.partition" => format!(
                "  PARTITION server {} unreachable; blacklisting its devices (iteration {})",
                e.field("server"),
                e.field("iteration"),
            ),
            "session.stranded" => format!(
                "  stranded GPUs dropped: {} (iteration {})",
                e.field("dropped"),
                e.field("iteration"),
            ),
            "session.unreachable" => format!(
                "  UNREACHABLE {}->{}: no live route (iteration {})",
                e.field("src"),
                e.field("dst"),
                e.field("iteration"),
            ),
            "comm.collective_abort" => format!(
                "  COLLECTIVE ABORT [{}] with {} participants: {} (iteration {})",
                e.str_field("kind").unwrap_or("?"),
                e.field("participants"),
                e.str_field("error").unwrap_or("?"),
                e.field("iteration"),
            ),
            "session.degraded_mode" => format!(
                "  DEGRADED MODE [{}] over {} survivors (reason {}, iteration {})",
                e.str_field("mode").unwrap_or("?"),
                e.field("survivors"),
                e.str_field("reason").unwrap_or("?"),
                e.field("iteration"),
            ),
            _ => continue,
        };
        any_link = true;
        println!("[{:>9} us] {line}", e.t_us);
    }
    if !any_link {
        println!("(no link-health events — pass `--scenario fuzz/corpus/netchaos-21.fuzz`)");
    } else {
        let hm = session.health();
        println!(
            "link-health summary: {} failed, {} degraded | retried transfers: {}",
            hm.failed_links().len(),
            hm.degraded_links().len(),
            retry_totals.len(),
        );
    }
    // Every lowered plan passed the comm-plan cycle validator (a Deadlock
    // error would have aborted the session before this line prints).
    println!("deadlocks: 0");

    elasticity_section(&events);

    println!("\n--- Top 10 queue-wait ops (final plan, one iteration) ---");
    // The final plan runs on the live view: under elastic churn it can
    // place ops on GPUs that joined after launch.
    let plan = session.current_plan();
    let live = session.topology();
    let trace = plan.simulate(live, &HardwarePerf::new(), &SimConfig::default())?;
    let names: Vec<String> = plan.graph.iter_ops().map(|(_, o)| o.name.clone()).collect();
    let top = trace.top_queue_waits(10);
    if top.is_empty() {
        println!("(no op ever waited in a ready queue)");
    }
    for (op, wait) in top {
        println!(
            "{:>10.1} us  {}",
            wait * 1e6,
            names.get(op.index()).map(String::as_str).unwrap_or("?")
        );
    }
    let per_dev = trace.device_queue_wait();
    println!(
        "per-device queue-wait totals (ms): {:?} | channel contention {:.3} ms",
        per_dev.iter().map(|w| w * 1e3).collect::<Vec<_>>(),
        trace.contention * 1e3,
    );

    communication_section(&graph, &topo);

    // Fig.-3 search baselines, re-planned from the session's *final* graph
    // and trained cost models, arbitrated by one probed iteration each —
    // small budgets, this is a report not a benchmark.
    println!("\n--- Search-baseline comparison (final graph, trained cost models) ---");
    let search_portfolio = Portfolio::new()
        .with(Box::new(GdpPlanner))
        .with(Box::new(McmcPlanner {
            evals: 200,
            ..McmcPlanner::default()
        }))
        .with(Box::new(CemPlanner {
            rounds: 6,
            pop: 8,
            ..CemPlanner::default()
        }))
        .with(Box::new(ReinforcePlanner {
            rounds: 6,
            batch: 6,
            ..ReinforcePlanner::default()
        }))
        .with(Box::new(RandomPlanner::default()));
    let search_outcome = search_portfolio.evaluate(
        &PortfolioInputs {
            graph: &plan.graph,
            raw: None,
            current: Some(plan),
            topo: live,
            hw: &HardwarePerf::new(),
            cost: &session.cost,
            collector: None,
            enable_order: true,
            dp_ps: None,
            cache_salt: 0,
            probe: Some(SimConfig::default()),
        },
        None,
    );
    println!(
        "| {:<12} | {:<13} | {:>9} | {:>6} |",
        "Method", "Source", "Sim (ms)", "Evals"
    );
    println!(
        "| {:<12} | {:<13} | {:>9.3} | {:>6} |",
        "fastt",
        "session plan",
        trace.makespan * 1e3,
        "-"
    );
    for c in &search_outcome.candidates {
        match c.simulated {
            Some(s) => println!(
                "| {:<12} | {:<13} | {:>9.3} | {:>6} |",
                c.planner,
                "search",
                s * 1e3,
                c.evals_used,
            ),
            None => println!(
                "| {:<12} | {:<13} | {:>9} | {:>6} |",
                c.planner, "search", "ERR", c.evals_used,
            ),
        }
    }

    println!("\n--- Cost-model error trend ---");
    let errs: Vec<&Event> = events.iter().filter(|e| e.kind == "cost.error").collect();
    if errs.is_empty() {
        println!("(models were never scored — no re-profile happened)");
    }
    for e in &errs {
        println!(
            "[{:>9} us] MAPE {:.2}% (worst {:.1}%, {} comp + {} comm samples)",
            e.t_us,
            e.num("mape").unwrap_or(0.0) * 100.0,
            e.num("worst").unwrap_or(0.0) * 100.0,
            e.field("comp_samples"),
            e.field("comm_samples"),
        );
    }
    if let (Some(first), Some(last)) = (errs.first(), errs.last()) {
        println!(
            "trend: {:.2}% -> {:.2}% over {} scorings",
            first.num("mape").unwrap_or(0.0) * 100.0,
            last.num("mape").unwrap_or(0.0) * 100.0,
            errs.len()
        );
    }

    // ---- Perf: where the strategy-calculation time went (the profile
    // tree accumulated by the instrumented planner/simulator hot paths)
    // and whether the declared latency SLOs held.
    println!("\n--- Perf: profile tree ---");
    if collector.profiler().is_empty() {
        println!("(no profiled phases — planners never ran with this collector)");
    } else {
        print!("{}", collector.profiler().render());
        let hot = collector.profiler().hotspots(5);
        println!("top self-time hotspots:");
        for h in &hot {
            println!(
                "  {:<44} {:>10} self  x{}",
                h.path,
                fastt_telemetry::fmt_secs(h.self_secs),
                h.calls
            );
        }
    }
    println!("\n--- Perf: SLO verdicts ---");
    for v in fastt_telemetry::evaluate_slos(&fastt::default_slos(), collector.metrics()) {
        println!("{}", v.render());
    }

    println!("\n--- Metrics registry ---");
    println!("{}", collector.metrics().to_json());

    // A Perfetto-ready trace of the final plan, with named tracks and
    // per-device memory counters.
    let full_cfg = SimConfig {
        record_mem_timeline: true,
        ..SimConfig::default()
    };
    let full = plan.simulate(live, &HardwarePerf::new(), &full_cfg)?;
    let trace_path = outdir.join(format!("{needle}-{topo_label}.trace.json"));
    std::fs::write(&trace_path, full.to_chrome_trace_full(&names, live))?;
    println!("\nperfetto trace: {}", trace_path.display());
    println!("event stream  : {}", jsonl_path.display());
    Ok(())
}

/// Millisecond rendering of a seconds field (NaN when absent).
fn ms(e: &Event, field: &str) -> f64 {
    e.num(field).map(|v| v * 1e3).unwrap_or(f64::NAN)
}

/// What a strategy trial was gated on: `probe` for a candidate scored by
/// its probe (the ring-DP incumbent step), `est` for the planners' own
/// estimates.
fn score_key(e: &Event) -> &'static str {
    if e.field("probe").is_null() {
        "est"
    } else {
        "probe"
    }
}

/// `fleet[:seed]` mode: a multi-tenant run of the seeded arrival workload
/// through [`fastt::fleet::ClusterManager`] on one shared topology, reported as a
/// cluster-level post-mortem — admission/preemption timeline, utilization,
/// per-job queue-wait and iteration-time timelines, shared plan-cache
/// stats, and the fleet + planner SLO verdicts.
fn fleet_report(
    model: fastt_models::Model,
    topo: Topology,
    topo_label: &str,
    outdir: &std::path::Path,
    seed: u64,
) -> Result<(), Box<dyn std::error::Error>> {
    use fastt::fleet::{fleet_slos, seeded_workload, ClusterManager, FleetEvent};

    let gpus = topo.gpu_count() as u32;
    let total = topo.gpu_count();
    let name = model.name().to_lowercase();
    // Two templates of the same model at different per-replica batches:
    // the workload's twin jobs share the first, so the fleet exercises the
    // shared-cache admission path; the second adds shape diversity.
    let big = per_replica_batch(model, model.paper_batch(), gpus);
    let small = (big / 2).max(model.min_batch());
    let templates = vec![
        (format!("{name}{big}"), model.training_graph(big)),
        (format!("{name}{small}"), model.training_graph(small)),
    ];

    let jsonl_path = outdir.join(format!("fleet-{topo_label}-seed{seed}.events.jsonl"));
    let collector = Arc::new(Collector::new().with_sink(JsonlSink::create(&jsonl_path)?));
    let mut fleet =
        ClusterManager::new(topo, HardwarePerf::new(), seed).with_collector(collector.clone());
    let workload = seeded_workload(seed, &templates, total);
    let n_jobs = workload.len();
    for spec in workload {
        fleet.submit(spec);
    }
    let report = fleet.run()?;
    collector.flush();

    println!("=== FastT fleet post-mortem: {n_jobs} jobs on {topo_label} (seed {seed}) ===");
    println!(
        "{} scheduling events over {} ticks | max concurrent jobs: {} | preemptions: {}",
        report.events.len(),
        report.ticks,
        report.max_concurrent,
        report.preemptions,
    );

    // The deterministic decision log: byte-identical across same-seed
    // runs, so CI can diff it. Saved next to the JSONL stream.
    println!("\n--- Fleet decision log ---");
    print!("{}", report.event_log());
    let log_path = outdir.join(format!("fleet-{topo_label}-seed{seed}.log"));
    std::fs::write(&log_path, report.event_log())?;

    println!("\n--- Cluster utilization timeline ---");
    if report.utilization.is_empty() {
        println!("(empty — no ticks ran)");
    }
    for (t, busy, total) in &report.utilization {
        let width = 24usize;
        let filled = (busy * width) / total.max(&1);
        let bar: String = (0..width)
            .map(|i| if i < filled { '#' } else { '-' })
            .collect();
        println!("t={t:03} [{bar}] {busy}/{total}");
    }
    println!(
        "utilization samples: {} | mean utilization: {:.1}%",
        report.utilization.len(),
        report.mean_utilization() * 100.0
    );

    println!("\n--- Per-job outcomes ---");
    println!(
        "| {:<14} | {:>4} | {:>5} | {:>12} | {:>6} | {:>8} | {:>8} |",
        "Job", "Wait", "Iters", "Mean iter", "Cached", "Preempts", "Deadline"
    );
    for j in &report.jobs {
        println!(
            "| {:<14} | {:>4} | {:>5} | {:>9.3} ms | {:>6} | {:>8} | {:>8} |",
            j.name,
            j.queue_wait,
            j.iters_run,
            j.mean_iter_time * 1e3,
            j.cached_start,
            j.preemptions,
            if j.deadline_met { "met" } else { "MISSED" },
        );
    }

    println!("\n--- Per-job iteration-time timelines (ms) ---");
    for j in &report.jobs {
        let series: Vec<String> = j
            .iter_times
            .iter()
            .map(|t| format!("{:.3}", t * 1e3))
            .collect();
        println!("{:<14} {}", j.name, series.join(" "));
    }

    println!("\n--- Shared plan cache ---");
    println!(
        "hits: {} | misses: {} | resident plans: {}",
        report.cache_hits, report.cache_misses, report.cache_len
    );
    let cached_admissions = report.jobs.iter().filter(|j| j.cached_start).count();
    println!("admissions served from a sibling's plan: {cached_admissions}");

    // Deadlock-freedom: preemptions and grants never wedged the scheduler,
    // and every survivor's plan passed the comm-plan cycle validator (a
    // Deadlock error would have aborted `run()` above).
    let rejected = report
        .events
        .iter()
        .filter(|e| matches!(e, FleetEvent::Rejected { .. }))
        .count();
    println!(
        "\njobs departed: {} | rejected: {}",
        report.jobs.len(),
        rejected
    );
    println!("deadlocks: {}", report.deadlocks);

    println!("\n--- Perf: SLO verdicts ---");
    let mut slos = fastt::default_slos();
    slos.extend(fleet_slos());
    for v in fastt_telemetry::evaluate_slos(&slos, collector.metrics()) {
        println!("{}", v.render());
    }

    println!("\n--- Metrics registry ---");
    println!("{}", collector.metrics().to_json());
    println!("\nfleet log     : {}", log_path.display());
    println!("event stream  : {}", jsonl_path.display());
    Ok(())
}

/// Cluster-capacity / elasticity timeline: the scripted lifecycle events
/// (revocations, arrivals, hot-adds), the session's drain → quarantine →
/// restore → promote trajectory, and the live-GPU count against the
/// simulated per-iteration time whenever capacity moved.
fn elasticity_section(events: &[Event]) {
    println!("\n--- Cluster-capacity / elasticity timeline ---");
    // the engine re-emits a revocation's `fault.lifecycle` on every
    // iteration of its notice window: dedupe to ONE line per
    // (kind, device, at_iter) with a repeat count, not one per sighting
    let mut lifecycle_totals: std::collections::HashMap<String, u64> =
        std::collections::HashMap::new();
    for e in events {
        if e.kind == "fault.lifecycle" {
            let key = format!(
                "{}/{}/{}",
                e.str_field("kind").unwrap_or("?"),
                e.field("device"),
                e.field("at_iter"),
            );
            *lifecycle_totals.entry(key).or_default() += 1;
        }
    }
    let mut seen_lifecycle = std::collections::HashSet::new();
    let mut any_elastic = false;
    for e in events {
        let line = match e.kind.as_str() {
            "fault.lifecycle" => {
                let key = format!(
                    "{}/{}/{}",
                    e.str_field("kind").unwrap_or("?"),
                    e.field("device"),
                    e.field("at_iter"),
                );
                if !seen_lifecycle.insert(key.clone()) {
                    continue;
                }
                let n = lifecycle_totals.get(&key).copied().unwrap_or(1);
                format!(
                    "lifecycle [{}] device {} (at iter {}, deadline {}){}",
                    e.str_field("kind").unwrap_or("?"),
                    e.field("device"),
                    e.field("at_iter"),
                    e.field("deadline"),
                    if n > 1 {
                        format!(" x{n}")
                    } else {
                        String::new()
                    },
                )
            }
            "session.revocation_notice" => format!(
                "  REVOCATION NOTICE device {} dies at iteration {} (noticed at {})",
                e.field("device"),
                e.field("deadline"),
                e.field("iteration"),
            ),
            "session.drained" => format!(
                "  DRAINED device {} ahead of deadline {} (iteration {})",
                e.field("device"),
                e.field("deadline"),
                e.field("iteration"),
            ),
            "session.quarantine" => format!(
                "  QUARANTINED device {} until iteration {} (readmitted at {})",
                e.field("device"),
                e.field("until"),
                e.field("iteration"),
            ),
            "session.scaled_up" => format!(
                "  SCALED UP to {} GPUs: device {} restored (iteration {})",
                e.field("gpus"),
                e.field("device"),
                e.field("iteration"),
            ),
            "session.link_restored" => format!(
                "  link {}->{} restored (iteration {})",
                e.field("src"),
                e.field("dst"),
                e.field("iteration"),
            ),
            "session.promoted" => format!(
                "  PROMOTED [{}] to rung [{}] over {} survivors: \
                 {:.3} -> {:.3} ms/replica (iteration {})",
                e.str_field("kind").unwrap_or("?"),
                e.str_field("rung").unwrap_or("?"),
                e.field("survivors"),
                ms(e, "incumbent"),
                ms(e, "candidate"),
                e.field("iteration"),
            ),
            "session.promotion_held" => format!(
                "  promotion HELD: candidate {:.3} vs incumbent {:.3} ms/replica \
                 within margin (iteration {})",
                ms(e, "candidate"),
                ms(e, "incumbent"),
                e.field("iteration"),
            ),
            _ => continue,
        };
        any_elastic = true;
        println!("[{:>9} us] {line}", e.t_us);
    }
    if !any_elastic {
        println!("(no capacity changes — pass `--scenario fuzz/corpus/churn-21.fuzz`)");
        return;
    }
    // Capacity timeline: the live-GPU count every time it moved, against
    // the last simulated per-iteration time observed at that point.
    let mut last_makespan: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for e in events {
        if e.kind == "sim.iteration" {
            if let (Some(i), Some(m)) = (e.num("iteration"), e.num("makespan")) {
                last_makespan.insert(i as u64, m);
            }
        }
    }
    let mut timeline: Vec<(u64, u64)> = Vec::new();
    for e in events {
        let (iter, gpus) = match e.kind.as_str() {
            "session.replan" => (e.num("iteration"), e.num("survivors")),
            "session.scaled_up" => (e.num("iteration"), e.num("gpus")),
            _ => continue,
        };
        if let (Some(i), Some(g)) = (iter, gpus) {
            if timeline
                .last()
                .map(|&(_, lg)| lg != g as u64)
                .unwrap_or(true)
            {
                timeline.push((i as u64, g as u64));
            }
        }
    }
    println!("capacity timeline (live GPUs vs simulated iteration time):");
    println!(
        "| {:>9} | {:>4} | {:>9} |",
        "iteration", "GPUs", "iter (ms)"
    );
    for (i, g) in &timeline {
        match last_makespan.range(..=*i).next_back() {
            Some((_, m)) => println!("| {:>9} | {:>4} | {:>9.3} |", i, g, m * 1e3),
            None => println!("| {:>9} | {:>4} | {:>9} |", i, g, "-"),
        }
    }
    let count = |k: &str| events.iter().filter(|e| e.kind == k).count();
    // every promoted/held decision ran a full re-plan over the enlarged
    // survivor set — that is the scale-up re-plan count CI gates on
    println!(
        "scale-up replans: {} | drains: {} | quarantines: {} | scale-ups: {} | promotions: {}",
        count("session.promoted") + count("session.promotion_held"),
        count("session.drained"),
        count("session.quarantine"),
        count("session.scaled_up"),
        count("session.promoted"),
    );
}

/// The fault schedule and iteration count of the scenario file at `path`,
/// with the schedule checked against `topo`.
fn load_scenario(path: &str, topo: &Topology) -> Result<(FaultSchedule, u32), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read scenario `{path}`: {e}"))?;
    let err = |e: String| format!("scenario `{path}`: {e}");
    let faults = FaultSchedule::from_scenario(&text).map_err(err)?;
    let gpus = topo.gpu_count() as u16;
    let servers = topo.device_ids().map(|d| topo.server_of(d) + 1).max();
    let servers = servers.unwrap_or(1);
    let outside = |entry: String| {
        err(format!(
            "`{entry}` names a device or server outside {gpus} GPUs on {servers} server(s)"
        ))
    };
    if let Some(f) = faults.faults().iter().find(|f| !f.fits(gpus, servers)) {
        return Err(outside(format!("fault = {f}")));
    }
    if let Some(e) = faults.lifecycle().iter().find(|e| !e.fits(gpus)) {
        return Err(outside(format!("lifecycle = {e}")));
    }
    let iters = scenario_lines(&text)
        .flatten()
        .find(|&(_, key, _)| key == "iters")
        .ok_or_else(|| err("missing `iters`".into()))?
        .2;
    let iters = iters
        .parse()
        .map_err(|_| err(format!("`iters` must be an integer, got `{iters}`")))?;
    Ok((faults, iters))
}

/// `N` → one server with N GPUs; `SxG` → S servers of G GPUs each. Returns
/// the topology and a filesystem-safe label (`4gpu`, `2x4`).
fn parse_topology(arg: &str) -> Result<(Topology, String), String> {
    if let Some((s, g)) = arg.split_once('x') {
        let servers: u16 = s
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("server count must be a positive integer, got `{s}`"))?;
        let per: u16 = g
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("GPUs per server must be a positive integer, got `{g}`"))?;
        return Ok((
            Topology::multi_server(servers, per),
            format!("{servers}x{per}"),
        ));
    }
    let n: u16 = arg
        .parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("GPU count must be `N` or `SxG`, got `{arg}`"))?;
    Ok((Topology::single_server(n), format!("{n}gpu")))
}

/// Compares the two data-parallel gradient-aggregation strategies on the
/// raw training graph: the parameter-server funnel vs ring all-reduce
/// collectives, with per-link-class traffic totals for each. Everything is
/// one plain simulated iteration — no profiling, no cost models.
fn communication_section(graph: &fastt_graph::Graph, topo: &Topology) {
    use fastt_cluster::LinkClass;
    use fastt_graph::{replicate_grouped, ReplicationMode};

    println!("\n--- Communication: PS funnel vs ring all-reduce (data parallel) ---");
    if topo.gpu_count() < 2 {
        println!("(needs at least 2 GPUs)");
        return;
    }
    let groups: Vec<u16> = topo.gpu_ids().map(|d| topo.server_of(d)).collect();
    let mut results: Vec<(&str, f64, f64, usize)> = Vec::new();
    println!(
        "| {:<22} | {:>9} | {:>12} | {:>11} | traffic by link class |",
        "Aggregation", "Sim (ms)", "Agg comm (ms)", "Collectives"
    );
    for (label, mode) in [
        ("parameter server", ReplicationMode::ParameterServer),
        ("ring all-reduce", ReplicationMode::AllReduce),
    ] {
        let rep = match replicate_grouped(graph, &groups, mode) {
            Ok(r) => r,
            Err(e) => {
                println!("| {label:<22} | replication failed: {e} |");
                continue;
            }
        };
        let plan = fastt::data_parallel_plan(&rep, topo);
        let tr = match plan.simulate(topo, &HardwarePerf::new(), &SimConfig::default()) {
            Ok(t) => t,
            Err(e) => {
                println!("| {label:<22} | simulation failed: {e} |");
                continue;
            }
        };
        // time spent moving/reducing gradients: P2P transfers into the
        // aggregation nodes for PS, collective durations for all-reduce
        let agg_comm: f64 = if mode == ReplicationMode::AllReduce {
            tr.collectives.iter().map(|c| c.duration()).sum()
        } else {
            let agg: Vec<bool> = plan
                .graph
                .iter_ops()
                .map(|(_, o)| o.kind == fastt_graph::OpKind::AggregateGradients)
                .collect();
            tr.transfers
                .iter()
                .filter(|t| agg.get(t.dst_op.index()).copied().unwrap_or(false))
                .map(|t| t.duration())
                .sum()
        };
        let mut by_class: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for t in &tr.transfers {
            let class = match topo.link_class(t.src_dev, t.dst_dev) {
                Some(LinkClass::NvLink) => "nvlink",
                Some(LinkClass::Pcie) => "pcie",
                Some(LinkClass::Eth) => "eth",
                Some(LinkClass::Rdma) => "rdma",
                None => "local",
            };
            *by_class.entry(class).or_default() += t.bytes;
        }
        let traffic = by_class
            .iter()
            .map(|(c, b)| format!("{c} {:.1} MB", *b as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "| {:<22} | {:>9.3} | {:>12.3} | {:>11} | {} |",
            label,
            tr.makespan * 1e3,
            agg_comm * 1e3,
            tr.collectives.len(),
            if traffic.is_empty() {
                "-".into()
            } else {
                traffic
            },
        );
        results.push((label, tr.makespan, agg_comm, tr.collectives.len()));
    }
    if let [ps, ar] = results.as_slice() {
        let speedup = ps.1 / ar.1;
        println!(
            "ring all-reduce is {:.2}x {} than the PS funnel on this topology",
            if speedup >= 1.0 {
                speedup
            } else {
                1.0 / speedup
            },
            if speedup >= 1.0 { "faster" } else { "slower" },
        );
    }
}
