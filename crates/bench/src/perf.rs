//! The `perfbench` driver: a seeded Table-4-style performance matrix over
//! (graph size × planner × topology), emitted as a machine-readable
//! `BENCH_*.json` perf trajectory and gated in CI against a committed
//! baseline.
//!
//! Each cell runs one planner (or the whole [`Portfolio`] with a
//! [`PlanCache`]) several times on one graph/topology pair and records
//! median/p95 wall-clock, simulated-evaluation counts, cache hit rate, and
//! the top profile-tree hotspots from the instrumented hot paths. The
//! matrix includes a stacked-Transformer graph whose depth scales the op
//! count toward the 100k-op regime of ROADMAP item 2, so every future
//! planner-speed PR shows up as a trajectory delta.
//!
//! Regression gating (see [`check_against_baseline`]): cell medians are
//! compared by `(graph, planner, topo)` key — more than
//! [`WARN_THRESHOLD_PCT`] slower warns, more than [`FAIL_THRESHOLD_PCT`]
//! fails, and cells whose baseline median is under [`MIN_GATE_SECS`] are
//! informational only (small medians are noise-dominated on shared CI
//! runners). Plan quality is gated exactly: probed makespans are
//! deterministic, so any cell whose makespan rises above the baseline's
//! fails, whatever its median.

use fastt::{
    default_slos, DataParallelPlanner, DposPlanner, HierarchicalPlanner, OsDposPlanner, PlanCache,
    Planner, PlanningContext, Portfolio, PortfolioInputs,
};
use fastt_cluster::Topology;
use fastt_cost::CostModels;
use fastt_graph::{build_training_graph, Graph};
use fastt_models::{stacked_transformer, Model};
use fastt_sim::{HardwarePerf, SimConfig};
use fastt_telemetry::{evaluate_slos, Collector, MetricValue, Value};
use std::sync::Arc;
use std::time::Instant;

/// Schema tag stamped into every emitted JSON document.
pub const SCHEMA: &str = "fastt-perfbench/v1";

/// Median regressions beyond this fraction of the baseline warn.
pub const WARN_THRESHOLD_PCT: f64 = 0.10;

/// Median regressions beyond this fraction of the baseline fail the gate.
pub const FAIL_THRESHOLD_PCT: f64 = 0.25;

/// Cells whose *baseline* median is below this many seconds are reported
/// but never gate — low-millisecond medians swing ±30% run to run on
/// shared runners (measured), which would make a 25% fail threshold flaky.
pub const MIN_GATE_SECS: f64 = 5e-3;

/// How many profile-tree hotspots each cell keeps.
pub const HOTSPOT_COUNT: usize = 5;

/// Probing (one simulated iteration per portfolio candidate) is skipped for
/// graphs above this op count — it would dominate the measurement.
const PROBE_OP_LIMIT: usize = 20_000;

/// OS-DPOS cells (standalone and inside the portfolio) are skipped for
/// graphs above this op count: Alg. 2 re-runs Alg. 1 per candidate split
/// of every critical-path op, so its cost grows super-linearly — measured
/// at ~100 s per repeat on the 64-layer stack (3.3k ops, 2 servers) and
/// ~8.5 min on the 256-layer one (13.3k ops, 1 server), vs ~180 ms on the
/// 870-op Transformer. The deep scaling cells therefore track DPOS, which
/// is what the ROADMAP 100k-op latency item targets anyway. Skips are
/// logged, never silent.
pub const OS_DPOS_OP_LIMIT: usize = 1_000;

/// Matrix configuration. [`PerfConfig::small`] is the CI matrix;
/// [`PerfConfig::full`] adds the deep stacked-Transformer cells and the
/// multi-server topology.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// `"small"` or `"full"` — recorded in the JSON.
    pub mode: String,
    /// Wall-clock samples per cell.
    pub repeats: usize,
    /// Deterministic seed for the probe simulations.
    pub seed: u64,
    /// Encoder depths of the stacked-Transformer scaling cells.
    pub stack_layers: Vec<u32>,
    /// Cluster shapes to run each (graph, planner) pair on.
    pub topologies: Vec<(String, u16, u16)>,
    /// Whether the fixed reference models (LeNet, Transformer) are in the
    /// matrix; tests turn this off to keep debug-mode runs fast.
    pub reference_models: bool,
}

impl PerfConfig {
    /// The CI matrix: an 8-layer stack plus a 64-layer one (the 3.3k-op
    /// DPOS cell the gate actually watches), one 2-GPU server, 5 repeats.
    pub fn small() -> Self {
        PerfConfig {
            mode: "small".into(),
            repeats: 5,
            seed: 42,
            stack_layers: vec![8, 64],
            topologies: vec![("1x2".into(), 1, 2)],
            reference_models: true,
        }
    }

    /// The full matrix: deep stacks (op count scaled toward 100k),
    /// single- and multi-server topologies.
    pub fn full() -> Self {
        PerfConfig {
            mode: "full".into(),
            repeats: 5,
            seed: 42,
            stack_layers: vec![8, 64, 256],
            topologies: vec![("1x4".into(), 1, 4), ("2x4".into(), 2, 4)],
            reference_models: true,
        }
    }
}

/// The graphs of the matrix, smallest first.
fn matrix_graphs(cfg: &PerfConfig) -> Vec<(String, Graph)> {
    let mut graphs = Vec::new();
    if cfg.reference_models {
        graphs.push(("lenet_b32".to_string(), Model::LeNet.training_graph(32)));
        graphs.push((
            "transformer_b256".to_string(),
            Model::Transformer.training_graph(256),
        ));
    }
    for &layers in &cfg.stack_layers {
        let fwd = stacked_transformer(64, layers);
        let g = build_training_graph(&fwd).expect("stacked transformer trains");
        graphs.push((format!("stack{layers}_b64"), g));
    }
    graphs
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn hotspots_json(col: &Collector) -> Value {
    Value::Arr(
        col.profiler()
            .hotspots(HOTSPOT_COUNT)
            .into_iter()
            .map(|h| {
                Value::obj([
                    ("path", Value::from(h.path)),
                    ("calls", Value::from(h.calls)),
                    ("total_secs", Value::from(h.total_secs)),
                    ("self_secs", Value::from(h.self_secs)),
                ])
            })
            .collect(),
    )
}

struct CellResult {
    samples: Vec<f64>,
    evals: u64,
    cache_hit_rate: f64,
    collector: Arc<Collector>,
    slos: Option<Value>,
    /// One seeded simulated iteration of the *last* repeat's plan, run
    /// outside the timed region — what lets the trajectory compare planner
    /// wall-clock at equal-or-better plan quality (NaN above the probe
    /// op limit).
    probed_makespan: f64,
    /// Planner-specific cell fields (the hierarchical cells report their
    /// decomposition shape and within/across time split here).
    extras: Vec<(String, Value)>,
}

/// One single-planner cell: `repeats` fresh plans on a shared collector.
fn run_planner_cell(
    planner: &dyn Planner,
    graph: &Graph,
    topo: &Topology,
    hw: &HardwarePerf,
    cost: &CostModels,
    repeats: usize,
    seed: u64,
) -> CellResult {
    let col = Arc::new(Collector::new());
    let mut samples = Vec::with_capacity(repeats);
    let mut evals = 0u64;
    let mut last_plan = None;
    // Region-granular sub-plan store for planners that use one — every
    // session hands its planners a shared PlanCache, so the cell measures
    // the planner as deployed (repeat 1 populates, later repeats reuse;
    // repeated layers hit even within one pass).
    let region_cache = PlanCache::new(256);
    for _ in 0..repeats {
        let mut ctx = PlanningContext {
            graph,
            raw: Some(graph),
            current: None,
            topo,
            hw,
            cost: cost.clone(),
            collector: Some(col.clone()),
            enable_order: true,
            dp_ps: None,
            region_cache: Some(&region_cache),
            cache_salt: 0,
            evals_used: 0,
        };
        let t0 = Instant::now();
        let res = planner.plan(&mut ctx);
        samples.push(t0.elapsed().as_secs_f64());
        evals += ctx.evals_used as u64;
        assert!(res.is_ok(), "planner {} failed: {res:?}", planner.name());
        last_plan = res.ok();
    }
    let probed_makespan = match &last_plan {
        Some(plan) if graph.op_count() <= PROBE_OP_LIMIT => plan
            .simulate(
                topo,
                hw,
                &SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            )
            .map(|t| t.makespan)
            .unwrap_or(f64::NAN),
        _ => f64::NAN,
    };
    // Planners that decompose report their shape as gauges on the cell's
    // collector; surface them as trajectory-diffable cell fields.
    let mut extras = Vec::new();
    let m = col.metrics();
    for (gauge, field) in [
        ("hier.regions", "region_count"),
        ("hier.rounds", "collapse_rounds"),
        ("hier.residual", "residual_regions"),
        ("hier.decompose_secs", "decompose_secs"),
        ("hier.across_secs", "across_secs"),
        ("hier.within_secs", "within_secs"),
    ] {
        if let Some(MetricValue::Gauge(v)) = m.get(gauge) {
            extras.push((field.to_string(), Value::from(v)));
        }
    }
    if let Some(MetricValue::Gauge(v)) = m.get("hier.decompose_cached") {
        extras.push(("decompose_cached".to_string(), Value::from(v != 0.0)));
    }
    CellResult {
        samples,
        evals,
        cache_hit_rate: f64::NAN,
        collector: col,
        slos: None,
        probed_makespan,
        extras,
    }
}

/// One portfolio cell: the full candidate fan-out through a [`PlanCache`]
/// (repeat 1 misses, later repeats hit), optionally probed on the
/// simulator, with SLO verdicts graded from the cell's own registry.
fn run_portfolio_cell(
    graph: &Graph,
    topo: &Topology,
    hw: &HardwarePerf,
    cost: &CostModels,
    repeats: usize,
    seed: u64,
) -> CellResult {
    let col = Arc::new(Collector::new());
    let mut portfolio = Portfolio::new().with(Box::new(DposPlanner));
    if graph.op_count() <= OS_DPOS_OP_LIMIT {
        portfolio = portfolio.with(Box::new(OsDposPlanner::default()));
    }
    portfolio = portfolio.with(Box::<DataParallelPlanner>::default());
    portfolio = portfolio.with(Box::<HierarchicalPlanner>::default());
    // Sized so the hierarchical planner's per-region sub-plan entries
    // (which share this store) never evict the whole-plan entries between
    // repeats.
    let cache = PlanCache::new(128);
    // The probe carries the cell's collector so the simulator's own phases
    // (`sim.lower`, `sim.validate`, `sim.event_loop`) nest under
    // `portfolio > probe`.
    let probe = (graph.op_count() <= PROBE_OP_LIMIT).then(|| SimConfig {
        seed,
        collector: Some(col.clone()),
        ..SimConfig::default()
    });
    let mut samples = Vec::with_capacity(repeats);
    let mut evals = 0u64;
    for _ in 0..repeats {
        let inputs = PortfolioInputs {
            graph,
            raw: Some(graph),
            current: None,
            topo,
            hw,
            cost,
            collector: Some(col.clone()),
            enable_order: true,
            dp_ps: None,
            cache_salt: 0,
            probe: probe.clone(),
        };
        let t0 = Instant::now();
        let outcome = portfolio.evaluate(&inputs, Some(&cache));
        samples.push(t0.elapsed().as_secs_f64());
        evals += outcome
            .candidates
            .iter()
            .map(|c| c.evals_used as u64)
            .sum::<u64>();
    }
    let lookups = cache.hits() + cache.misses();
    let verdicts = evaluate_slos(&default_slos(), col.metrics());
    let region_lookups = cache.region_hits() + cache.region_misses();
    let mut extras = Vec::new();
    if region_lookups > 0 {
        extras.push((
            "region_cache_hit_rate".to_string(),
            Value::from(cache.region_hits() as f64 / region_lookups as f64),
        ));
    }
    CellResult {
        samples,
        evals,
        cache_hit_rate: if lookups == 0 {
            f64::NAN
        } else {
            cache.hits() as f64 / lookups as f64
        },
        collector: col,
        slos: Some(Value::Arr(verdicts.iter().map(|v| v.to_json()).collect())),
        probed_makespan: f64::NAN,
        extras,
    }
}

/// Runs the whole matrix and returns the `BENCH_*.json` document.
pub fn run_matrix(cfg: &PerfConfig) -> Value {
    let hw = HardwarePerf::new();
    let graphs = matrix_graphs(cfg);
    let mut cells: Vec<Value> = Vec::new();
    for (topo_label, servers, gpus) in &cfg.topologies {
        let topo = Topology::multi_server(*servers, *gpus);
        for (graph_label, graph) in &graphs {
            // One bootstrap per (graph, topo): profiled costs shared by
            // every planner cell, outside the timed region.
            let cost = fastt::bootstrap_cost_models(graph, &topo, &hw);
            let mut planners: Vec<Box<dyn Planner>> = vec![Box::new(DposPlanner)];
            if graph.op_count() <= OS_DPOS_OP_LIMIT {
                planners.push(Box::new(OsDposPlanner::default()));
            } else {
                eprintln!(
                    "perfbench:   {graph_label}/os_dpos/{topo_label}: SKIPPED \
                     ({} ops > {OS_DPOS_OP_LIMIT} OS-DPOS op limit)",
                    graph.op_count()
                );
            }
            planners.push(Box::<HierarchicalPlanner>::default());
            for p in &planners {
                eprintln!("perfbench:   {graph_label}/{}/{topo_label}", p.name());
                let r =
                    run_planner_cell(p.as_ref(), graph, &topo, &hw, &cost, cfg.repeats, cfg.seed);
                cells.push(cell_json(graph_label, graph, p.name(), topo_label, cfg, r));
            }
            eprintln!("perfbench:   {graph_label}/portfolio/{topo_label}");
            let r = run_portfolio_cell(graph, &topo, &hw, &cost, cfg.repeats, cfg.seed);
            cells.push(cell_json(
                graph_label,
                graph,
                "portfolio",
                topo_label,
                cfg,
                r,
            ));
        }
    }
    Value::obj([
        ("schema", Value::from(SCHEMA)),
        ("mode", Value::from(cfg.mode.clone())),
        ("seed", Value::from(cfg.seed)),
        ("repeats", Value::from(cfg.repeats as u64)),
        ("cells", Value::Arr(cells)),
    ])
}

fn cell_json(
    graph_label: &str,
    graph: &Graph,
    planner: &str,
    topo_label: &str,
    cfg: &PerfConfig,
    r: CellResult,
) -> Value {
    let mut sorted = r.samples.clone();
    sorted.sort_by(f64::total_cmp);
    let mut fields = vec![
        ("graph".to_string(), Value::from(graph_label)),
        ("ops".to_string(), Value::from(graph.op_count() as u64)),
        ("planner".to_string(), Value::from(planner)),
        ("topo".to_string(), Value::from(topo_label)),
        ("repeats".to_string(), Value::from(cfg.repeats as u64)),
        (
            "median_secs".to_string(),
            Value::from(quantile(&sorted, 0.5)),
        ),
        ("p95_secs".to_string(), Value::from(quantile(&sorted, 0.95))),
        ("evals".to_string(), Value::from(r.evals)),
        ("cache_hit_rate".to_string(), Value::from(r.cache_hit_rate)),
        (
            "probed_makespan_secs".to_string(),
            Value::from(r.probed_makespan),
        ),
        ("hotspots".to_string(), hotspots_json(&r.collector)),
    ];
    fields.extend(r.extras);
    if let Some(slos) = r.slos {
        fields.push(("slos".to_string(), slos));
    }
    Value::Obj(fields)
}

/// The structure of a BENCH document with every timing-dependent field
/// removed, and `decompose_cached`, which depends on what the process-wide
/// decomposition memo already held: same-seed runs must produce identical
/// fingerprints (pinned by a test), which is what makes trajectory diffs
/// trustworthy.
pub fn structural_fingerprint(doc: &Value) -> Value {
    const VOLATILE: [&str; 9] = [
        "median_secs",
        "p95_secs",
        "hotspots",
        "slos",
        "generated_unix",
        "decompose_secs",
        "decompose_cached",
        "across_secs",
        "within_secs",
    ];
    match doc {
        Value::Obj(fields) => Value::Obj(
            fields
                .iter()
                .filter(|(k, _)| !VOLATILE.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), structural_fingerprint(v)))
                .collect(),
        ),
        Value::Arr(items) => Value::Arr(items.iter().map(structural_fingerprint).collect()),
        other => other.clone(),
    }
}

/// Outcome of diffing a fresh BENCH document against the committed
/// baseline.
#[derive(Debug)]
pub struct GateOutcome {
    /// Human-readable per-cell lines.
    pub lines: Vec<String>,
    /// Cells slower than the warn threshold (but within the fail one).
    pub warns: usize,
    /// Cells slower than the fail threshold — a non-empty value should
    /// fail CI.
    pub fails: usize,
}

impl GateOutcome {
    /// Whether the gate passes (no cell beyond the fail threshold).
    pub fn passed(&self) -> bool {
        self.fails == 0
    }
}

fn cell_key(c: &Value) -> Option<String> {
    Some(format!(
        "{}/{}/{}",
        c["graph"].as_str()?,
        c["planner"].as_str()?,
        c["topo"].as_str()?
    ))
}

/// Compares cells between `current` and `baseline` by
/// `(graph, planner, topo)` key. Medians get the documented thresholds:
/// warn beyond [`WARN_THRESHOLD_PCT`], fail beyond [`FAIL_THRESHOLD_PCT`],
/// ignore cells whose baseline median is under [`MIN_GATE_SECS`]. Any
/// probed makespan higher than the baseline's fails (cells with a NaN or
/// absent makespan are not probed and skip this check). Cells present
/// only on one side are reported but never fail the gate.
pub fn check_against_baseline(current: &Value, baseline: &Value) -> GateOutcome {
    let empty: [Value; 0] = [];
    let base_cells = baseline["cells"].as_array().unwrap_or(&empty);
    let cur_cells = current["cells"].as_array().unwrap_or(&empty);
    let mut out = GateOutcome {
        lines: Vec::new(),
        warns: 0,
        fails: 0,
    };
    for b in base_cells {
        let Some(key) = cell_key(b) else { continue };
        let Some(cur) = cur_cells
            .iter()
            .find(|c| cell_key(c).as_deref() == Some(key.as_str()))
        else {
            out.lines
                .push(format!("MISSING {key}: cell absent from current run"));
            out.warns += 1;
            continue;
        };
        let makespan = |c: &Value| c["probed_makespan_secs"].as_f64().filter(|m| !m.is_nan());
        if let (Some(bq), Some(cq)) = (makespan(b), makespan(cur)) {
            if cq > bq {
                out.fails += 1;
                out.lines.push(format!(
                    "FAIL    {key}: probed makespan {cq:e}s vs baseline {bq:e}s (plan got worse)"
                ));
            }
        }
        let (Some(bm), Some(cm)) = (b["median_secs"].as_f64(), cur["median_secs"].as_f64()) else {
            continue;
        };
        if bm < MIN_GATE_SECS {
            out.lines.push(format!(
                "SKIP    {key}: baseline median {bm:.6}s below {MIN_GATE_SECS}s noise floor"
            ));
            continue;
        }
        let delta = cm / bm - 1.0;
        let verdict = if delta > FAIL_THRESHOLD_PCT {
            out.fails += 1;
            "FAIL"
        } else if delta > WARN_THRESHOLD_PCT {
            out.warns += 1;
            "WARN"
        } else {
            "OK"
        };
        out.lines.push(format!(
            "{verdict:<7} {key}: median {cm:.6}s vs baseline {bm:.6}s ({:+.1}%)",
            delta * 100.0
        ));
    }
    for c in cur_cells {
        if let Some(key) = cell_key(c) {
            if !base_cells
                .iter()
                .any(|b| cell_key(b).as_deref() == Some(key.as_str()))
            {
                out.lines.push(format!("NEW     {key}: no baseline entry"));
            }
        }
    }
    out
}
