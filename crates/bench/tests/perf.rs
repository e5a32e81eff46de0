//! Tests for the perfbench driver: structural determinism of the emitted
//! BENCH JSON, regression-gate threshold semantics, and the per-cell
//! schema the CI gate depends on.

use fastt_bench::perf::{
    check_against_baseline, run_matrix, structural_fingerprint, PerfConfig, SCHEMA,
};
use fastt_telemetry::Value;

/// A matrix small enough for debug-mode test runs: one 2-layer stack on
/// one 2-GPU server, 2 repeats.
fn tiny() -> PerfConfig {
    PerfConfig {
        mode: "tiny".into(),
        repeats: 2,
        seed: 7,
        stack_layers: vec![2],
        topologies: vec![("1x2".into(), 1, 2)],
        reference_models: false,
    }
}

#[test]
fn same_seed_runs_are_structurally_identical() {
    let a = run_matrix(&tiny());
    let b = run_matrix(&tiny());
    // Timings differ run to run; the structure (cells, keys, op counts,
    // eval counts, cache hit rates) must not.
    assert_eq!(
        structural_fingerprint(&a).to_string(),
        structural_fingerprint(&b).to_string()
    );
    // ... while the fingerprint really did strip the volatile fields.
    let s = structural_fingerprint(&a).to_string();
    assert!(!s.contains("median_secs"));
    assert!(!s.contains("hotspots"));
}

#[test]
fn bench_document_has_the_gated_schema() {
    let doc = run_matrix(&tiny());
    assert_eq!(doc["schema"].as_str(), Some(SCHEMA));
    let cells = doc["cells"].as_array().unwrap();
    // 4 planner rows (dpos, os_dpos, hierarchical, portfolio) × 1 graph
    // × 1 topo
    assert_eq!(cells.len(), 4);
    // The hierarchical cell reports its decomposition shape.
    let hier = cells
        .iter()
        .find(|c| c["planner"].as_str() == Some("hierarchical"))
        .unwrap();
    assert!(hier["region_count"].as_f64().unwrap() >= 1.0);
    assert!(hier["collapse_rounds"].as_f64().unwrap() >= 1.0);
    assert!(hier["decompose_secs"].as_f64().unwrap() >= 0.0);
    assert!(hier["probed_makespan_secs"].as_f64().unwrap() > 0.0);
    for c in cells {
        for key in ["graph", "planner", "topo"] {
            assert!(c[key].as_str().is_some(), "cell missing {key}");
        }
        for key in ["ops", "evals", "repeats"] {
            assert!(c[key].as_u64().is_some(), "cell missing {key}");
        }
        assert!(c["median_secs"].as_f64().unwrap() > 0.0);
        assert!(c["p95_secs"].as_f64().unwrap() >= c["median_secs"].as_f64().unwrap());
        assert!(!c["hotspots"].as_array().unwrap().is_empty());
    }
    let portfolio = cells
        .iter()
        .find(|c| c["planner"].as_str() == Some("portfolio"))
        .unwrap();
    // With 2 repeats and 2 cacheable planners: repeat 1 misses, repeat 2
    // hits — hit rate is exactly 1/2.
    assert_eq!(portfolio["cache_hit_rate"].as_f64(), Some(0.5));
    // SLO verdicts graded from the cell's own registry.
    let slos = portfolio["slos"].as_array().unwrap();
    assert!(slos
        .iter()
        .any(|s| s["slo"].as_str() == Some("planner.latency.p95")));
    // The profile tree reached the planner hot paths.
    let hot: Vec<&str> = portfolio["hotspots"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|h| h["path"].as_str())
        .collect();
    assert!(
        hot.iter()
            .any(|p| p.starts_with("portfolio") || p.starts_with("plan")),
        "hotspots must come from instrumented phases: {hot:?}"
    );
}

fn doc_with_cell(median: f64) -> Value {
    Value::parse(&format!(
        r#"{{"schema":"fastt-perfbench/v1","cells":[
            {{"graph":"g","planner":"dpos","topo":"1x2","median_secs":{median}}},
            {{"graph":"tiny","planner":"dpos","topo":"1x2","median_secs":{}}}
        ]}}"#,
        1e-5
    ))
    .unwrap()
}

#[test]
fn gate_thresholds_warn_at_10_and_fail_at_25_percent() {
    let base = doc_with_cell(0.100);

    let ok = check_against_baseline(&doc_with_cell(0.105), &base);
    assert_eq!((ok.warns, ok.fails), (0, 0), "{:?}", ok.lines);
    assert!(ok.passed());

    let warn = check_against_baseline(&doc_with_cell(0.115), &base);
    assert_eq!((warn.warns, warn.fails), (1, 0), "{:?}", warn.lines);
    assert!(warn.passed());

    let fail = check_against_baseline(&doc_with_cell(0.126), &base);
    assert_eq!((fail.warns, fail.fails), (0, 1), "{:?}", fail.lines);
    assert!(!fail.passed());

    // Sub-millisecond baseline cells never gate, regardless of ratio: the
    // `tiny` cell is 10µs in both docs and is reported as SKIP.
    assert!(fail.lines.iter().any(|l| l.starts_with("SKIP")));

    // Improvements are plain OK.
    let faster = check_against_baseline(&doc_with_cell(0.050), &base);
    assert_eq!((faster.warns, faster.fails), (0, 0));
}

fn doc_with_makespan(makespan: &str) -> Value {
    Value::parse(&format!(
        r#"{{"cells":[
            {{"graph":"g","planner":"dpos","topo":"1x2","median_secs":1e-5,
              "probed_makespan_secs":{makespan}}}
        ]}}"#
    ))
    .unwrap()
}

#[test]
fn gate_fails_any_probed_makespan_increase() {
    let base = doc_with_makespan("0.0269");

    // Exact: one ULP worse fails, even on a cell below the timing floor.
    let worse = check_against_baseline(
        &doc_with_makespan(&format!("{:e}", 0.0269f64.next_up())),
        &base,
    );
    assert_eq!(worse.fails, 1, "{:?}", worse.lines);
    assert!(worse.lines.iter().any(|l| l.contains("probed makespan")));

    for same_or_better in ["0.0269", "0.0268"] {
        let gate = check_against_baseline(&doc_with_makespan(same_or_better), &base);
        assert!(gate.passed(), "{same_or_better}: {:?}", gate.lines);
    }

    // Unprobed cells (NaN serializes as null) skip the check.
    let unprobed = check_against_baseline(&doc_with_makespan("null"), &base);
    assert!(unprobed.passed(), "{:?}", unprobed.lines);
    let unprobed_base = check_against_baseline(&base, &doc_with_makespan("null"));
    assert!(unprobed_base.passed(), "{:?}", unprobed_base.lines);
}

#[test]
fn gate_reports_missing_and_new_cells_without_failing() {
    let base = doc_with_cell(0.1);
    let empty = Value::parse(r#"{"cells":[]}"#).unwrap();
    let gate = check_against_baseline(&empty, &base);
    assert!(gate.passed(), "missing cells warn, not fail");
    assert_eq!(gate.warns, 2);
    assert!(gate.lines.iter().all(|l| l.starts_with("MISSING")));

    let reverse = check_against_baseline(&base, &empty);
    assert!(reverse.passed());
    assert!(reverse.lines.iter().all(|l| l.starts_with("NEW")));
}
