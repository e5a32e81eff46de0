//! `perfbench` — the Table-4-style performance matrix (graph size ×
//! planner × topology), emitting a machine-readable `BENCH_*.json` perf
//! trajectory and optionally gating against a committed baseline.
//!
//! ```text
//! perfbench [--small | --full] [--repeats N] [--out PATH] [--check BASELINE]
//! ```
//!
//! * `--small` (default): the CI matrix — LeNet, Transformer, 8- and
//!   64-layer stacked Transformers, on one 2-GPU server.
//! * `--full`: adds a 256-layer stacked-Transformer cell (op count scaled
//!   toward the ROADMAP 100k-op regime) and a 2-server topology.
//! * `--out PATH`: where to write the JSON (default `BENCH_latest.json`).
//! * `--check BASELINE`: diff medians against a committed baseline; warn
//!   beyond 10%, exit non-zero beyond 25% (baseline cells under the 5 ms
//!   noise floor are informational only — see `fastt_bench::perf`).

use fastt_bench::perf::{check_against_baseline, run_matrix, PerfConfig};
use fastt_telemetry::Value;
use std::time::{SystemTime, UNIX_EPOCH};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = PerfConfig::small();
    let mut out_path = "BENCH_latest.json".to_string();
    let mut check: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--small" => cfg = PerfConfig::small(),
            "--full" => cfg = PerfConfig::full(),
            "--repeats" => {
                cfg.repeats = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--repeats needs a number");
            }
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--check" => check = Some(it.next().expect("--check needs a path").clone()),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: perfbench [--small | --full] [--repeats N] [--out PATH] [--check BASELINE]"
                );
                std::process::exit(2);
            }
        }
    }

    eprintln!(
        "perfbench: running {} matrix ({} repeats/cell)...",
        cfg.mode, cfg.repeats
    );
    let mut doc = run_matrix(&cfg);
    if let Value::Obj(fields) = &mut doc {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        fields.push(("generated_unix".to_string(), Value::from(now)));
    }
    std::fs::write(&out_path, format!("{doc}\n")).expect("write BENCH json");
    eprintln!("perfbench: wrote {out_path}");

    // Human summary on stdout.
    if let Some(cells) = doc["cells"].as_array() {
        println!(
            "{:<18} {:>7} {:<12} {:<5} {:>12} {:>12} {:>6} {:>9}",
            "graph", "ops", "planner", "topo", "median", "p95", "evals", "cache-hit"
        );
        for c in cells {
            println!(
                "{:<18} {:>7} {:<12} {:<5} {:>12} {:>12} {:>6} {:>9}",
                c["graph"].as_str().unwrap_or("?"),
                c["ops"].as_u64().unwrap_or(0),
                c["planner"].as_str().unwrap_or("?"),
                c["topo"].as_str().unwrap_or("?"),
                fastt_telemetry::fmt_secs(c["median_secs"].as_f64().unwrap_or(0.0)),
                fastt_telemetry::fmt_secs(c["p95_secs"].as_f64().unwrap_or(0.0)),
                c["evals"].as_u64().unwrap_or(0),
                c["cache_hit_rate"]
                    .as_f64()
                    .filter(|r| r.is_finite())
                    .map(|r| format!("{:.0}%", r * 100.0))
                    .unwrap_or_else(|| "-".into()),
            );
        }
    }

    if let Some(baseline_path) = check {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let baseline = Value::parse(&text).expect("parse baseline json");
        let gate = check_against_baseline(&doc, &baseline);
        println!("\nregression gate vs {baseline_path}:");
        for line in &gate.lines {
            println!("  {line}");
        }
        println!("  => {} warn(s), {} fail(s)", gate.warns, gate.fails);
        if !gate.passed() {
            eprintln!("perfbench: median regression beyond 25% — failing");
            std::process::exit(1);
        }
    }
}
