//! The benchmark's definition: workload names and every metric's name, unit,
//! direction and regression bound, read from the repository's
//! `BENCHMARK.json` (embedded at build time, so the file is the one place
//! they are written down).

use fastt_telemetry::Value;

/// `BENCHMARK.json` at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen before a
    /// change counts as a regression (0 for per-layer metrics, which have
    /// no bound).
    pub bound: f64,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// The embedded `BENCHMARK.json`.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    /// Parses a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Value::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc["workloads"]
            .as_array()
            .ok_or("BENCHMARK.json: no workloads")?
            .iter()
            .map(|w| w["name"].as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json: workload without a name")?;
        Ok(Spec {
            workloads,
            end_to_end: metrics(&doc["end_to_end"])?,
            per_layer: metrics(&doc["per_layer"])?,
        })
    }
}

fn metrics(list: &Value) -> Result<Vec<Metric>, String> {
    list.as_array()
        .ok_or("BENCHMARK.json: metric list missing")?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m[k].as_str()
                    .ok_or_else(|| format!("BENCHMARK.json: metric without `{k}`"))
            };
            Ok(Metric {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                lower_is_better: field("better")? == "lower",
                bound: m["bound"].as_f64().unwrap_or(0.0),
            })
        })
        .collect()
}
