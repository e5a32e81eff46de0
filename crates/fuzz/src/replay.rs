//! Self-contained replay files: a line-oriented text codec for
//! [`Scenario`] that round-trips exactly, so a minimized reproducer
//! committed to `fuzz/corpus/` replays the same scenario forever, with no
//! external parser dependencies. The corpus also holds hand-written
//! scenarios: the seed-21 fault and churn schedules the integration tests
//! pin and `report --scenario` replays.
//!
//! Format (`#` starts a comment, order of `fault`/`lifecycle`/`job` lines
//! is significant, everything else is one `key = value` per line). The
//! `fault` and `lifecycle` values are `fastt-sim`'s scenario lines
//! ([`fastt_sim::faults`]), which hold exact decimal values:
//!
//! ```text
//! # fastt-fuzz scenario v1
//! seed = 1234
//! iters = 20
//! batch = 4
//! conv_prefix = 1
//! layers = dense:32 fan:16x2 block norm
//! topo = 2x2 nvlink
//! planner = hierarchical
//! fault = straggler dev=1 slowdown=3.5 from=4 to=9
//! lifecycle = spot dev=2 at=6 notice=3
//! job = arrival=0 iters=8 gpus=2 min=1 prio=3
//! ```

use crate::scenario::{
    FuzzJob, GraphSpec, LayerSpec, LinkProfile, PlannerChoice, Scenario, TopoSpec,
};
use fastt_sim::faults::scenario_lines;
use std::fmt::Write as _;

/// Serializes a scenario to the replay text format.
pub fn to_text(sc: &Scenario) -> String {
    let mut out = String::from("# fastt-fuzz scenario v1\n");
    let _ = writeln!(out, "seed = {}", sc.seed);
    let _ = writeln!(out, "iters = {}", sc.iters);
    let _ = writeln!(out, "batch = {}", sc.graph.batch);
    let _ = writeln!(out, "conv_prefix = {}", sc.graph.conv_prefix);
    let layers: Vec<String> = sc
        .graph
        .layers
        .iter()
        .map(|l| match l {
            LayerSpec::Dense { width } => format!("dense:{width}"),
            LayerSpec::Fan { width, branches } => format!("fan:{width}x{branches}"),
            LayerSpec::Block => "block".to_string(),
            LayerSpec::Norm => "norm".to_string(),
        })
        .collect();
    let _ = writeln!(out, "layers = {}", layers.join(" "));
    let _ = writeln!(
        out,
        "topo = {}x{} {}",
        sc.topo.servers,
        sc.topo.gpus,
        sc.topo.links.as_str()
    );
    let _ = writeln!(out, "planner = {}", sc.planner.as_str());
    for f in &sc.faults {
        let _ = writeln!(out, "fault = {f}");
    }
    for l in &sc.lifecycle {
        let _ = writeln!(out, "lifecycle = {l}");
    }
    for j in &sc.jobs {
        let _ = writeln!(
            out,
            "job = arrival={} iters={} gpus={} min={} prio={}",
            j.arrival, j.iters, j.gpus, j.min_gpus, j.priority
        );
    }
    out
}

/// Key–value field accessor for one serialized entry line.
fn field(words: &[&str], key: &str) -> Result<u64, String> {
    words
        .iter()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
        .ok_or_else(|| format!("missing field `{key}` in `{}`", words.join(" ")))?
        .parse::<u64>()
        .map_err(|e| format!("bad `{key}`: {e}"))
}

/// Parses the replay text format back into a [`Scenario`].
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse(text: &str) -> Result<Scenario, String> {
    let mut seed = None;
    let mut iters = None;
    let mut batch = None;
    let mut conv_prefix = 0u8;
    let mut layers = Vec::new();
    let mut topo = None;
    let mut planner = PlannerChoice::Portfolio;
    let mut faults = Vec::new();
    let mut lifecycle = Vec::new();
    let mut jobs = Vec::new();

    for entry in scenario_lines(text) {
        let (no, key, value) = entry?;
        let err = |e: String| format!("line {no}: {e}");
        match key {
            "seed" => seed = Some(value.parse::<u64>().map_err(|e| err(e.to_string()))?),
            "iters" => iters = Some(value.parse::<u64>().map_err(|e| err(e.to_string()))?),
            "batch" => batch = Some(value.parse::<u64>().map_err(|e| err(e.to_string()))?),
            "conv_prefix" => {
                conv_prefix = value.parse::<u8>().map_err(|e| err(e.to_string()))?;
            }
            "layers" => {
                for tok in value.split_whitespace() {
                    let layer = if let Some(w) = tok.strip_prefix("dense:") {
                        LayerSpec::Dense {
                            width: w.parse().map_err(|_| err(format!("bad layer `{tok}`")))?,
                        }
                    } else if let Some(spec) = tok.strip_prefix("fan:") {
                        let (w, b) = spec
                            .split_once('x')
                            .ok_or_else(|| err(format!("bad fan `{tok}`")))?;
                        LayerSpec::Fan {
                            width: w.parse().map_err(|_| err(format!("bad fan `{tok}`")))?,
                            branches: b.parse().map_err(|_| err(format!("bad fan `{tok}`")))?,
                        }
                    } else if tok == "block" {
                        LayerSpec::Block
                    } else if tok == "norm" {
                        LayerSpec::Norm
                    } else {
                        return Err(err(format!("unknown layer `{tok}`")));
                    };
                    layers.push(layer);
                }
            }
            "topo" => {
                let mut words = value.split_whitespace();
                let shape = words.next().ok_or_else(|| err("empty topo".into()))?;
                let (s, g) = shape
                    .split_once('x')
                    .ok_or_else(|| err(format!("bad topo `{shape}`")))?;
                let links = match words.next().unwrap_or("nvlink") {
                    "nvlink" => LinkProfile::Nvlink,
                    "pcie" => LinkProfile::Pcie,
                    "rdma" => LinkProfile::Rdma,
                    other => return Err(err(format!("unknown link profile `{other}`"))),
                };
                topo = Some(TopoSpec {
                    servers: s.parse().map_err(|_| err(format!("bad topo `{shape}`")))?,
                    gpus: g.parse().map_err(|_| err(format!("bad topo `{shape}`")))?,
                    links,
                });
            }
            "planner" => {
                planner = match value {
                    "flat" => PlannerChoice::Flat,
                    "portfolio" => PlannerChoice::Portfolio,
                    "hierarchical" => PlannerChoice::Hierarchical,
                    other => return Err(err(format!("unknown planner `{other}`"))),
                };
            }
            "fault" => faults.push(value.parse().map_err(err)?),
            "lifecycle" => lifecycle.push(value.parse().map_err(err)?),
            "job" => {
                let words: Vec<&str> = value.split_whitespace().collect();
                let f = |k: &str| field(&words, k);
                jobs.push(FuzzJob {
                    arrival: f("arrival")?,
                    iters: f("iters")?,
                    gpus: f("gpus")? as usize,
                    min_gpus: f("min")? as usize,
                    priority: f("prio")? as u8,
                });
            }
            other => return Err(err(format!("unknown key `{other}`"))),
        }
    }

    Ok(Scenario {
        seed: seed.ok_or("missing `seed`")?,
        iters: iters.ok_or("missing `iters`")?,
        graph: GraphSpec {
            batch: batch.ok_or("missing `batch`")?,
            conv_prefix,
            layers,
        },
        topo: topo.ok_or("missing `topo`")?,
        faults,
        lifecycle,
        planner,
        jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_exactly_over_many_generated_scenarios() {
        for i in 0..48 {
            let sc = Scenario::generate(7, i);
            let text = to_text(&sc);
            let back = parse(&text).unwrap_or_else(|e| panic!("scenario {i}: {e}\n{text}"));
            assert_eq!(sc, back, "scenario {i} did not round-trip:\n{text}");
            // and the text itself is a fixpoint
            assert_eq!(text, to_text(&back));
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("nonsense").is_err());
        assert!(parse("seed = 1\niters = 2\nbatch = 4\ntopo = 1x1 warp\n").is_err());
        assert!(parse("seed = 1\nfault = meteor dev=0\n").is_err());
    }
}
