//! # fastt-bench
//!
//! Benchmark harness reproducing every table and figure of the FastT paper's
//! evaluation (Sec. 6). Each `table*`/`fig*` binary prints the same rows or
//! series the paper reports; this library holds the shared experiment
//! drivers.
//!
//! Scaling modes follow Sec. 6.2: **strong** scaling keeps the global batch
//! fixed as GPUs are added (each replica gets `global / n`); **weak** scaling
//! fixes the per-GPU batch (the global batch grows with `n`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fastt::{
    data_parallel_plan, data_parallel_plan_on, Plan, PreTrainReport, SessionConfig, TrainingSession,
};
use fastt_cluster::{DeviceId, Topology};
use fastt_graph::{replicate_grouped, ReplicationMode};
use fastt_models::Model;
use fastt_sim::{HardwarePerf, SimConfig, SimError};

/// One cluster setting of the paper's scaling tables.
#[derive(Debug, Clone)]
pub struct Setting {
    /// Column label, e.g. `"8GPUs (2servers)"`.
    pub label: String,
    /// Number of servers.
    pub servers: u16,
    /// GPUs per server.
    pub gpus_per_server: u16,
}

impl Setting {
    /// Creates the topology for this setting.
    pub fn topology(&self) -> Topology {
        Topology::multi_server(self.servers, self.gpus_per_server)
    }

    /// Total GPU count.
    pub fn gpus(&self) -> u32 {
        (self.servers * self.gpus_per_server) as u32
    }
}

/// The multi-GPU settings of Table 1 (strong scaling): 2/4/8 GPUs on one
/// server plus 8 GPUs over two servers.
pub fn strong_scaling_settings() -> Vec<Setting> {
    vec![
        Setting {
            label: "2GPUs".into(),
            servers: 1,
            gpus_per_server: 2,
        },
        Setting {
            label: "4GPUs".into(),
            servers: 1,
            gpus_per_server: 4,
        },
        Setting {
            label: "8GPUs".into(),
            servers: 1,
            gpus_per_server: 8,
        },
        Setting {
            label: "8GPUs (2servers)".into(),
            servers: 2,
            gpus_per_server: 4,
        },
    ]
}

/// The multi-GPU settings of Table 2 (weak scaling): up to 16 GPUs over two
/// servers.
pub fn weak_scaling_settings() -> Vec<Setting> {
    vec![
        Setting {
            label: "2GPUs".into(),
            servers: 1,
            gpus_per_server: 2,
        },
        Setting {
            label: "4GPUs".into(),
            servers: 1,
            gpus_per_server: 4,
        },
        Setting {
            label: "8GPUs".into(),
            servers: 1,
            gpus_per_server: 8,
        },
        Setting {
            label: "16GPUs (2servers)".into(),
            servers: 2,
            gpus_per_server: 8,
        },
    ]
}

/// Where the DP baseline keeps its shared variables for a model family:
/// TF-slim (the CNN benchmarks) defaults to the CPU host; the NMT/attention
/// baselines keep variables on GPU 0.
pub fn dp_ps_for(model: Model) -> Option<DeviceId> {
    if model.is_cnn() {
        None // slim default: CPU host
    } else {
        Some(DeviceId(0))
    }
}

/// Number of measurement iterations (after the paper's warm-up idea,
/// shrunk from 500 to keep the harness fast — the simulator's jitter is
/// only ±2%).
pub const MEASURE_ITERS: u32 = 5;

/// Result of one measured configuration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Average per-iteration time in seconds.
    pub iter_time: f64,
    /// Training speed in samples/second at the *global* batch size.
    pub samples_per_sec: f64,
}

/// Runs a DP baseline: per-replica graphs at `per_replica_batch`,
/// replicated over all GPUs of `topo` with gradients aggregated by `mode`
/// (the paper's DP is [`ReplicationMode::ParameterServer`]), shared
/// variables placed per model family.
///
/// # Errors
///
/// Propagates simulator errors — an `Err(Oom)` here is the paper's "OOM"
/// table entry.
pub fn run_dp(
    model: Model,
    topo: &Topology,
    per_replica_batch: u64,
    mode: ReplicationMode,
) -> Result<Measurement, SimError> {
    let n = topo.gpu_count() as u32;
    let graph = model.training_graph(per_replica_batch);
    let groups: Vec<u16> = topo.gpu_ids().map(|d| topo.server_of(d)).collect();
    let rep = replicate_grouped(&graph, &groups, mode).expect("model graphs replicate");
    let plan = match dp_ps_for(model) {
        Some(d) => data_parallel_plan_on(&rep, topo, d),
        None => data_parallel_plan(&rep, topo),
    };
    let iter_time = measure(&plan, topo)?;
    Ok(Measurement {
        iter_time,
        samples_per_sec: (per_replica_batch * n as u64) as f64 / iter_time,
    })
}

/// Mean simulated iteration time of `plan` over [`MEASURE_ITERS`] jittered
/// iterations. Every table cell is measured this way, so two identical
/// plans read identical times whichever column they sit in.
///
/// # Errors
///
/// Propagates simulator errors (an `Err(Oom)` is the tables' "OOM").
pub fn measure(plan: &Plan, topo: &Topology) -> Result<f64, SimError> {
    let mut total = 0.0;
    for it in 0..MEASURE_ITERS {
        let cfg = SimConfig {
            jitter_pct: 0.02,
            iteration: it as u64,
            ..SimConfig::default()
        };
        total += plan.simulate(topo, &HardwarePerf::new(), &cfg)?.makespan;
    }
    Ok(total / MEASURE_ITERS as f64)
}

/// Result of a FastT run: the measurement plus the session artifacts
/// (consumed by the analysis experiments).
pub struct FastTRun {
    /// Speed of the session's final plan at the global batch size, taken by
    /// [`measure`] like every DP baseline (`report.final_iter_time` keeps
    /// the session's own profiled number).
    pub measurement: Measurement,
    /// The pre-training report (strategy-calculation time, rollbacks, …).
    pub report: PreTrainReport,
    /// The finished session (owning the final plan and cost models).
    pub session: TrainingSession,
}

/// Runs the full FastT workflow on a model.
///
/// `per_replica_batch` is the batch the model graph is built with; when the
/// model fits, FastT starts from the DP-replicated graph, so the global batch
/// is `per_replica_batch × gpus` — matching how [`run_dp`] is driven.
///
/// # Errors
///
/// Returns an error when no start strategy fits in memory, or when the
/// final plan fails to simulate.
pub fn run_fastt(
    model: Model,
    topo: &Topology,
    per_replica_batch: u64,
    global_batch: u64,
    config: Option<SessionConfig>,
) -> Result<FastTRun, fastt::FastTError> {
    let graph = model.training_graph(per_replica_batch);
    let config = config.unwrap_or_else(|| SessionConfig {
        dp_ps: dp_ps_for(model),
        ..SessionConfig::default()
    });
    let mut session =
        TrainingSession::new(&graph, topo.clone(), HardwarePerf::new(), config.clone())?;
    if !session.started_data_parallel() && per_replica_batch != global_batch {
        // Data parallelism cannot host this model, so the paper's rule
        // applies: FastT deploys the *whole-batch* model DAG (Sec. 5.2) —
        // rebuild at the global batch so the reported speed is honest.
        let graph = model.training_graph(global_batch);
        session = TrainingSession::new(&graph, topo.clone(), HardwarePerf::new(), config)?;
    }
    let report = session.pre_train()?;
    let iter_time = measure(session.current_plan(), session.topology())?;
    Ok(FastTRun {
        measurement: Measurement {
            iter_time,
            samples_per_sec: global_batch as f64 / iter_time,
        },
        report,
        session,
    })
}

/// Splits a global batch across `n` replicas, clamping at the model's
/// minimum buildable batch (strong scaling at high GPU counts).
pub fn per_replica_batch(model: Model, global: u64, n: u32) -> u64 {
    (global / n as u64).max(model.min_batch())
}

/// Formats a samples/s cell.
pub fn fmt_sps(m: &Result<Measurement, SimError>) -> String {
    match m {
        Ok(v) => format!("{:>9.1}", v.samples_per_sec),
        Err(e) if e.is_oom() => format!("{:>9}", "OOM"),
        Err(_) => format!("{:>9}", "ERR"),
    }
}

/// Parses command-line arguments as model names (substring match against the
/// paper names, case-insensitive); no arguments selects all nine models.
///
/// # Panics
///
/// Panics with a helpful message when an argument matches no model.
pub fn cli_models() -> Vec<Model> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Model::all().to_vec();
    }
    args.iter()
        .map(|a| {
            let needle = a.to_lowercase();
            Model::all()
                .into_iter()
                .find(|m| m.name().to_lowercase().contains(&needle))
                .unwrap_or_else(|| {
                    panic!(
                        "unknown model `{a}`; known: {}",
                        Model::all().map(|m| m.name()).join(", ")
                    )
                })
        })
        .collect()
}

/// Prints a Markdown-ish table header.
pub fn print_header(title: &str, cols: &[&str]) {
    println!("\n## {title}\n");
    println!("| {} |", cols.join(" | "));
    println!(
        "|{}|",
        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_cover_the_papers_columns() {
        let s = strong_scaling_settings();
        assert_eq!(s.len(), 4);
        assert_eq!(s[3].gpus(), 8);
        assert_eq!(s[3].servers, 2);
        let w = weak_scaling_settings();
        assert_eq!(w[3].gpus(), 16);
    }

    #[test]
    fn per_replica_batch_clamps() {
        assert_eq!(per_replica_batch(Model::Vgg19, 64, 4), 16);
        assert_eq!(per_replica_batch(Model::Transformer, 4096, 8), 512);
        // transformer needs at least one 64-token sequence per replica
        assert_eq!(per_replica_batch(Model::Transformer, 64, 8), 64);
    }

    #[test]
    fn dp_runs_on_small_model() {
        let topo = Topology::single_server(2);
        let m = run_dp(Model::LeNet, &topo, 32, ReplicationMode::ParameterServer).unwrap();
        assert!(m.iter_time > 0.0);
        assert!(m.samples_per_sec > 0.0);
    }

    #[test]
    fn fastt_beats_or_matches_dp_on_lenet() {
        let topo = Topology::single_server(2);
        let dp = run_dp(Model::LeNet, &topo, 32, ReplicationMode::ParameterServer).unwrap();
        let ft = run_fastt(Model::LeNet, &topo, 32, 64, None).unwrap();
        assert!(
            ft.measurement.iter_time <= dp.iter_time * 1.05,
            "FastT {} vs DP {}",
            ft.measurement.iter_time,
            dp.iter_time
        );
    }

    #[test]
    fn fastt_cell_on_a_dp_plan_reads_exactly_the_dp_cell() {
        // No re-plan rounds on two servers: the session keeps its PS DP
        // start plan, so both cells measure the same plan the same way.
        let topo = Topology::multi_server(2, 2);
        let config = SessionConfig {
            max_rounds: 0,
            dp_ps: dp_ps_for(Model::LeNet),
            ..SessionConfig::default()
        };
        let ft = run_fastt(Model::LeNet, &topo, 32, 128, Some(config)).unwrap();
        assert_eq!(ft.session.ladder_rung(), fastt::LadderRung::PsDp);
        let dp = run_dp(Model::LeNet, &topo, 32, ReplicationMode::ParameterServer).unwrap();
        assert_eq!(ft.measurement.iter_time, dp.iter_time);
        // The session's own profiled number runs under other noise draws.
        assert_ne!(ft.report.final_iter_time, dp.iter_time);
    }

    #[test]
    fn ps_family_rule() {
        assert_eq!(dp_ps_for(Model::Vgg19), None);
        assert_eq!(dp_ps_for(Model::BertLarge), Some(DeviceId(0)));
    }
}

pub mod perf;
