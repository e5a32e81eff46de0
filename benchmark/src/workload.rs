//! The four workloads: their inputs, made from the seed, and one pass over
//! them through the public API, timed per phase and checked.
//!
//! Session workloads mirror `fastt_bench::run_fastt`: each model is built at
//! its per-replica batch, the session starts data-parallel when the
//! replicas fit, and is rebuilt at the global batch when they do not.
//! Pre-training uses the `SessionConfig` default noise seed, so every run
//! plans along one path: the adaptive loop turns a different profiling
//! seed into anything from 2 to 6 rounds (ResNet-200 pre-training on 1x4
//! took 4.7 to 10.1 s over seeds 1 to 8 on a 2-vCPU Xeon host), which
//! would time the path rather than the code. The workload seed drives the
//! simulated measurement of the final plans instead, and the fleet's job
//! streams.

use fastt::{
    seeded_workload, ClusterManager, DataParallelPlanner, JobSpec, Plan, Planner, PlanningContext,
    SessionConfig, TrainingSession,
};
use fastt_bench::{dp_ps_for, per_replica_batch, MEASURE_ITERS};
use fastt_cluster::{DeviceId, Topology};
use fastt_cost::CostModels;
use fastt_graph::{build_training_graph, Graph};
use fastt_models::{stacked_transformer, Model};
use fastt_sim::{CommPlan, HardwarePerf, Placement, SimConfig, SimError};
use fastt_telemetry::Value;

use crate::trace::{Secs, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper1Server,
    Paper2Server,
    DeepStack,
    Fleet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Paper1Server,
        Workload::Paper2Server,
        Workload::DeepStack,
        Workload::Fleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper1Server => "paper-1server",
            Workload::Paper2Server => "paper-2server",
            Workload::DeepStack => "deep-stack",
            Workload::Fleet => "fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn inputs(self) -> Inputs {
        let sessions = |models: &[Model], servers, gpus| {
            let topo = Topology::multi_server(servers, gpus);
            let n = topo.gpu_count() as u32;
            Inputs::Sessions(
                models
                    .iter()
                    .map(|&m| SessionSpec {
                        net: Net::Paper(m),
                        topo: topo.clone(),
                        per_replica: per_replica_batch(m, m.paper_batch(), n),
                    })
                    .collect(),
            )
        };
        match self {
            Workload::Paper1Server => sessions(&Model::all(), 1, 4),
            Workload::Paper2Server => sessions(
                &[
                    Model::Transformer,
                    Model::Gnmt4,
                    Model::Rnnlm,
                    Model::InceptionV3,
                    Model::Vgg19,
                ],
                2,
                2,
            ),
            Workload::DeepStack => Inputs::Sessions(vec![SessionSpec {
                net: Net::Stack(128),
                topo: Topology::multi_server(1, 2),
                per_replica: 64,
            }]),
            Workload::Fleet => {
                let topo = Topology::multi_server(2, 4);
                let n = topo.gpu_count() as u32;
                let mut templates = Vec::new();
                for m in [
                    Model::Transformer,
                    Model::InceptionV3,
                    Model::Vgg19,
                    Model::Gnmt4,
                ] {
                    let big = per_replica_batch(m, m.paper_batch(), n);
                    templates.push((Net::Paper(m), big));
                    templates.push((Net::Paper(m), (big / 2).max(m.min_batch())));
                }
                // Each stream draws its own template mix; 48 of them keep
                // the mix's effect on the mean iteration time near 2%.
                Inputs::Fleet(Box::new(FleetSpec {
                    topo,
                    templates,
                    streams: 48,
                }))
            }
        }
    }
}

/// A model the benchmark builds graphs of.
#[derive(Debug, Clone, Copy)]
pub enum Net {
    Paper(Model),
    /// `stacked_transformer` with this many encoder layers.
    Stack(u32),
}

impl Net {
    pub fn label(self) -> String {
        match self {
            Net::Paper(m) => m.name().to_string(),
            Net::Stack(layers) => format!("stack{layers}"),
        }
    }

    pub fn graph(self, batch: u64) -> Graph {
        match self {
            Net::Paper(m) => m.training_graph(batch),
            Net::Stack(layers) => build_training_graph(&stacked_transformer(batch, layers))
                .expect("stacked transformer trains"),
        }
    }

    pub fn dp_ps(self) -> Option<DeviceId> {
        match self {
            Net::Paper(m) => dp_ps_for(m),
            Net::Stack(_) => dp_ps_for(Model::Transformer),
        }
    }
}

/// One training session: a model on a cluster at a per-replica batch.
#[derive(Debug)]
pub struct SessionSpec {
    pub net: Net,
    pub topo: Topology,
    pub per_replica: u64,
}

/// Seeded job streams over model templates on one shared cluster.
#[derive(Debug)]
pub struct FleetSpec {
    pub topo: Topology,
    /// (model, per-replica batch) of each job template.
    pub templates: Vec<(Net, u64)>,
    /// Streams per pass; stream `i` of seed `S` uses seed `S + i`.
    pub streams: u64,
}

impl FleetSpec {
    pub fn build_templates(&self) -> Vec<(String, Graph)> {
        self.templates
            .iter()
            .map(|&(net, batch)| (format!("{}@{batch}", net.label()), net.graph(batch)))
            .collect()
    }

    /// The job streams of `seed`: `(stream seed, jobs)`.
    pub fn job_streams(
        &self,
        seed: u64,
        templates: &[(String, Graph)],
    ) -> Vec<(u64, Vec<JobSpec>)> {
        (0..self.streams)
            .map(|i| {
                let s = seed.wrapping_add(i);
                (s, seeded_workload(s, templates, self.topo.gpu_count()))
            })
            .collect()
    }
}

#[derive(Debug)]
pub enum Inputs {
    Sessions(Vec<SessionSpec>),
    Fleet(Box<FleetSpec>),
}

/// What one pass measured, checked and counted.
#[derive(Debug, Default)]
pub struct Pass {
    pub run: Secs,
    /// Wall-clock seconds inside DPOS / OS-DPOS, as `pre_train` reports
    /// them (the paper's Table 4); `None` on the fleet, which never
    /// pre-trains.
    pub strategy_calc_s: Option<f64>,
    /// Sum of `ln(iteration seconds)` over `iters` deployed plans.
    log_iter_sum: f64,
    iters: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Every simulated result, bit-exact, so repeats can be compared.
    pub fingerprint: String,
    pub counts: Counts,
    pub details: Vec<Value>,
}

/// Decisions the session and fleet layers made during the pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub rounds: u64,
    pub activations: u64,
    pub rollbacks: u64,
    pub preemptions: u64,
    pub ticks: u64,
    pub job_iters: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Pass {
    fn check<E: std::fmt::Display>(&mut self, what: &str, res: Result<(), E>) {
        self.attempted += 1;
        if let Err(e) = res {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    fn deployed(&mut self, iter_secs: f64) {
        self.log_iter_sum += iter_secs.ln();
        self.iters += 1;
    }

    /// Geometric mean of the deployed plans' simulated iteration time.
    pub fn iter_ms(&self) -> f64 {
        if self.iters == 0 {
            return f64::NAN;
        }
        (self.log_iter_sum / self.iters as f64).exp() * 1e3
    }

    /// The pass as the child process prints it. The keys named like
    /// end-to-end metrics carry their values.
    pub fn to_json(&self) -> Value {
        let c = &self.counts;
        Value::obj([
            ("run_cpu_s", Value::from(self.run.cpu)),
            ("iter_ms", Value::from(self.iter_ms())),
            ("run_wall_s", Value::from(self.run.wall)),
            (
                "strategy_calc_s",
                self.strategy_calc_s.map_or(Value::Null, Value::from),
            ),
            ("attempted", Value::from(self.attempted)),
            (
                "failures",
                Value::arr(self.failures.iter().map(String::as_str)),
            ),
            ("fingerprint", Value::from(self.fingerprint.as_str())),
            (
                "counts",
                Value::obj([
                    ("rounds", Value::from(c.rounds)),
                    ("activations", Value::from(c.activations)),
                    ("rollbacks", Value::from(c.rollbacks)),
                    ("preemptions", Value::from(c.preemptions)),
                    ("ticks", Value::from(c.ticks)),
                    ("job_iters", Value::from(c.job_iters)),
                    ("cache_hits", Value::from(c.cache_hits)),
                    ("cache_misses", Value::from(c.cache_misses)),
                ]),
            ),
            ("details", Value::Arr(self.details.clone())),
        ])
    }
}

/// A constructed session plus what it took to build it.
pub struct SetUp {
    pub session: TrainingSession,
    /// The training graph the session was built from.
    pub raw: Graph,
    pub global_batch: u64,
    pub build: Secs,
    pub new: Secs,
}

/// Builds the graph and the session the way `fastt_bench::run_fastt` does.
pub fn set_up_session(spec: &SessionSpec, tr: &mut Tracer) -> Result<SetUp, String> {
    let config = SessionConfig {
        dp_ps: spec.net.dp_ps(),
        ..SessionConfig::default()
    };
    let build = |tr: &mut Tracer, batch: u64| {
        let (raw, build) = tr.time("graph.build", |_| spec.net.graph(batch));
        let (session, new) = tr.time("session.new", |_| {
            TrainingSession::new(&raw, spec.topo.clone(), HardwarePerf::new(), config.clone())
        });
        let session = session.map_err(|e| format!("{}: {e}", spec.net.label()))?;
        Ok::<_, String>((session, raw, build, new))
    };
    let (mut session, mut raw, mut build_secs, mut new_secs) = build(tr, spec.per_replica)?;
    let global_batch = spec.per_replica * spec.topo.gpu_count() as u64;
    if !session.started_data_parallel() && global_batch != spec.per_replica {
        // Data parallelism cannot host the model, so FastT deploys the
        // whole-batch DAG (Sec. 5.2).
        let (s, r, b, n) = build(tr, global_batch)?;
        (session, raw) = (s, r);
        build_secs += b;
        new_secs += n;
    }
    Ok(SetUp {
        session,
        raw,
        global_batch,
        build: build_secs,
        new: new_secs,
    })
}

/// Only the set-up phase of a pass.
pub fn set_up(inputs: &Inputs, seed: u64) -> Result<Secs, String> {
    let mut tr = Tracer::off();
    match inputs {
        Inputs::Sessions(specs) => {
            let mut secs = Secs::default();
            for spec in specs {
                let s = set_up_session(spec, &mut tr)?;
                secs += s.build;
                secs += s.new;
            }
            Ok(secs)
        }
        Inputs::Fleet(spec) => Ok(tr.time("setup", |_| set_up_fleet(spec, seed)).1),
    }
}

/// One full pass over the workload.
pub fn run_pass(inputs: &Inputs, seed: u64, tr: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    match inputs {
        Inputs::Sessions(specs) => {
            for spec in specs {
                session_pass(spec, seed, tr, &mut pass);
            }
        }
        Inputs::Fleet(spec) => fleet_pass(spec, seed, tr, &mut pass),
    }
    pass
}

/// Mean simulated iteration time of `plan` over the measurement
/// iterations, with the seed's execution-time noise.
fn measure(plan: &Plan, topo: &Topology, seed: u64) -> Result<f64, SimError> {
    let mut total = 0.0;
    for it in 0..MEASURE_ITERS {
        let cfg = SimConfig {
            jitter_pct: 0.02,
            seed,
            iteration: u64::from(it),
            ..SimConfig::default()
        };
        total += plan.simulate(topo, &HardwarePerf::new(), &cfg)?.makespan;
    }
    Ok(total / f64::from(MEASURE_ITERS))
}

fn session_pass(spec: &SessionSpec, seed: u64, tr: &mut Tracer, pass: &mut Pass) {
    let label = spec.net.label();
    tr.set_job(&label);
    pass.attempted += 1;
    let (setup, _) = tr.time("setup", |tr| set_up_session(spec, tr));
    let SetUp {
        mut session,
        raw,
        global_batch,
        ..
    } = match setup {
        Ok(s) => s,
        Err(e) => return pass.failures.push(e),
    };
    let (report, run) = tr.time("session.pre_train", |_| session.pre_train());
    pass.run += run;
    let report = match report {
        Ok(r) => r,
        Err(e) => return pass.failures.push(format!("{label}: pre_train: {e}")),
    };
    *pass.strategy_calc_s.get_or_insert(0.0) += report.strategy_calc_secs;
    pass.counts.rounds += u64::from(report.rounds);
    pass.counts.activations += u64::from(report.activations);
    pass.counts.rollbacks += u64::from(report.rollbacks);

    let plan = session.current_plan();
    let topo = session.topology();
    pass.check(
        &format!("{label}: placement"),
        plan.placement.validate(&plan.graph, topo),
    );
    pass.check(
        &format!("{label}: comm plan"),
        CommPlan::lower(&plan.graph, &plan.placement, topo).and_then(|c| c.validate(topo, 0)),
    );
    let final_iter = report.final_iter_time;
    pass.check(
        &format!("{label}: final_iter_time"),
        if final_iter.is_finite() && final_iter > 0.0 {
            Ok(())
        } else {
            Err(final_iter)
        },
    );
    let fastt = measure(plan, topo, seed);
    pass.check(&format!("{label}: measure"), fastt.as_ref().map(|_| ()));
    let Ok(fastt) = fastt else { return };
    pass.deployed(fastt);

    // Baselines, reported and not gated: data parallelism at the same
    // batch, and the whole batch on one GPU (`None` when it does not fit).
    let started_dp = session.started_data_parallel();
    let other = spec.net.graph(if started_dp {
        global_batch
    } else {
        spec.per_replica
    });
    let (per_replica, whole) = if started_dp {
        (&raw, other)
    } else {
        (&other, raw)
    };
    let hw = HardwarePerf::new();
    let dp = DataParallelPlanner::default()
        .plan(
            &mut PlanningContext::new(per_replica, topo, &hw, CostModels::new())
                .with_raw(per_replica)
                .with_dp_ps(spec.net.dp_ps()),
        )
        .ok()
        .and_then(|p| measure(&p, topo, seed).ok());
    let gpu0 = topo.gpu_ids().next().expect("session topology has a GPU");
    let single = Plan {
        placement: Placement::uniform(whole.op_count(), gpu0),
        graph: whole,
        splits: Vec::new(),
        order: None,
        est_finish: f64::NAN,
    };
    let single = measure(&single, topo, seed).ok();
    let sps = |secs: f64| global_batch as f64 / secs;
    pass.fingerprint.push_str(&format!(
        "{label}:{:x}:{:x}:{}:{}:{};",
        final_iter.to_bits(),
        fastt.to_bits(),
        report.rounds,
        report.activations,
        report.rollbacks
    ));
    pass.details.push(Value::obj([
        ("job", Value::from(label.as_str())),
        ("started_dp", Value::from(started_dp)),
        ("global_batch", Value::from(global_batch)),
        ("rounds", Value::from(u64::from(report.rounds))),
        ("activations", Value::from(u64::from(report.activations))),
        ("rollbacks", Value::from(u64::from(report.rollbacks))),
        ("splits", Value::from(plan.splits.len() as u64)),
        ("strategy_calc_s", Value::from(report.strategy_calc_secs)),
        ("pre_train_s", Value::from(run.wall)),
        ("pre_train_cpu_s", Value::from(run.cpu)),
        ("iter_ms", Value::from(fastt * 1e3)),
        ("samples_per_s", Value::from(sps(fastt))),
        (
            "dp_samples_per_s",
            dp.map_or(Value::Null, |t| Value::from(sps(t))),
        ),
        (
            "speedup_vs_dp",
            dp.map_or(Value::Null, |t| Value::from(t / fastt)),
        ),
        (
            "single_gpu_samples_per_s",
            single.map_or(Value::Null, |t| Value::from(sps(t))),
        ),
    ]));
}

/// The fleet's set-up: templates built, job streams generated, one manager
/// per stream with its jobs submitted.
fn set_up_fleet(spec: &FleetSpec, seed: u64) -> Vec<(u64, usize, ClusterManager)> {
    let templates = spec.build_templates();
    spec.job_streams(seed, &templates)
        .into_iter()
        .map(|(s, jobs)| {
            let mut manager = ClusterManager::new(spec.topo.clone(), HardwarePerf::new(), s);
            let submitted = jobs.len();
            for job in jobs {
                manager.submit(job);
            }
            (s, submitted, manager)
        })
        .collect()
}

/// The session configuration `ClusterManager` admits jobs with.
pub fn fleet_config() -> SessionConfig {
    SessionConfig {
        profile_iters: 1,
        max_rounds: 2,
        ..SessionConfig::default()
    }
}

fn fleet_pass(spec: &FleetSpec, seed: u64, tr: &mut Tracer, pass: &mut Pass) {
    tr.set_job("fleet");
    let (streams, _) = tr.time("setup", |_| set_up_fleet(spec, seed));
    let (mut utilization, mut waits) = (0.0, Vec::new());
    for (s, submitted, mut manager) in streams {
        let label = format!("fleet-{s}");
        tr.set_job(&label);
        pass.attempted += 1;
        let (report, run) = tr.time("fleet.run", |_| manager.run());
        pass.run += run;
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                pass.failures.push(format!("{label}: run: {e}"));
                continue;
            }
        };
        pass.check(
            &format!("{label}: deadlocks"),
            if report.deadlocks == 0 {
                Ok(())
            } else {
                Err(report.deadlocks)
            },
        );
        pass.check(
            &format!("{label}: departed jobs"),
            if report.jobs.len() == submitted {
                Ok(())
            } else {
                Err(report.jobs.len())
            },
        );
        for job in &report.jobs {
            let t = job.mean_iter_time;
            pass.check(
                &format!("{label}: {} mean_iter_time", job.name),
                if t.is_finite() && t > 0.0 {
                    Ok(())
                } else {
                    Err(t)
                },
            );
            if t > 0.0 {
                pass.deployed(t);
            }
            waits.push(job.queue_wait);
            pass.counts.job_iters += job.iters_run;
        }
        pass.counts.preemptions += report.preemptions;
        pass.counts.ticks += report.ticks;
        pass.counts.cache_hits += report.cache_hits;
        pass.counts.cache_misses += report.cache_misses;
        utilization += report.mean_utilization();
        pass.fingerprint.push_str(&format!(
            "{s}:{:016x};",
            fnv1a(report.event_log().as_bytes())
        ));
    }
    waits.sort_unstable();
    let c = pass.counts;
    pass.details.push(Value::obj([
        ("job", Value::from("fleet")),
        ("streams", Value::from(spec.streams)),
        ("jobs", Value::from(waits.len() as u64)),
        (
            "utilization",
            Value::from(utilization / spec.streams as f64),
        ),
        (
            "queue_wait_p90_ticks",
            Value::from(waits.get(waits.len() * 9 / 10).copied().unwrap_or(0)),
        ),
        ("job_iter_ms", Value::from(pass.iter_ms())),
        ("preemptions", Value::from(c.preemptions)),
        (
            "cache_hit_rate",
            Value::from(ratio(c.cache_hits, c.cache_hits + c.cache_misses)),
        ),
    ]));
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// FNV-1a, for comparing fleet event logs across repeats.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
