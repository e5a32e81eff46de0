//! Multi-tenant training fleet: a [`ClusterManager`] that admits a stream
//! of jobs onto one shared [`Topology`], carves each an [`Allocation`],
//! and elastically grows, shrinks, and preempts them over discrete
//! scheduling ticks.
//!
//! This is the ownership refactor's payoff layer. A [`TrainingSession`]
//! no longer owns the cluster — it owns a slice
//! ([`fastt_cluster::Allocation`]) of a topology the manager owns — so
//! several jobs can train side by side without seeing each other's
//! devices. All jobs share one [`PlanCache`]: a job arriving with a model
//! and allocation shape a sibling already planned starts from the cached
//! plan with zero planner evaluations (the capacity-mask fingerprint of
//! the cache makes twin slices indistinguishable).
//!
//! The scheduler is deliberately simple and fully deterministic:
//!
//! 1. **Arrivals** — submitted jobs whose arrival tick has come join the
//!    queue.
//! 2. **Admission** — queued jobs in (priority desc, arrival asc) order
//!    are granted the lowest-numbered free GPUs when enough are free.
//! 3. **Preemption** — a queued job may shrink strictly-lower-priority
//!    running jobs down to their `min_gpus` (via
//!    [`TrainingSession::release_devices`], which walks the PR 5
//!    degradation ladder) when that covers its demand.
//! 4. **Growth** — leftover free GPUs are granted back to shrunken jobs
//!    (via [`TrainingSession::grant_devices`], which walks the PR 7
//!    promotion ladder).
//! 5. **Advance** — every running job executes one profiled iteration;
//!    finished jobs depart and their devices return to the pool.
//!
//! Every decision is logged as a [`FleetEvent`] whose rendering is
//! byte-stable across same-seed runs (fixed-precision floats, no
//! wall-clock), so fleet logs can be diffed in CI.

use crate::error::FastTError;
use crate::planner::PlanCache;
use crate::session::{LadderRung, SessionConfig, TrainingSession};
use fastt_cluster::{Allocation, AllocationId, DeviceId, Topology};
use fastt_graph::{Graph, ReplicationMode};
use fastt_sim::seed::{domains as seed_domains, SeedStream};
use fastt_sim::HardwarePerf;
use fastt_telemetry::{jobj, Collector, Slo};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A job submitted to the fleet: what to train, when it arrives, how much
/// capacity it wants, and how it ranks against its neighbours.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Display name; also labels the job's telemetry and salts its slice
    /// of the shared plan cache.
    pub name: String,
    /// The training graph to place and run.
    pub graph: Graph,
    /// Scheduling tick at which the job enters the queue.
    pub arrival: u64,
    /// Iterations the job must run before departing.
    pub iters: u64,
    /// GPUs requested at admission.
    pub gpus: usize,
    /// Floor below which preemption may not shrink this job (clamped to
    /// at least 1).
    pub min_gpus: usize,
    /// Higher wins: admission order, preemption rights, and growth order.
    pub priority: u8,
    /// Absolute tick by which the job should depart; missing it is
    /// reported, not enforced.
    pub deadline: Option<u64>,
}

/// One scheduling decision, rendered deterministically for the fleet log.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetEvent {
    /// A submitted job reached its arrival tick and joined the queue.
    Arrived {
        /// Scheduling tick.
        t: u64,
        /// Job name.
        job: String,
        /// GPUs the job requests.
        gpus: usize,
    },
    /// A queued job was granted devices and its session was constructed.
    Admitted {
        /// Scheduling tick.
        t: u64,
        /// Job name.
        job: String,
        /// Devices carved into the job's allocation.
        devices: Vec<DeviceId>,
        /// Ticks spent queued before admission.
        wait: u64,
        /// Whether every admission plan was served from the shared plan
        /// cache (a sibling already planned this model + shape), so no
        /// planner ran.
        cached: bool,
        /// The start plan's rung: the faster data-parallel mode, or model
        /// parallelism when neither mode fits.
        start: LadderRung,
    },
    /// A job could not be admitted and was dropped.
    Rejected {
        /// Scheduling tick.
        t: u64,
        /// Job name.
        job: String,
        /// Why admission failed.
        reason: String,
    },
    /// A running job was shrunk to make room for a higher-priority job.
    Preempted {
        /// Scheduling tick.
        t: u64,
        /// The job that lost devices.
        victim: String,
        /// Devices revoked from the victim.
        devices: Vec<DeviceId>,
        /// The job the devices were taken for.
        beneficiary: String,
    },
    /// A shrunken job was granted devices back.
    Expanded {
        /// Scheduling tick.
        t: u64,
        /// Job name.
        job: String,
        /// Devices granted.
        devices: Vec<DeviceId>,
    },
    /// A job finished its iterations and released its allocation.
    Departed {
        /// Scheduling tick.
        t: u64,
        /// Job name.
        job: String,
        /// Iterations run.
        iters: u64,
        /// Mean profiled iteration time, seconds.
        mean_iter_time: f64,
        /// Whether the job departed by its deadline (true when none).
        deadline_met: bool,
    },
    /// A queued job blew past its deadline before being admitted.
    DeadlineMiss {
        /// Scheduling tick.
        t: u64,
        /// Job name.
        job: String,
    },
    /// Cluster occupancy changed.
    Utilization {
        /// Scheduling tick.
        t: u64,
        /// GPUs owned by running jobs.
        busy: usize,
        /// GPUs in the shared topology.
        total: usize,
    },
}

fn render_devices(devices: &[DeviceId]) -> String {
    let mut s = String::new();
    for (i, d) in devices.iter().enumerate() {
        if i > 0 {
            s.push('+');
        }
        s.push_str(&d.to_string());
    }
    s
}

impl FleetEvent {
    /// One deterministic log line: fixed-precision floats, no wall-clock,
    /// byte-identical across same-seed runs.
    pub fn render(&self) -> String {
        match self {
            FleetEvent::Arrived { t, job, gpus } => {
                format!("t={t:03} arrive  job={job} want={gpus}")
            }
            FleetEvent::Admitted {
                t,
                job,
                devices,
                wait,
                cached,
                start,
            } => format!(
                "t={t:03} admit   job={job} gpus={} wait={wait} cached={cached} start={}",
                render_devices(devices),
                start.label()
            ),
            FleetEvent::Rejected { t, job, reason } => {
                format!("t={t:03} reject  job={job} reason={reason}")
            }
            FleetEvent::Preempted {
                t,
                victim,
                devices,
                beneficiary,
            } => format!(
                "t={t:03} preempt job={victim} lost={} for={beneficiary}",
                render_devices(devices)
            ),
            FleetEvent::Expanded { t, job, devices } => {
                format!("t={t:03} grow    job={job} gained={}", render_devices(devices))
            }
            FleetEvent::Departed {
                t,
                job,
                iters,
                mean_iter_time,
                deadline_met,
            } => format!(
                "t={t:03} depart  job={job} iters={iters} mean_iter={mean_iter_time:.6}s deadline_met={deadline_met}"
            ),
            FleetEvent::DeadlineMiss { t, job } => {
                format!("t={t:03} overdue job={job}")
            }
            FleetEvent::Utilization { t, busy, total } => {
                format!("t={t:03} util    busy={busy}/{total}")
            }
        }
    }
}

/// Per-job outcome summary in a [`FleetReport`].
#[derive(Debug, Clone)]
pub struct JobStats {
    /// Job name.
    pub name: String,
    /// Ticks between arrival and admission.
    pub queue_wait: u64,
    /// Iterations the job ran.
    pub iters_run: u64,
    /// Mean profiled iteration time, seconds.
    pub mean_iter_time: f64,
    /// Per-tick iteration-time timeline (one sample per advance).
    pub iter_times: Vec<f64>,
    /// Whether admission was served from the shared plan cache.
    pub cached_start: bool,
    /// Times this job was shrunk by a preemption.
    pub preemptions: u64,
    /// Whether the job departed by its deadline (true when none set).
    pub deadline_met: bool,
}

/// Everything a fleet run produced: the decision log, per-job stats, and
/// cluster-level aggregates.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Every scheduling decision in emission order.
    pub events: Vec<FleetEvent>,
    /// Per-job summaries in departure order.
    pub jobs: Vec<JobStats>,
    /// Most jobs holding allocations at once.
    pub max_concurrent: usize,
    /// Total preemption shrinks executed.
    pub preemptions: u64,
    /// Scheduling stalls (queued work, no progress possible). A healthy
    /// run reports 0.
    pub deadlocks: u64,
    /// `(tick, busy, total)` occupancy samples, one per tick.
    pub utilization: Vec<(u64, usize, usize)>,
    /// Shared plan-cache hits at the end of the run.
    pub cache_hits: u64,
    /// Shared plan-cache misses at the end of the run.
    pub cache_misses: u64,
    /// Plans resident in the shared cache at the end of the run.
    pub cache_len: usize,
    /// Ticks the run took.
    pub ticks: u64,
}

impl FleetReport {
    /// The rendered event log, one [`FleetEvent::render`] line per event.
    /// Byte-identical across same-seed runs.
    pub fn event_log(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }

    /// Mean busy fraction over the utilization timeline (0 when empty).
    pub fn mean_utilization(&self) -> f64 {
        if self.utilization.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .utilization
            .iter()
            .map(|(_, busy, total)| *busy as f64 / (*total).max(1) as f64)
            .sum();
        sum / self.utilization.len() as f64
    }
}

/// A job holding an allocation inside the manager.
struct Job {
    spec: JobSpec,
    session: TrainingSession,
    admitted_at: u64,
    done: u64,
    iter_times: Vec<f64>,
    cached_start: bool,
    preemptions: u64,
    index: usize,
}

impl Job {
    fn min_gpus(&self) -> usize {
        self.spec.min_gpus.max(1)
    }

    fn mean_iter_time(&self) -> f64 {
        if self.iter_times.is_empty() {
            0.0
        } else {
            self.iter_times.iter().sum::<f64>() / self.iter_times.len() as f64
        }
    }
}

/// The data-parallel modes a multi-GPU admission races, ties to the first:
/// the parameter-server funnel (the paper's start) and ring all-reduce. A
/// fleet job is deployed as admitted and never pre-trains, so the faster
/// mode is what it trains on.
const ADMISSION_DP_MODES: [ReplicationMode; 2] =
    [ReplicationMode::ParameterServer, ReplicationMode::AllReduce];

/// FNV-1a over the job name: a stable nonzero per-job cache salt so jobs
/// sharing one [`PlanCache`] never serve each other plans computed from
/// their independently fitted cost models (generation-0 plans stay
/// shareable; see [`SessionConfig::cache_salt`]).
fn job_cache_salt(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h | 1
}

/// Admits, schedules, and elastically resizes a fleet of training jobs on
/// one shared [`Topology`].
///
/// The manager owns the cluster; each admitted job owns only an
/// [`Allocation`] carved from it. Device ownership is derived from the
/// live allocations themselves — a GPU is free exactly when no running
/// job's allocation contains it — so grants and revocations can never
/// double-book or strand a device.
///
/// # Examples
///
/// ```
/// use fastt::fleet::{ClusterManager, JobSpec};
/// use fastt_cluster::Topology;
/// use fastt_models::Model;
/// use fastt_sim::HardwarePerf;
///
/// let mut fleet = ClusterManager::new(Topology::multi_server(1, 4), HardwarePerf::new(), 21);
/// fleet.submit(JobSpec {
///     name: "job-a".into(),
///     graph: Model::LeNet.training_graph(16),
///     arrival: 0,
///     iters: 2,
///     gpus: 2,
///     min_gpus: 1,
///     priority: 1,
///     deadline: None,
/// });
/// let report = fleet.run().unwrap();
/// assert_eq!(report.deadlocks, 0);
/// assert_eq!(report.jobs.len(), 1);
/// ```
pub struct ClusterManager {
    shared: Topology,
    hw: HardwarePerf,
    cache: Arc<PlanCache>,
    collector: Option<Arc<Collector>>,
    seed: u64,
    submitted: Vec<(JobSpec, usize)>,
    queue: Vec<(JobSpec, usize)>,
    running: Vec<Job>,
    events: Vec<FleetEvent>,
    jobs_done: Vec<JobStats>,
    utilization: Vec<(u64, usize, usize)>,
    next_alloc: u32,
    next_index: usize,
    preemptions: u64,
    deadlocks: u64,
    max_concurrent: usize,
    overdue: BTreeSet<String>,
}

impl ClusterManager {
    /// A manager over `shared` with an empty queue and a fresh shared
    /// plan cache. `seed` derives each job's deterministic profiling
    /// noise stream, so same-seed runs are bit-identical.
    pub fn new(shared: Topology, hw: HardwarePerf, seed: u64) -> Self {
        ClusterManager {
            shared,
            hw,
            cache: Arc::new(PlanCache::default()),
            collector: None,
            seed,
            submitted: Vec::new(),
            queue: Vec::new(),
            running: Vec::new(),
            events: Vec::new(),
            jobs_done: Vec::new(),
            utilization: Vec::new(),
            next_alloc: 0,
            next_index: 0,
            preemptions: 0,
            deadlocks: 0,
            max_concurrent: 0,
            overdue: BTreeSet::new(),
        }
    }

    /// Attaches a telemetry collector: fleet decisions emit `fleet.*`
    /// events and metrics on it, and every admitted job gets a labeled
    /// view (`job = <name>`) of the same stream, so multi-job telemetry
    /// interleaves into one totally-ordered log.
    pub fn with_collector(mut self, collector: Arc<Collector>) -> Self {
        self.collector = Some(collector);
        self
    }

    /// The plan cache shared by every job the manager admits.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Queues a job for its arrival tick.
    pub fn submit(&mut self, spec: JobSpec) {
        self.submitted.push((spec, self.next_index));
        self.next_index += 1;
    }

    fn emit(&mut self, ev: FleetEvent) {
        if let Some(col) = &self.collector {
            let (kind, fields) = match &ev {
                FleetEvent::Arrived { t, job, gpus } => (
                    "fleet.arrive",
                    jobj! { "t" => *t, "job" => job.as_str(), "want" => *gpus as u64 },
                ),
                FleetEvent::Admitted {
                    t,
                    job,
                    devices,
                    wait,
                    cached,
                    start,
                } => (
                    "fleet.admit",
                    jobj! {
                        "t" => *t,
                        "job" => job.as_str(),
                        "gpus" => devices.len() as u64,
                        "wait" => *wait,
                        "cached" => *cached,
                        "start" => start.label(),
                    },
                ),
                FleetEvent::Rejected { t, job, reason } => (
                    "fleet.reject",
                    jobj! { "t" => *t, "job" => job.as_str(), "reason" => reason.as_str() },
                ),
                FleetEvent::Preempted {
                    t,
                    victim,
                    devices,
                    beneficiary,
                } => (
                    "fleet.preempt",
                    jobj! {
                        "t" => *t,
                        "job" => victim.as_str(),
                        "lost" => devices.len() as u64,
                        "for" => beneficiary.as_str(),
                    },
                ),
                FleetEvent::Expanded { t, job, devices } => (
                    "fleet.grow",
                    jobj! { "t" => *t, "job" => job.as_str(), "gained" => devices.len() as u64 },
                ),
                FleetEvent::Departed {
                    t,
                    job,
                    iters,
                    mean_iter_time,
                    deadline_met,
                } => (
                    "fleet.depart",
                    jobj! {
                        "t" => *t,
                        "job" => job.as_str(),
                        "iters" => *iters,
                        "mean_iter_time" => *mean_iter_time,
                        "deadline_met" => *deadline_met,
                    },
                ),
                FleetEvent::DeadlineMiss { t, job } => (
                    "fleet.deadline_miss",
                    jobj! { "t" => *t, "job" => job.as_str() },
                ),
                FleetEvent::Utilization { t, busy, total } => (
                    "fleet.utilization",
                    jobj! { "t" => *t, "busy" => *busy as u64, "total" => *total as u64 },
                ),
            };
            col.emit(kind, fields);
        }
        self.events.push(ev);
    }

    fn total_gpus(&self) -> usize {
        self.shared.gpu_ids().count()
    }

    /// GPUs owned by no running job, lowest id first. Ownership is
    /// derived from the allocations, not a side ledger, so it cannot
    /// drift.
    fn free_gpus(&self) -> Vec<DeviceId> {
        let owned: BTreeSet<DeviceId> = self
            .running
            .iter()
            .flat_map(|j| j.session.allocation().members().iter().copied())
            .collect();
        self.shared
            .gpu_ids()
            .filter(|d| !owned.contains(d))
            .collect()
    }

    /// Constructs the session for `spec` on `devices` through the shared
    /// cache. Returns the admitted job, or the rejection reason.
    fn admit(
        &mut self,
        t: u64,
        spec: JobSpec,
        index: usize,
        devices: &[DeviceId],
    ) -> Result<(), String> {
        let alloc = Allocation::new(AllocationId(self.next_alloc), &self.shared, devices);
        let config = SessionConfig {
            profile_iters: 1,
            seed: SeedStream::new(self.seed).indexed(index as u64),
            cache_salt: job_cache_salt(&spec.name),
            ..SessionConfig::default()
        };
        let job_collector = self
            .collector
            .as_ref()
            .map(|c| Arc::new(c.labeled("job", spec.name.as_str())));
        // One GPU aggregates no gradients: both modes keep the whole model
        // on it, so the ring only ties or trails the PS plan there.
        let dp_modes = if devices.len() > 1 {
            &ADMISSION_DP_MODES[..]
        } else {
            &ADMISSION_DP_MODES[..1]
        };
        let (hits_before, misses_before) = (self.cache.hits(), self.cache.misses());
        let session = TrainingSession::with_start_modes(
            &spec.graph,
            alloc,
            self.hw.clone(),
            config,
            self.cache.clone(),
            job_collector,
            dp_modes,
        )
        .map_err(|e| e.to_string())?;
        self.next_alloc += 1;
        // A pure cache hit: every admission plan was served by the cache,
        // so no planner ran.
        let cached = self.cache.hits() > hits_before && self.cache.misses() == misses_before;
        let start = session.ladder_rung();
        let wait = t.saturating_sub(spec.arrival);
        if let Some(col) = &self.collector {
            col.metrics().observe("fleet.queue_wait", wait as f64);
            col.metrics().inc("fleet.admitted");
            if cached {
                col.metrics().inc("fleet.cached_admissions");
            }
        }
        self.emit(FleetEvent::Admitted {
            t,
            job: spec.name.clone(),
            devices: devices.to_vec(),
            wait,
            cached,
            start,
        });
        self.running.push(Job {
            spec,
            session,
            admitted_at: t,
            done: 0,
            iter_times: Vec::new(),
            cached_start: cached,
            preemptions: 0,
            index,
        });
        Ok(())
    }

    /// Admission pass: queued jobs in (priority desc, arrival asc, index
    /// asc) order take the lowest free GPUs while supply lasts.
    fn admission_pass(&mut self, t: u64) -> Result<bool, FastTError> {
        self.queue
            .sort_by_key(|(s, i)| (std::cmp::Reverse(s.priority), s.arrival, *i));
        let mut progressed = false;
        let mut still_queued = Vec::new();
        let mut free = self.free_gpus();
        let total = self.total_gpus();
        for (spec, index) in std::mem::take(&mut self.queue) {
            if spec.gpus == 0 || spec.gpus > total {
                let reason = format!("requests {} GPUs, cluster has {}", spec.gpus, total);
                if let Some(col) = &self.collector {
                    col.metrics().inc("fleet.rejected");
                }
                self.emit(FleetEvent::Rejected {
                    t,
                    job: spec.name,
                    reason,
                });
                progressed = true;
                continue;
            }
            if spec.gpus <= free.len() {
                let devices: Vec<DeviceId> = free[..spec.gpus].to_vec();
                match self.admit(t, spec, index, &devices) {
                    Ok(()) => {
                        free.retain(|d| !devices.contains(d));
                        progressed = true;
                    }
                    Err(reason) => {
                        if let Some(col) = &self.collector {
                            col.metrics().inc("fleet.rejected");
                        }
                        // Infeasible model for the slice (e.g. OOM on every
                        // start strategy): dropping it is the only move that
                        // cannot wedge the queue.
                        progressed = true;
                        self.emit_rejection(t, index, reason);
                    }
                }
            } else {
                still_queued.push((spec, index));
            }
        }
        self.queue = still_queued;
        Ok(progressed)
    }

    fn emit_rejection(&mut self, t: u64, index: usize, reason: String) {
        // The spec was consumed by the failed admission attempt; recover
        // the name from the submission index.
        let job = self
            .submitted
            .iter()
            .find(|(_, i)| *i == index)
            .map(|(s, _)| s.name.clone())
            .unwrap_or_else(|| format!("job#{index}"));
        self.emit(FleetEvent::Rejected { t, job, reason });
    }

    /// Preemption pass: the highest-priority queued job may shrink
    /// strictly-lower-priority running jobs down to their `min_gpus`
    /// floors when the yield (plus already-free GPUs) covers its demand.
    /// Victims shrink through [`TrainingSession::release_devices`], so
    /// each keeps a valid (degraded) plan on its surviving devices.
    fn preemption_pass(&mut self, t: u64) -> Result<bool, FastTError> {
        let mut progressed = false;
        self.queue
            .sort_by_key(|(s, i)| (std::cmp::Reverse(s.priority), s.arrival, *i));
        let Some((spec, _)) = self.queue.first() else {
            return Ok(false);
        };
        let free = self.free_gpus();
        let shortfall = spec.gpus.saturating_sub(free.len());
        if shortfall == 0 {
            return Ok(false);
        }
        let priority = spec.priority;
        let beneficiary = spec.name.clone();
        // Victim order: lowest priority first, then newest admission, then
        // highest submission index — the cheapest work to disturb.
        let mut victims: Vec<usize> = (0..self.running.len())
            .filter(|&i| self.running[i].spec.priority < priority)
            .collect();
        victims.sort_by_key(|&i| {
            (
                self.running[i].spec.priority,
                std::cmp::Reverse(self.running[i].admitted_at),
                std::cmp::Reverse(self.running[i].index),
            )
        });
        // Plan the whole preemption before touching any session: partial
        // preemptions that still leave the queue stuck would churn victims
        // for nothing.
        let mut plan: Vec<(usize, Vec<DeviceId>)> = Vec::new();
        let mut covered = 0usize;
        for &vi in &victims {
            if covered >= shortfall {
                break;
            }
            let job = &self.running[vi];
            let yieldable = job.session.allocation().gpu_count() - job.min_gpus();
            if yieldable == 0 {
                continue;
            }
            let take = yieldable.min(shortfall - covered);
            let members = job.session.allocation().members();
            // Revoke from the top: highest-numbered members first, so the
            // survivor keeps its lowest (and typically original) devices.
            let devices: Vec<DeviceId> = members[members.len() - take..].to_vec();
            covered += take;
            plan.push((vi, devices));
        }
        if covered < shortfall {
            return Ok(false);
        }
        for (vi, devices) in plan {
            let victim = self.running[vi].spec.name.clone();
            self.running[vi].session.release_devices(&devices)?;
            self.running[vi].preemptions += 1;
            self.preemptions += 1;
            if let Some(col) = &self.collector {
                col.metrics().inc("fleet.preemptions");
            }
            self.emit(FleetEvent::Preempted {
                t,
                victim,
                devices,
                beneficiary: beneficiary.clone(),
            });
            progressed = true;
        }
        Ok(progressed)
    }

    /// Growth pass: leftover free GPUs flow back to shrunken jobs in
    /// (priority desc, admission asc) order through
    /// [`TrainingSession::grant_devices`] (the promotion ladder decides
    /// whether the grown plan actually replaces the incumbent).
    fn growth_pass(&mut self, t: u64) -> Result<(), FastTError> {
        let mut free = self.free_gpus();
        if free.is_empty() {
            return Ok(());
        }
        let mut order: Vec<usize> = (0..self.running.len()).collect();
        order.sort_by_key(|&i| {
            (
                std::cmp::Reverse(self.running[i].spec.priority),
                self.running[i].admitted_at,
                self.running[i].index,
            )
        });
        for i in order {
            if free.is_empty() {
                break;
            }
            let job = &self.running[i];
            let deficit = job
                .spec
                .gpus
                .saturating_sub(job.session.allocation().gpu_count());
            if deficit == 0 {
                continue;
            }
            let take = deficit.min(free.len());
            let devices: Vec<DeviceId> = free[..take].to_vec();
            self.running[i].session.grant_devices(&devices)?;
            free.retain(|d| !devices.contains(d));
            if let Some(col) = &self.collector {
                col.metrics().inc("fleet.expansions");
            }
            let job = self.running[i].spec.name.clone();
            self.emit(FleetEvent::Expanded { t, job, devices });
        }
        Ok(())
    }

    /// Advance pass: every running job profiles one iteration; finished
    /// jobs depart and free their allocations.
    fn advance_pass(&mut self, t: u64) -> Result<bool, FastTError> {
        let mut progressed = false;
        let mut departed: Vec<usize> = Vec::new();
        for i in 0..self.running.len() {
            let job = &mut self.running[i];
            let dt = job.session.profile(1)?;
            job.done += 1;
            job.iter_times.push(dt);
            progressed = true;
            if job.done >= job.spec.iters {
                departed.push(i);
            }
        }
        for &i in departed.iter().rev() {
            let job = self.running.remove(i);
            let deadline_met = job.spec.deadline.is_none_or(|d| t <= d);
            let mean = job.mean_iter_time();
            if let Some(col) = &self.collector {
                col.metrics().inc("fleet.departed");
                col.metrics().observe("fleet.job_iter_time", mean);
            }
            self.emit(FleetEvent::Departed {
                t,
                job: job.spec.name.clone(),
                iters: job.done,
                mean_iter_time: mean,
                deadline_met,
            });
            self.jobs_done.push(JobStats {
                name: job.spec.name,
                queue_wait: job.admitted_at.saturating_sub(job.spec.arrival),
                iters_run: job.done,
                mean_iter_time: mean,
                iter_times: job.iter_times,
                cached_start: job.cached_start,
                preemptions: job.preemptions,
                deadline_met,
            });
        }
        Ok(progressed)
    }

    /// Runs the fleet to completion: ticks until every submitted job has
    /// departed (or been rejected), then reports.
    ///
    /// # Errors
    ///
    /// Propagates session failures that the elastic ladders cannot absorb
    /// (e.g. [`FastTError::ClusterExhausted`]).
    pub fn run(&mut self) -> Result<FleetReport, FastTError> {
        self.submitted.sort_by_key(|(s, i)| (s.arrival, *i));
        let mut arrivals: Vec<(JobSpec, usize)> = self.submitted.clone();
        arrivals.reverse(); // pop() takes the earliest
        let total = self.total_gpus();
        let mut t: u64 = 0;
        // Generous stall bound: every tick with running work advances at
        // least one iteration, so a healthy run can never hit this.
        let max_ticks = 10_000u64;
        loop {
            // 1. Arrivals.
            while arrivals
                .last()
                .map(|(s, _)| s.arrival <= t)
                .unwrap_or(false)
            {
                let (spec, index) = arrivals.pop().expect("checked non-empty");
                self.emit(FleetEvent::Arrived {
                    t,
                    job: spec.name.clone(),
                    gpus: spec.gpus,
                });
                self.queue.push((spec, index));
            }
            // 2-3. Admission, then preemption for whatever is still stuck,
            // then a second admission pass over the freed capacity.
            let mut progressed = self.admission_pass(t)?;
            if self.preemption_pass(t)? {
                progressed = true;
                self.admission_pass(t)?;
            }
            // Deadline watch for jobs still stuck in the queue.
            let overdue_now: Vec<String> = self
                .queue
                .iter()
                .filter(|(s, _)| s.deadline.is_some_and(|d| t > d))
                .filter(|(s, _)| !self.overdue.contains(&s.name))
                .map(|(s, _)| s.name.clone())
                .collect();
            for job in overdue_now {
                self.overdue.insert(job.clone());
                if let Some(col) = &self.collector {
                    col.metrics().inc("fleet.deadline_misses");
                }
                self.emit(FleetEvent::DeadlineMiss { t, job });
            }
            // 4. Growth.
            self.growth_pass(t)?;
            // 5. Advance.
            if self.advance_pass(t)? {
                progressed = true;
            }
            // Occupancy snapshot.
            let busy = total - self.free_gpus().len();
            let changed = self
                .utilization
                .last()
                .map(|(_, b, _)| *b != busy)
                .unwrap_or(true);
            self.utilization.push((t, busy, total));
            if let Some(col) = &self.collector {
                col.metrics()
                    .set_gauge("fleet.utilization", busy as f64 / total.max(1) as f64);
                col.metrics().observe(
                    "fleet.idle_fraction",
                    1.0 - busy as f64 / total.max(1) as f64,
                );
            }
            if changed {
                self.emit(FleetEvent::Utilization { t, busy, total });
            }
            self.max_concurrent = self.max_concurrent.max(self.running.len());

            let pending_work =
                !arrivals.is_empty() || !self.queue.is_empty() || !self.running.is_empty();
            if !pending_work {
                break;
            }
            // A tick with queued-but-unadmittable work and nothing running
            // or arriving is a genuine scheduling deadlock; count it and
            // stop instead of spinning.
            if !progressed && self.running.is_empty() && arrivals.is_empty() {
                self.deadlocks += 1;
                if let Some(col) = &self.collector {
                    col.metrics().inc("fleet.deadlocks");
                }
                break;
            }
            t += 1;
            if t >= max_ticks {
                self.deadlocks += 1;
                if let Some(col) = &self.collector {
                    col.metrics().inc("fleet.deadlocks");
                }
                break;
            }
        }
        let mut jobs = std::mem::take(&mut self.jobs_done);
        jobs.sort_by_key(|j| j.name.clone());
        Ok(FleetReport {
            events: std::mem::take(&mut self.events),
            jobs,
            max_concurrent: self.max_concurrent,
            preemptions: self.preemptions,
            deadlocks: self.deadlocks,
            utilization: std::mem::take(&mut self.utilization),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_len: self.cache.len(),
            ticks: t + 1,
        })
    }
}

/// Service-level objectives for the fleet scheduler, graded alongside
/// [`crate::default_slos`] (which covers the `planner.latency` series the
/// admission portfolio feeds).
pub fn fleet_slos() -> Vec<Slo> {
    vec![
        // Queue wait is measured in scheduling ticks; a job should not
        // wait longer than ~one short job's runtime.
        Slo::p95("fleet.queue_wait.p95", "fleet.queue_wait", 8.0),
        // The cluster should be mostly busy over the run; the budget
        // allows for the natural drain-out tail of the arrival workload.
        Slo::mean("fleet.idle.mean", "fleet.idle_fraction", 0.6),
    ]
}

/// A deterministic seeded arrival workload over the given model
/// templates, shaped so every seed exercises the fleet's full decision
/// surface on a cluster of `total_gpus`:
///
/// - jobs 0 and 1 train the **same template with the same GPU count** —
///   job 1's admission must hit the shared plan cache;
/// - jobs 0-2 overlap, so ≥3 jobs hold allocations concurrently;
/// - a later high-priority job demands more than the free capacity,
///   forcing ≥1 preemption, and its departure exercises re-growth;
/// - a final low-priority job exercises queueing behind the burst.
///
/// The seed perturbs iteration counts and template choices (not the
/// structural guarantees), so different seeds produce different —
/// and same seeds byte-identical — fleet logs.
pub fn seeded_workload(
    seed: u64,
    templates: &[(String, Graph)],
    total_gpus: usize,
) -> Vec<JobSpec> {
    assert!(!templates.is_empty(), "need at least one model template");
    assert!(total_gpus >= 4, "fleet workload needs at least 4 GPUs");
    let mut stream = SeedStream::domain(seed, seed_domains::FLEET_WORKLOAD);
    let mut next = move || stream.next();
    let pick = |r: u64| (r % templates.len() as u64) as usize;
    let twin_tpl = pick(next());
    let third_tpl = pick(next());
    let tail_tpl = pick(next());
    let spec = |name: String,
                tpl: usize,
                arrival: u64,
                iters: u64,
                gpus: usize,
                min_gpus: usize,
                priority: u8,
                deadline: Option<u64>| {
        JobSpec {
            name,
            graph: templates[tpl].1.clone(),
            arrival,
            iters,
            gpus,
            min_gpus,
            priority,
            deadline,
        }
    };
    // The twins: identical model + GPU count, so the second admission is
    // a shared-cache hit. Long enough to still be running at the burst.
    let twin_iters = 8 + next() % 4;
    let burst_at = 4;
    // The burst job wants everything the three early jobs cannot yield:
    // free (total - 6) + one yielded GPU from each of the three victims.
    let burst_gpus = total_gpus - 3;
    vec![
        spec(
            format!("{}-a", templates[twin_tpl].0),
            twin_tpl,
            0,
            twin_iters,
            2,
            1,
            1,
            None,
        ),
        spec(
            format!("{}-b", templates[twin_tpl].0),
            twin_tpl,
            1,
            twin_iters + next() % 3,
            2,
            1,
            1,
            None,
        ),
        spec(
            format!("{}-c", templates[third_tpl].0),
            third_tpl,
            2,
            6 + next() % 3,
            2,
            1,
            2,
            Some(24),
        ),
        spec(
            "burst-hi".to_string(),
            pick(next()),
            burst_at,
            3 + next() % 2,
            burst_gpus,
            burst_gpus.min(2),
            9,
            Some(burst_at + 12),
        ),
        spec(
            format!("{}-tail", templates[tail_tpl].0),
            tail_tpl,
            6,
            3 + next() % 3,
            1,
            1,
            0,
            None,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastt_models::Model;

    fn templates() -> Vec<(String, Graph)> {
        vec![
            ("lenet32".to_string(), Model::LeNet.training_graph(32)),
            ("lenet16".to_string(), Model::LeNet.training_graph(16)),
        ]
    }

    fn run_fleet(seed: u64) -> FleetReport {
        let topo = Topology::multi_server(2, 4);
        let mut fleet = ClusterManager::new(topo, HardwarePerf::new(), seed);
        for spec in seeded_workload(seed, &templates(), 8) {
            fleet.submit(spec);
        }
        fleet.run().unwrap()
    }

    #[test]
    fn seeded_fleet_admits_overlapping_jobs_and_preempts() {
        let report = run_fleet(21);
        assert!(report.max_concurrent >= 3, "max {}", report.max_concurrent);
        assert!(report.preemptions >= 1);
        assert_eq!(report.deadlocks, 0);
        assert_eq!(report.jobs.len(), 5, "all jobs depart");
        assert!(!report.utilization.is_empty());
        // The twin job's admission came from the shared cache.
        let twin_b = report.jobs.iter().find(|j| j.name.ends_with("-b")).unwrap();
        assert!(twin_b.cached_start, "twin admission should hit the cache");
        assert!(report.cache_hits >= 1);
    }

    #[test]
    fn same_seed_runs_are_byte_identical_and_seeds_differ() {
        let a = run_fleet(21);
        let b = run_fleet(21);
        assert_eq!(a.event_log(), b.event_log());
        let c = run_fleet(22);
        assert_ne!(
            a.event_log(),
            c.event_log(),
            "different seeds should perturb the schedule"
        );
    }

    #[test]
    fn preempted_survivors_keep_valid_plans_and_devices_stay_disjoint() {
        let topo = Topology::multi_server(2, 4);
        let mut fleet = ClusterManager::new(topo, HardwarePerf::new(), 7);
        for spec in seeded_workload(7, &templates(), 8) {
            fleet.submit(spec);
        }
        // Drive the run manually through its phases far enough to observe
        // the post-preemption state.
        fleet.submitted.sort_by_key(|(s, i)| (s.arrival, *i));
        let mut arrivals = fleet.submitted.clone();
        arrivals.reverse();
        for t in 0..5u64 {
            while arrivals
                .last()
                .map(|(s, _)| s.arrival <= t)
                .unwrap_or(false)
            {
                let (spec, index) = arrivals.pop().unwrap();
                fleet.queue.push((spec, index));
            }
            fleet.admission_pass(t).unwrap();
            if fleet.preemption_pass(t).unwrap() {
                fleet.admission_pass(t).unwrap();
            }
            fleet.growth_pass(t).unwrap();
            fleet.advance_pass(t).unwrap();
        }
        assert!(fleet.preemptions >= 1, "burst should have preempted");
        // Every survivor's plan must be valid on its own slice, and no
        // device may appear in two allocations.
        let mut seen = BTreeSet::new();
        for job in &fleet.running {
            let plan = job.session.current_plan();
            plan.placement
                .validate(&plan.graph, job.session.topology())
                .unwrap();
            for d in job.session.allocation().members() {
                assert!(seen.insert(*d), "device {d} double-booked");
            }
        }
    }

    #[test]
    fn rejects_jobs_larger_than_the_cluster_without_wedging() {
        let topo = Topology::multi_server(1, 4);
        let mut fleet = ClusterManager::new(topo, HardwarePerf::new(), 3);
        let g = Model::LeNet.training_graph(16);
        fleet.submit(JobSpec {
            name: "too-big".into(),
            graph: g.clone(),
            arrival: 0,
            iters: 2,
            gpus: 9,
            min_gpus: 1,
            priority: 5,
            deadline: None,
        });
        fleet.submit(JobSpec {
            name: "fits".into(),
            graph: g,
            arrival: 0,
            iters: 2,
            gpus: 2,
            min_gpus: 1,
            priority: 1,
            deadline: None,
        });
        let report = fleet.run().unwrap();
        assert_eq!(report.deadlocks, 0);
        assert_eq!(report.jobs.len(), 1);
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, FleetEvent::Rejected { job, .. } if job == "too-big")));
    }

    #[test]
    fn job_cache_salts_are_stable_and_distinct() {
        assert_eq!(job_cache_salt("a"), job_cache_salt("a"));
        assert_ne!(job_cache_salt("a"), job_cache_salt("b"));
        assert_ne!(job_cache_salt(""), 0, "salt must be nonzero");
    }
}
