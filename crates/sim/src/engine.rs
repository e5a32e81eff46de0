//! The discrete-event execution engine.
//!
//! Simulates one training iteration of a placed graph over a topology:
//! per-device serial execution with FIFO or priority ready queues, tensor
//! transfers serialized per channel (per device pair within a server, per
//! server pair across servers), compute/communication overlap, and memory
//! accounting with OOM detection.

use crate::comm::{CollectiveStep, CommPlan};
use crate::error::SimError;
use crate::faults::FaultSchedule;
use crate::hardware::HardwarePerf;
use crate::placement::Placement;
use crate::queue::{ExecPolicy, ReadyQueue};
use crate::trace::{CollectiveRecord, MemSample, OpRecord, RunTrace, TransferRecord};
use fastt_cluster::{DeviceId, LinkClass, Topology};
use fastt_graph::{CollectiveKind, Graph, OpId};
use fastt_telemetry::{jobj, Collector};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Multiplicative execution-time noise amplitude (e.g. `0.02` = ±2%).
    /// Deterministic given `seed` and `iteration`.
    pub jitter_pct: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
    /// Which training iteration this is (varies the jitter stream).
    pub iteration: u64,
    /// Fixed per-iteration framework overhead added to the makespan
    /// (session dispatch, input pipeline) — calibrated to TF 1.x.
    pub iteration_overhead: f64,
    /// Whether to enforce device memory capacities.
    pub check_memory: bool,
    /// Telemetry collector; when set, the engine emits `sim.*` events
    /// (iteration summary, OOM) and updates `sim.*` metrics. `None` keeps
    /// the hot path untouched.
    pub collector: Option<Arc<Collector>>,
    /// Whether to record the per-device memory-over-time samples that back
    /// Perfetto counter tracks (`RunTrace::mem_timeline`). Off by default:
    /// it allocates per memory change.
    pub record_mem_timeline: bool,
    /// Scripted infrastructure faults (stragglers, degraded links, crashes,
    /// memory pressure, transient failures) active during this run. `None`
    /// (the default) leaves every code path bit-identical to a fault-free
    /// engine.
    pub faults: Option<Arc<FaultSchedule>>,
    /// Which retry attempt of this iteration this run is (0-based). Only
    /// consulted by `FaultKind::ProfileFailure` faults: attempts below the
    /// fault's threshold fail with [`SimError::Transient`].
    pub attempt: u32,
}

/// How many times a transfer retries a hop that a `LinkFlap` fault finds
/// down before giving up with [`SimError::LinkDown`]. Only consulted when
/// a fault schedule is set.
const COMM_RETRIES: u32 = 4;

/// First retry backoff in simulated seconds; doubles per retry (bounded
/// exponential backoff).
const COMM_BACKOFF_BASE: f64 = 5e-4;

/// Deadline in simulated seconds for one transfer's retry budget: a hop
/// that cannot come up within it — a partitioned server, a flap whose
/// backoff would overrun it — fails typed instead of hanging.
const TRANSFER_DEADLINE: f64 = 0.5;

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            jitter_pct: 0.0,
            seed: 0,
            iteration: 0,
            iteration_overhead: 3e-3,
            check_memory: true,
            collector: None,
            record_mem_timeline: false,
            faults: None,
            attempt: 0,
        }
    }
}

use crate::seed::splitmix64;

/// Uniform in [-1, 1] derived from (seed, op, iteration).
fn jitter_unit(seed: u64, op: OpId, iteration: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(op.0 as u64) ^ splitmix64(iteration.wrapping_mul(0xA5A5)));
    (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

#[derive(Debug, PartialEq)]
enum Event<'p> {
    OpFinish {
        op: OpId,
    },
    /// A tensor arrived on a device, satisfying one in-edge of each listed
    /// consumer (TensorFlow sends a tensor once per destination device and
    /// fans it out locally, so one transfer may unblock several consumers).
    /// The list is the send's consumer range in the communication plan.
    TransferArrive {
        dsts: &'p [OpId],
    },
    /// A collective's final ring phase completed; its node becomes ready.
    CollectiveDone {
        node: OpId,
    },
    /// Placeholder left behind once an event has been consumed.
    Consumed,
}

/// Executes one routed transfer: hop by hop along `route`, each hop queueing
/// on its physical channel, recording one [`TransferRecord`] per hop (the
/// cost model learns single links from them). Returns the arrival time of
/// the last hop.
///
/// Fault semantics — every network fault is applied **per physical hop**:
///
/// * `LinkDegrade(a → b)` matching the hop stretches it; a degradation
///   scripted against the *logical* pair additionally stretches the
///   inter-server hop of a staged route (cross-server degradation is an Eth
///   problem, not a fictional direct link's);
/// * `NicDegrade` stretches hops entering or leaving the server's NIC;
/// * `coll_factor` carries the collective-straggler stretch (`1.0` for
///   plain P2P);
/// * `LinkFlap` puts the hop through a bounded exponential-backoff retry
///   loop — retries are counted and, past the budget or the deadline, the
///   transfer fails typed with [`SimError::LinkDown`];
/// * a hop crossing into (or out of) a partitioned server can never
///   complete: the transfer burns its deadline and fails typed with
///   [`SimError::PartitionTimeout`] instead of hanging;
/// * a hop over an administratively failed link fails immediately with
///   [`SimError::LinkDown`] (plans are validated against this, so hitting
///   it means the link died after lowering).
#[allow(clippy::too_many_arguments)]
fn run_route(
    route: &[(DeviceId, DeviceId)],
    bytes: u64,
    src_op: OpId,
    dst_op: OpId,
    start: f64,
    logical: (DeviceId, DeviceId),
    coll_factor: f64,
    topo: &Topology,
    config: &SimConfig,
    channels: &mut [f64],
    contention: &mut f64,
    transfers: &mut Vec<TransferRecord>,
    comm_retries: &mut u64,
) -> Result<f64, SimError> {
    let mut cursor = start;
    for &(a, b) in route {
        let cross_server = topo.server_of(a) != topo.server_of(b);
        if let Some(faults) = &config.faults {
            if cross_server {
                for server in [topo.server_of(a), topo.server_of(b)] {
                    if faults.is_partitioned(server, config.iteration) {
                        if config.attempt == 0 {
                            if let Some(col) = &config.collector {
                                col.metrics().inc("fault.link");
                                col.emit(
                                    "fault.link",
                                    jobj! {
                                        "kind" => "partition_timeout",
                                        "src" => a.0 as u64,
                                        "dst" => b.0 as u64,
                                        "server" => server as u64,
                                        "iteration" => config.iteration,
                                        "deadline" => TRANSFER_DEADLINE,
                                    },
                                );
                            }
                        }
                        return Err(SimError::PartitionTimeout {
                            server,
                            iteration: config.iteration,
                        });
                    }
                }
            }
        }
        if topo.is_link_failed(a, b) {
            return Err(SimError::LinkDown {
                src: a,
                dst: b,
                iteration: config.iteration,
            });
        }
        // Flap retry loop: each attempt flips an independent deterministic
        // coin; down attempts back off exponentially. The budget and the
        // deadline both bound the loop, so a persistent flap surfaces a
        // typed error in bounded simulated time.
        if let Some(faults) = &config.faults {
            if faults.link_flap_prob(a, b, config.iteration) > 0.0 {
                let mut wait = 0.0f64;
                let mut up = false;
                let mut attempt = 0u32;
                loop {
                    if !faults.link_flapped(config.seed, src_op.0, a, b, config.iteration, attempt)
                    {
                        up = true;
                        break;
                    }
                    if attempt >= COMM_RETRIES {
                        break;
                    }
                    let backoff = COMM_BACKOFF_BASE * (1u64 << attempt.min(32)) as f64;
                    if wait + backoff > TRANSFER_DEADLINE {
                        break;
                    }
                    wait += backoff;
                    *comm_retries += 1;
                    if config.attempt == 0 {
                        if let Some(col) = &config.collector {
                            col.metrics().inc("comm.retries");
                            col.emit(
                                "comm.retry",
                                jobj! {
                                    "op" => src_op.0 as u64,
                                    "src" => a.0 as u64,
                                    "dst" => b.0 as u64,
                                    "retry" => (attempt + 1) as u64,
                                    "backoff" => backoff,
                                    "iteration" => config.iteration,
                                },
                            );
                        }
                    }
                    attempt += 1;
                }
                cursor += wait;
                if !up {
                    if config.attempt == 0 {
                        if let Some(col) = &config.collector {
                            col.metrics().inc("fault.link");
                            col.emit(
                                "fault.link",
                                jobj! {
                                    "kind" => "link_down",
                                    "src" => a.0 as u64,
                                    "dst" => b.0 as u64,
                                    "retries" => attempt as u64,
                                    "iteration" => config.iteration,
                                },
                            );
                        }
                    }
                    return Err(SimError::LinkDown {
                        src: a,
                        dst: b,
                        iteration: config.iteration,
                    });
                }
            }
        }
        let chan = topo.channel(a, b);
        let free_at = channels[chan].max(cursor);
        *contention += free_at - cursor;
        let link = topo.link(a, b).expect("route hops are physical links");
        let mut xfer = link.transfer_time(bytes) * coll_factor;
        if let Some(faults) = &config.faults {
            xfer *= faults.link_factor(a, b, config.iteration);
            if cross_server {
                xfer *= faults.nic_factor(topo.server_of(a), config.iteration)
                    * faults.nic_factor(topo.server_of(b), config.iteration);
                // a degradation scripted against the logical endpoints of a
                // staged route bites on its inter-server hop
                if route.len() > 1 {
                    xfer *= faults.link_factor(logical.0, logical.1, config.iteration);
                }
            }
        }
        let hop_end = free_at + xfer;
        channels[chan] = hop_end;
        transfers.push(TransferRecord {
            src_op,
            dst_op,
            src_dev: a,
            dst_dev: b,
            bytes,
            start: free_at,
            end: hop_end,
        });
        cursor = hop_end;
    }
    Ok(cursor)
}

/// Executes one lowered collective over the channel timelines, starting at
/// `now` (when its last producer finished). Ring collectives run
/// [`CollectiveStep::phases`] synchronized phases — every phase waits for
/// its slowest ring hop, and each ring hop expands to its physical route.
/// Broadcast fans the full tensor from the first participant to every other
/// concurrently. Returns the completion time.
///
/// A scripted `CollectiveStraggler` on any participant drags every ring
/// hop (the slowest rank paces the ring). A participant pair left without
/// a live route — a partition mid-ring, a crashed staging host — aborts
/// the collective *deterministically* with a typed error rather than
/// simulating a hang: the error propagates out of the event loop within
/// the transfer deadline semantics of [`run_route`].
#[allow(clippy::too_many_arguments)]
fn run_collective(
    step: &CollectiveStep,
    now: f64,
    topo: &Topology,
    config: &SimConfig,
    channels: &mut [f64],
    contention: &mut f64,
    transfers: &mut Vec<TransferRecord>,
    comm_retries: &mut u64,
) -> Result<f64, SimError> {
    let n = step.participants.len();
    if n < 2 {
        return Ok(now);
    }
    let coll_factor = match &config.faults {
        Some(f) => step
            .participants
            .iter()
            .map(|&p| f.collective_slowdown(p, config.iteration))
            .fold(1.0, f64::max),
        None => 1.0,
    };
    let ring_route = |a: DeviceId, b: DeviceId| -> Result<Vec<(DeviceId, DeviceId)>, SimError> {
        topo.try_route(a, b)
            .ok_or(SimError::Unreachable { src: a, dst: b })
    };
    if step.kind == CollectiveKind::Broadcast {
        let root = step.participants[0];
        let mut end = now;
        for &p in &step.participants[1..] {
            let route = ring_route(root, p)?;
            let t = run_route(
                &route,
                step.bytes,
                step.node,
                step.node,
                now,
                (root, p),
                coll_factor,
                topo,
                config,
                channels,
                contention,
                transfers,
                comm_retries,
            )?;
            end = end.max(t);
        }
        return Ok(end);
    }
    let chunk = step.chunk_bytes();
    let mut t = now;
    // Each ring hop is routed on first use and reused by later phases.
    let mut ring: Vec<Vec<(DeviceId, DeviceId)>> = Vec::with_capacity(n);
    for _ in 0..step.phases() {
        let phase_start = t;
        let mut phase_end = phase_start;
        for i in 0..n {
            let a = step.participants[i];
            let b = step.participants[(i + 1) % n];
            if ring.len() == i {
                ring.push(ring_route(a, b)?);
            }
            let hop_end = run_route(
                &ring[i],
                chunk,
                step.node,
                step.node,
                phase_start,
                (a, b),
                coll_factor,
                topo,
                config,
                channels,
                contention,
                transfers,
                comm_retries,
            )?;
            phase_end = phase_end.max(hop_end);
        }
        t = phase_end;
    }
    Ok(t)
}

/// Simulates one iteration.
///
/// # Errors
///
/// * [`SimError::InvalidPlacement`] if the placement does not cover the
///   graph, uses unknown devices, or violates colocation groups;
/// * [`SimError::Oom`] if a device's memory capacity is exceeded
///   (when `config.check_memory` is set);
/// * [`SimError::Deadlock`] if the graph cannot be fully executed;
/// * [`SimError::DeviceCrash`] if a scheduled fault crashed a device the
///   placement still uses;
/// * [`SimError::Transient`] if a scheduled profile-failure fault aborts
///   this attempt (`config.attempt` below the fault's threshold);
/// * [`SimError::Unreachable`] if a required transfer has no live route;
/// * [`SimError::LinkDown`] if a link flap outlasts the retry budget (or a
///   route references an administratively failed link);
/// * [`SimError::PartitionTimeout`] if a transfer must cross into a
///   partitioned server — including a collective ring hop, which aborts
///   the collective deterministically instead of hanging.
pub fn simulate(
    graph: &Graph,
    topo: &Topology,
    placement: &Placement,
    hw: &HardwarePerf,
    policy: ExecPolicy<'_>,
    config: &SimConfig,
) -> Result<RunTrace, SimError> {
    placement
        .validate(graph, topo)
        .map_err(SimError::InvalidPlacement)?;

    let n_ops = graph.op_count();
    let n_dev = topo.device_count();

    // Scripted faults: surface crashes and transient profiling failures
    // before any work "runs", exactly as the real cluster would refuse the
    // step. Everything in this block is skipped when no schedule is set.
    if let Some(faults) = &config.faults {
        // Emit the active-fault story only on the first attempt of an
        // iteration: retries and the session's planning probes
        // (`attempt = u32::MAX`) re-simulate the same iteration and would
        // otherwise inflate `sim.faults_active` and the JSONL stream.
        if config.attempt == 0 {
            if let Some(col) = &config.collector {
                for f in faults.active(config.iteration) {
                    col.metrics().inc("sim.faults_active");
                    // Device-scoped faults carry their device id;
                    // server-scoped ones (partition, NIC) their server id.
                    let scope = f
                        .kind
                        .device()
                        .map(|d| d.0 as u64)
                        .or_else(|| f.kind.server().map(|s| s as u64))
                        .unwrap_or(0);
                    let scope_kind = if f.kind.device().is_some() {
                        "device"
                    } else {
                        "server"
                    };
                    col.emit(
                        "fault.injected",
                        jobj! {
                            "kind" => f.kind.label(),
                            "device" => scope,
                            "scope" => scope_kind,
                            "iteration" => config.iteration,
                            "from_iter" => f.from_iter,
                            "until_iter" => f.until_iter,
                        },
                    );
                }
                // Cluster-lifecycle events: arrivals/restores surface on
                // their effective iteration; a revocation surfaces on every
                // iteration of its notice window (the provider keeps
                // shouting until the deadline), so mid-iteration re-plans
                // and long notices produce repeats — the report dedupes
                // them into one `xN` line.
                for ev in faults.lifecycle() {
                    let visible = match ev.kind {
                        crate::LifecycleKind::SpotRevocation { .. } => {
                            ev.at_iter <= config.iteration
                                && config.iteration < ev.deadline().max(ev.at_iter + 1)
                        }
                        _ => ev.at_iter == config.iteration,
                    };
                    if !visible {
                        continue;
                    }
                    col.metrics().inc("fault.lifecycle");
                    col.emit(
                        "fault.lifecycle",
                        jobj! {
                            "kind" => ev.kind.label(),
                            "device" => ev.kind.device().map(|d| d.0 as u64).unwrap_or(0),
                            "iteration" => config.iteration,
                            "at_iter" => ev.at_iter,
                            "deadline" => ev.deadline(),
                        },
                    );
                }
            }
        }
        let mut used = vec![false; n_dev];
        for op in graph.op_ids() {
            used[placement.device_of(op).index()] = true;
        }
        // A profile failure only bites on a device that is live and that
        // this placement actually schedules work on: once the session
        // blacklists the device (or plans around it), the fault must go
        // inert — otherwise a fault outlasting the retry budget would keep
        // failing every re-planned run forever. Overlapping faults are
        // attributed to the worst offender, which is the device the caller
        // will blacklist first; the survivors' faults then get their turn.
        if let Some((device, fail_attempts)) = faults
            .profile_fail_attempts(config.iteration)
            .filter(|&(d, _)| used.get(d.index()).copied().unwrap_or(false) && !topo.is_failed(d))
            .max_by_key(|&(_, n)| n)
        {
            if config.attempt < fail_attempts {
                return Err(SimError::Transient {
                    device,
                    iteration: config.iteration,
                    attempt: config.attempt,
                });
            }
        }
        let used_devices = graph.op_ids().map(|op| placement.device_of(op));
        if let Some(device) = faults.first_crashed(used_devices, config.iteration) {
            return Err(SimError::DeviceCrash {
                device,
                iteration: config.iteration,
            });
        }
    }

    // Effective memory capacity: hardware capacity minus any scripted
    // memory-pressure reservation (another tenant pinning memory).
    let capacity_of = |d: usize| -> u64 {
        let cap = topo.device(DeviceId(d as u16)).mem_bytes;
        match &config.faults {
            Some(f) => cap.saturating_sub(f.mem_reserved(DeviceId(d as u16), config.iteration)),
            None => cap,
        }
    };

    // Priorities from the execution-order list (missing ops run last).
    let priority: Vec<u32> = match policy {
        ExecPolicy::Fifo => vec![0; n_ops],
        ExecPolicy::Priority(order) => {
            let mut p = vec![u32::MAX; n_ops];
            for (i, &o) in order.iter().enumerate() {
                if o.index() < n_ops {
                    p[o.index()] = i as u32;
                }
            }
            p
        }
    };

    let mut queues: Vec<ReadyQueue> = (0..n_dev)
        .map(|_| match policy {
            ExecPolicy::Fifo => ReadyQueue::new_fifo(),
            ExecPolicy::Priority(_) => ReadyQueue::new_priority(),
        })
        .collect();

    // Dependency counters.
    let mut indeg: Vec<u32> = vec![0; n_ops];
    for e in graph.iter_edges() {
        indeg[e.dst.index()] += 1;
    }
    // Producers' outputs are freed once all their consumers finish.
    let mut out_remaining: Vec<u32> = vec![0; n_ops];
    for e in graph.iter_edges() {
        out_remaining[e.src.index()] += 1;
    }

    // Memory: resident parameters up front.
    let mut mem_used: Vec<u64> = vec![0; n_dev];
    let mut mem_peak: Vec<u64> = vec![0; n_dev];
    for (op, o) in graph.iter_ops() {
        let d = placement.device_of(op);
        mem_used[d.index()] += hw.resident_bytes(o);
    }
    for d in 0..n_dev {
        mem_peak[d] = mem_used[d];
        let cap = capacity_of(d);
        if config.check_memory && mem_used[d] > cap {
            if let Some(col) = &config.collector {
                col.metrics().inc("sim.oom");
                col.emit(
                    "sim.oom",
                    jobj! {
                        "device" => d as u64,
                        "needed" => mem_used[d],
                        "capacity" => cap,
                        "at" => "resident",
                    },
                );
            }
            return Err(SimError::Oom {
                device: DeviceId(d as u16),
                needed: mem_used[d],
                capacity: cap,
                at_op: String::new(),
            });
        }
    }

    // Device state.
    let mut device_free: Vec<bool> = vec![true; n_dev];
    let mut device_busy_time: Vec<f64> = vec![0.0; n_dev];

    // Transfer channels: busy-until per channel index (see
    // `Topology::channel` for the sharing rules).
    let mut channels: Vec<f64> = vec![0.0; topo.channel_count()];

    // The communication plan: every cross-device edge's route and every
    // collective's ring, lowered once up front (see `crate::comm`). The
    // event loop below only *executes* it. Lowering is typed-fallible
    // (blacklisted devices, unreachable pairs) and the validator proves
    // the plan references only live links and cannot deadlock.
    let plan = {
        let t0 = std::time::Instant::now();
        let plan = {
            let _lower_phase = config.collector.as_deref().map(|c| c.phase("sim.lower"));
            CommPlan::lower(graph, placement, topo)?
        };
        {
            let _validate_phase = config.collector.as_deref().map(|c| c.phase("sim.validate"));
            plan.validate(topo, config.iteration)?;
        }
        if let Some(col) = &config.collector {
            col.metrics()
                .observe("sim.lower_secs", t0.elapsed().as_secs_f64());
        }
        plan
    };
    let mut coll_pending: Vec<u32> = vec![0; n_ops];
    for step in plan.collectives() {
        coll_pending[step.node.index()] = step.pending;
    }
    let mut collectives_run: Vec<CollectiveRecord> = Vec::new();

    // Event queue ordered by (time, seq) for determinism.
    let mut events: BinaryHeap<Reverse<(OrderedF64, u64, usize)>> = BinaryHeap::new();
    let mut event_payload: Vec<Event> = Vec::new();
    let mut seq: u64 = 0;
    fn push_event<'p>(
        events: &mut BinaryHeap<Reverse<(OrderedF64, u64, usize)>>,
        payload: &mut Vec<Event<'p>>,
        seq: &mut u64,
        t: f64,
        ev: Event<'p>,
    ) {
        payload.push(ev);
        events.push(Reverse((OrderedF64(t), *seq, payload.len() - 1)));
        *seq += 1;
    }

    let mut records: Vec<OpRecord> = (0..n_ops)
        .map(|i| OpRecord {
            op: OpId(i as u32),
            device: placement.device_of(OpId(i as u32)),
            ready: -1.0,
            start: -1.0,
            end: -1.0,
        })
        .collect();
    let mut transfers: Vec<TransferRecord> = Vec::new();
    let mut executed = 0usize;
    let mut contention = 0.0f64;
    let mut steps = 0u64;
    let mut mem_timeline: Vec<MemSample> = Vec::new();
    let mut reexecutions = 0u64;
    let mut comm_retry_count = 0u64;

    // Seed ready queues with zero-indegree ops. Under FIFO the seeding order
    // is *hash-shuffled*: TensorFlow's default executor pops initially-ready
    // ops (variable reads, constants) in an order determined by graph
    // internals, not by model layer order — the arbitrary transfer ordering
    // TicTac [23] identified and FastT's order enforcement fixes. Priority
    // runs are unaffected (their order comes from the computed list).
    let mut seeds: Vec<OpId> = graph.op_ids().filter(|op| indeg[op.index()] == 0).collect();
    if matches!(policy, ExecPolicy::Fifo) {
        seeds.sort_by_key(|op| splitmix64(0xF1F0 ^ op.0 as u64));
    }
    for op in seeds {
        let d = placement.device_of(op);
        records[op.index()].ready = 0.0;
        queues[d.index()].push(op, priority[op.index()]);
    }

    // Tries to start the next ready op on an idle device.
    // Returns Err on OOM.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        d: usize,
        now: f64,
        graph: &Graph,
        topo: &Topology,
        hw: &HardwarePerf,
        config: &SimConfig,
        queues: &mut [ReadyQueue],
        device_free: &mut [bool],
        device_busy_time: &mut [f64],
        mem_used: &mut [u64],
        mem_peak: &mut [u64],
        records: &mut [OpRecord],
        events: &mut BinaryHeap<Reverse<(OrderedF64, u64, usize)>>,
        payload: &mut Vec<Event<'_>>,
        seq: &mut u64,
        mem_timeline: &mut Vec<MemSample>,
        reexecutions: &mut u64,
    ) -> Result<(), SimError> {
        if !device_free[d] || queues[d].is_empty() {
            return Ok(());
        }
        let op = queues[d].pop().expect("non-empty");
        let o = graph.op_ref(op);
        // allocate the activation
        let act = hw.activation_bytes(o);
        mem_used[d] += act;
        mem_peak[d] = mem_peak[d].max(mem_used[d]);
        if config.record_mem_timeline && act > 0 {
            mem_timeline.push(MemSample {
                t: now,
                device: DeviceId(d as u16),
                bytes: mem_used[d],
            });
        }
        let mut cap = topo.device(DeviceId(d as u16)).mem_bytes;
        if let Some(faults) = &config.faults {
            cap = cap.saturating_sub(faults.mem_reserved(DeviceId(d as u16), config.iteration));
        }
        if config.check_memory && mem_used[d] > cap {
            if let Some(col) = &config.collector {
                col.metrics().inc("sim.oom");
                col.emit(
                    "sim.oom",
                    jobj! {
                        "device" => d as u64,
                        "needed" => mem_used[d],
                        "capacity" => cap,
                        "at" => o.name.as_str(),
                    },
                );
            }
            return Err(SimError::Oom {
                device: DeviceId(d as u16),
                needed: mem_used[d],
                capacity: cap,
                at_op: o.name.clone(),
            });
        }
        let mut t = hw.exec_time(graph, op, topo.device(DeviceId(d as u16)));
        if config.jitter_pct > 0.0 {
            t *= 1.0 + config.jitter_pct * jitter_unit(config.seed, op, config.iteration);
        }
        if let Some(faults) = &config.faults {
            t *= faults.slowdown(DeviceId(d as u16), config.iteration);
            let reruns =
                faults.reexecutions(config.seed, op.0, DeviceId(d as u16), config.iteration);
            if reruns > 0 {
                t *= 1.0 + reruns as f64;
                *reexecutions += reruns as u64;
            }
        }
        records[op.index()].start = now;
        records[op.index()].end = now + t;
        device_busy_time[d] += t;
        device_free[d] = false;
        payload.push(Event::OpFinish { op });
        events.push(Reverse((OrderedF64(now + t), *seq, payload.len() - 1)));
        *seq += 1;
        Ok(())
    }

    // Kick off every device.
    for d in 0..n_dev {
        dispatch(
            d,
            0.0,
            graph,
            topo,
            hw,
            config,
            &mut queues,
            &mut device_free,
            &mut device_busy_time,
            &mut mem_used,
            &mut mem_peak,
            &mut records,
            &mut events,
            &mut event_payload,
            &mut seq,
            &mut mem_timeline,
            &mut reexecutions,
        )?;
    }

    let _loop_phase = config
        .collector
        .as_deref()
        .map(|c| c.phase("sim.event_loop"));
    let mut makespan = 0.0f64;
    while let Some(Reverse((OrderedF64(now), _, idx))) = events.pop() {
        steps += 1;
        makespan = makespan.max(now);
        // Take the payload without shifting indices.
        let ev = std::mem::replace(&mut event_payload[idx], Event::Consumed);
        match ev {
            Event::OpFinish { op } => {
                executed += 1;
                let d = placement.device_of(op).index();
                device_free[d] = true;

                // Free predecessors whose last consumer just finished.
                for e in graph.in_edges(op) {
                    let s = e.src.index();
                    out_remaining[s] -= 1;
                    if out_remaining[s] == 0 {
                        let sd = placement.device_of(e.src).index();
                        let act = hw.activation_bytes(graph.op_ref(e.src));
                        mem_used[sd] = mem_used[sd].saturating_sub(act);
                        if config.record_mem_timeline && act > 0 {
                            mem_timeline.push(MemSample {
                                t: now,
                                device: DeviceId(sd as u16),
                                bytes: mem_used[sd],
                            });
                        }
                    }
                }
                // Sinks free their own output immediately.
                if out_remaining[op.index()] == 0 {
                    let act = hw.activation_bytes(graph.op_ref(op));
                    mem_used[d] = mem_used[d].saturating_sub(act);
                    if config.record_mem_timeline && act > 0 {
                        mem_timeline.push(MemSample {
                            t: now,
                            device: DeviceId(d as u16),
                            bytes: mem_used[d],
                        });
                    }
                }

                // Deliver outputs per the communication plan: local
                // consumers unblock inline (the tensor is already on their
                // device — including collective participants), point-to-point
                // sends run hop by hop along their routes, and edges into
                // collective nodes count toward the collective's readiness.
                let sd = placement.device_of(op);
                let mut wake: Vec<usize> = Vec::new();
                for &dst in plan.local(op) {
                    indeg[dst.index()] -= 1;
                    if indeg[dst.index()] == 0 {
                        records[dst.index()].ready = now;
                        let dd = placement.device_of(dst).index();
                        queues[dd].push(dst, priority[dst.index()]);
                        if dd != d && !wake.contains(&dd) {
                            wake.push(dd);
                        }
                    }
                }
                wake.sort_unstable();
                for send in plan.sends(op) {
                    let arrive = run_route(
                        send.route,
                        send.bytes,
                        op,
                        send.dsts[0],
                        now,
                        (sd, send.dst_dev),
                        1.0,
                        topo,
                        config,
                        &mut channels,
                        &mut contention,
                        &mut transfers,
                        &mut comm_retry_count,
                    )?;
                    push_event(
                        &mut events,
                        &mut event_payload,
                        &mut seq,
                        arrive,
                        Event::TransferArrive { dsts: send.dsts },
                    );
                }
                for &node in plan.feeds(op) {
                    coll_pending[node.index()] -= 1;
                    if coll_pending[node.index()] != 0 {
                        continue;
                    }
                    let step = plan
                        .collective(node)
                        .expect("fed node carries a collective step");
                    let end = match run_collective(
                        step,
                        now,
                        topo,
                        config,
                        &mut channels,
                        &mut contention,
                        &mut transfers,
                        &mut comm_retry_count,
                    ) {
                        Ok(end) => end,
                        Err(e) => {
                            // Deterministic abort: the ring cannot finish
                            // (partition, dead staging, flap past budget) —
                            // surface the typed cause instead of hanging.
                            if config.attempt == 0 {
                                if let Some(col) = &config.collector {
                                    col.metrics().inc("comm.collective_aborts");
                                    col.emit(
                                        "comm.collective_abort",
                                        jobj! {
                                            "node" => node.0 as u64,
                                            "kind" => step.kind.to_string().as_str(),
                                            "participants" => step.participants.len() as u64,
                                            "error" => e.to_string().as_str(),
                                            "iteration" => config.iteration,
                                        },
                                    );
                                }
                            }
                            return Err(e);
                        }
                    };
                    collectives_run.push(CollectiveRecord {
                        node,
                        kind: step.kind,
                        participants: step.participants.clone(),
                        bytes: step.bytes,
                        start: now,
                        end,
                    });
                    push_event(
                        &mut events,
                        &mut event_payload,
                        &mut seq,
                        end,
                        Event::CollectiveDone { node },
                    );
                }

                for dd in wake {
                    dispatch(
                        dd,
                        now,
                        graph,
                        topo,
                        hw,
                        config,
                        &mut queues,
                        &mut device_free,
                        &mut device_busy_time,
                        &mut mem_used,
                        &mut mem_peak,
                        &mut records,
                        &mut events,
                        &mut event_payload,
                        &mut seq,
                        &mut mem_timeline,
                        &mut reexecutions,
                    )?;
                }
                dispatch(
                    d,
                    now,
                    graph,
                    topo,
                    hw,
                    config,
                    &mut queues,
                    &mut device_free,
                    &mut device_busy_time,
                    &mut mem_used,
                    &mut mem_peak,
                    &mut records,
                    &mut events,
                    &mut event_payload,
                    &mut seq,
                    &mut mem_timeline,
                    &mut reexecutions,
                )?;
            }
            Event::TransferArrive { dsts } => {
                let dd = placement.device_of(dsts[0]).index();
                for &dst in dsts {
                    indeg[dst.index()] -= 1;
                    if indeg[dst.index()] == 0 {
                        records[dst.index()].ready = now;
                        queues[dd].push(dst, priority[dst.index()]);
                    }
                }
                dispatch(
                    dd,
                    now,
                    graph,
                    topo,
                    hw,
                    config,
                    &mut queues,
                    &mut device_free,
                    &mut device_busy_time,
                    &mut mem_used,
                    &mut mem_peak,
                    &mut records,
                    &mut events,
                    &mut event_payload,
                    &mut seq,
                    &mut mem_timeline,
                    &mut reexecutions,
                )?;
            }
            Event::CollectiveDone { node } => {
                // The ring already moved (and reduced) the data; the node
                // itself now runs as an ordinary op on its device.
                indeg[node.index()] = 0;
                let dd = placement.device_of(node).index();
                records[node.index()].ready = now;
                queues[dd].push(node, priority[node.index()]);
                dispatch(
                    dd,
                    now,
                    graph,
                    topo,
                    hw,
                    config,
                    &mut queues,
                    &mut device_free,
                    &mut device_busy_time,
                    &mut mem_used,
                    &mut mem_peak,
                    &mut records,
                    &mut events,
                    &mut event_payload,
                    &mut seq,
                    &mut mem_timeline,
                    &mut reexecutions,
                )?;
            }
            Event::Consumed => unreachable!("each event index is popped once"),
        }
    }

    if executed != n_ops {
        return Err(SimError::Deadlock {
            executed,
            total: n_ops,
        });
    }

    let trace = RunTrace {
        op_records: records,
        transfers,
        collectives: collectives_run,
        makespan: makespan + config.iteration_overhead,
        device_busy: device_busy_time,
        peak_mem: mem_peak,
        contention,
        steps,
        mem_timeline,
        reexecutions,
        comm_retries: comm_retry_count,
    };
    if let Some(col) = &config.collector {
        let m = col.metrics();
        m.inc("sim.iterations");
        m.add("sim.steps", trace.steps);
        m.add("sim.transfers", trace.transfers.len() as u64);
        if config.attempt == 0 {
            // Traffic per link class, summed once per iteration: bytes per
            // device pair first, so each used link is classified once.
            let mut pair_bytes = vec![0u64; n_dev * n_dev];
            for t in &trace.transfers {
                pair_bytes[t.src_dev.index() * n_dev + t.dst_dev.index()] += t.bytes;
            }
            let mut by_class: Vec<(LinkClass, u64)> = Vec::new();
            for (pair, &bytes) in pair_bytes.iter().enumerate().filter(|(_, &b)| b > 0) {
                let (a, b) = (pair / n_dev, pair % n_dev);
                let Some(class) = topo.link_class(DeviceId(a as u16), DeviceId(b as u16)) else {
                    continue;
                };
                match by_class.iter_mut().find(|(c, _)| *c == class) {
                    Some((_, total)) => *total += bytes,
                    None => by_class.push((class, bytes)),
                }
            }
            for (class, bytes) in by_class {
                m.add(&format!("comm.bytes.{}", class.name()), bytes);
            }
            m.add("comm.collectives", trace.collectives.len() as u64);
        }
        m.add("sim.ops_executed", executed as u64);
        m.observe("sim.makespan", trace.makespan);
        let queue_wait = trace.device_queue_wait();
        col.emit(
            "sim.iteration",
            jobj! {
                "iteration" => config.iteration,
                "makespan" => trace.makespan,
                "steps" => trace.steps,
                "ops" => executed as u64,
                "transfers" => trace.transfers.len() as u64,
                "collectives" => trace.collectives.len() as u64,
                "contention" => trace.contention,
                "queue_wait" => fastt_telemetry::Value::arr(queue_wait),
                "peak_mem" => fastt_telemetry::Value::arr(trace.peak_mem.clone()),
            },
        );
    }
    Ok(trace)
}

/// Total-ordered f64 wrapper for the event heap (times are finite).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
