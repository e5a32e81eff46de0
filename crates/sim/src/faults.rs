//! Deterministic fault injection.
//!
//! The paper's heuristics assume the profiled cluster stays healthy; real
//! fleets do not. This module lets a simulation run replay a *scripted*
//! sequence of infrastructure faults — stragglers, degraded links, transient
//! op failures, device crashes, memory-pressure spikes — so the training
//! session's detection/re-planning/degradation machinery can be exercised
//! reproducibly.
//!
//! Everything here is **pure and deterministic**: a [`FaultSchedule`] is
//! written out literally, in code or as the `fault = …` and
//! `lifecycle = …` lines of a scenario file
//! ([`FaultSchedule::from_scenario`]), and every in-engine decision (e.g.
//! which op a transient failure hits) is a hash of `(seed, op, iteration)`.
//! There is no wall clock and no global RNG, so the same schedule plus the
//! same [`SimConfig`](crate::SimConfig) always produces bit-identical
//! traces and identical typed errors.
//!
//! # Scenario lines
//!
//! A scenario file (the format `fastt-fuzz` replays from `fuzz/corpus/`)
//! is one `key = value` per line; `#` starts a comment. [`Fault`] and
//! [`LifecycleEvent`] own the values of its `fault` and `lifecycle` keys:
//! a kind, then `key=value` fields holding the exact values of the kind's
//! fields. [`Display`](std::fmt::Display) writes every value exactly, and
//! [`FromStr`] reads it back bit-for-bit.
//!
//! ```text
//! fault = straggler dev=0 slowdown=2.5 from=18 to=28
//! fault = link_degrade src=1 dst=3 factor=3.9 from=34 to=44
//! fault = transient dev=3 prob=0.06 from=12 to=22
//! fault = profile_fail dev=0 attempts=6
//! fault = crash dev=1 from=26
//! fault = mem_pressure dev=3 reserve_bytes=3221225472 from=22 to=32
//! fault = link_flap src=1 dst=0 prob=0.25 to=10
//! fault = partition server=0 from=27
//! fault = collective_straggler dev=0 slowdown=5.7 from=25 to=35
//! fault = nic_degrade server=1 factor=5.8 from=12 to=22
//! lifecycle = spot dev=0 at=12 notice=2
//! lifecycle = arrival dev=0 at=16
//! lifecycle = restore dev=1 at=44
//! lifecycle = host_arrival gpus=2 at=31
//! lifecycle = link_restore src=1 dst=0 at=20
//! ```
//!
//! Every fault has one window rule: `from=` defaults to `0`, and `to=` is
//! left out when the fault is permanent.
//!
//! Fault windows are expressed in **training iterations** (the unit the
//! session steps in, threaded through `SimConfig::iteration`), not in
//! intra-iteration simulated seconds: an iteration is milliseconds long
//! while faults live for seconds-to-forever, so the iteration is the
//! natural granularity.

use crate::seed::splitmix64;
use fastt_cluster::DeviceId;
use std::fmt;
use std::str::FromStr;

/// What kind of infrastructure fault is injected.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The device computes `slowdown`× slower than healthy (thermal
    /// throttling, a noisy neighbour, a failing fan). `slowdown > 1`.
    Straggler {
        /// Affected device.
        device: DeviceId,
        /// Multiplier on every op's execution time (e.g. `3.0`).
        slowdown: f64,
    },
    /// The `src → dst` link moves data `factor`× slower (flaky NVLink
    /// retraining, congested NIC). `factor > 1`.
    LinkDegrade {
        /// Source device of the degraded direction.
        src: DeviceId,
        /// Destination device.
        dst: DeviceId,
        /// Multiplier on the transfer time (e.g. `4.0`).
        factor: f64,
    },
    /// Ops on the device occasionally fail and must re-execute (ECC
    /// retries, XID errors that the driver survives). Each op execution
    /// independently (but deterministically, from the jitter seed) fails
    /// with probability `prob` and is re-run, doubling its time.
    TransientOp {
        /// Affected device.
        device: DeviceId,
        /// Per-op re-execution probability in `[0, 1]`.
        prob: f64,
    },
    /// Profiling the device fails outright for the first `fail_attempts`
    /// attempts of each iteration in the window (driver hiccup, collector
    /// timeout); the run surfaces [`SimError::Transient`](crate::SimError)
    /// and succeeds once the caller has retried enough times.
    ProfileFailure {
        /// Affected device.
        device: DeviceId,
        /// Attempts that fail before one succeeds.
        fail_attempts: u32,
    },
    /// The device is gone (XID 79, preemption, kernel panic). Any run that
    /// places work on it fails with
    /// [`SimError::DeviceCrash`](crate::SimError).
    Crash {
        /// The crashed device.
        device: DeviceId,
    },
    /// Another tenant (or a fragmentation spike) pins `reserve_bytes` of
    /// the device's memory, shrinking the capacity the run sees.
    MemPressure {
        /// Affected device.
        device: DeviceId,
        /// Bytes unavailable to the training job while active.
        reserve_bytes: u64,
    },
    /// The `src → dst` link flaps: each transfer attempt over the hop
    /// independently (but deterministically, from the seed) finds the link
    /// down with probability `prob` and must back off and retry. A
    /// transfer that exhausts its retry budget surfaces
    /// [`SimError::LinkDown`](crate::SimError).
    LinkFlap {
        /// Source device of the flapping direction.
        src: DeviceId,
        /// Destination device.
        dst: DeviceId,
        /// Per-attempt probability in `[0, 1]` that the hop is down.
        prob: f64,
    },
    /// The server is cut off from the rest of the cluster (switch failure,
    /// mis-pushed ACL): every transfer crossing the partition boundary
    /// times out and surfaces
    /// [`SimError::PartitionTimeout`](crate::SimError).
    HostPartition {
        /// The partitioned server.
        server: u16,
    },
    /// Collective phases involving the device run `slowdown`× slower
    /// (a slow NCCL rank dragging the whole ring). Plain P2P transfers
    /// are unaffected. `slowdown > 1`.
    CollectiveStraggler {
        /// The slow participant.
        device: DeviceId,
        /// Multiplier on collective hop times (e.g. `4.0`).
        slowdown: f64,
    },
    /// Every hop entering or leaving the server's NIC moves `factor`×
    /// slower (duplex negotiation drop, failing optics). Intra-server
    /// hops are unaffected. `factor > 1`.
    NicDegrade {
        /// The server whose NIC degraded.
        server: u16,
        /// Multiplier on inter-server hop times (e.g. `8.0`).
        factor: f64,
    },
}

impl FaultKind {
    /// The primary device this fault touches (the `src` for link faults),
    /// or `None` for server-scoped faults ([`FaultKind::HostPartition`],
    /// [`FaultKind::NicDegrade`]).
    pub fn device(&self) -> Option<DeviceId> {
        match *self {
            FaultKind::Straggler { device, .. }
            | FaultKind::TransientOp { device, .. }
            | FaultKind::ProfileFailure { device, .. }
            | FaultKind::Crash { device }
            | FaultKind::MemPressure { device, .. }
            | FaultKind::CollectiveStraggler { device, .. } => Some(device),
            FaultKind::LinkDegrade { src, .. } | FaultKind::LinkFlap { src, .. } => Some(src),
            FaultKind::HostPartition { .. } | FaultKind::NicDegrade { .. } => None,
        }
    }

    /// The server this fault is scoped to, for server-scoped faults.
    pub fn server(&self) -> Option<u16> {
        match *self {
            FaultKind::HostPartition { server } | FaultKind::NicDegrade { server, .. } => {
                Some(server)
            }
            _ => None,
        }
    }

    /// Short machine-readable label for telemetry (`fault.injected` events).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::LinkDegrade { .. } => "link_degrade",
            FaultKind::TransientOp { .. } => "transient_op",
            FaultKind::ProfileFailure { .. } => "profile_failure",
            FaultKind::Crash { .. } => "crash",
            FaultKind::MemPressure { .. } => "mem_pressure",
            FaultKind::LinkFlap { .. } => "link_flap",
            FaultKind::HostPartition { .. } => "host_partition",
            FaultKind::CollectiveStraggler { .. } => "collective_straggler",
            FaultKind::NicDegrade { .. } => "nic_degrade",
        }
    }
}

/// A cluster-lifecycle event: capacity arriving, returning, or leaving
/// with advance notice.
///
/// Fault kinds in [`FaultKind`] only ever *shrink* the usable cluster;
/// lifecycle events are the growth side — spot instances coming back, a
/// repaired host re-racked, a revocation notice landing before the
/// preemption. The engine treats them as part of the same deterministic
/// script: [`FaultSchedule::crashed`] is revival-aware, so a device that
/// died (via [`FaultKind::Crash`] or a [`LifecycleKind::SpotRevocation`]
/// deadline) and later sees a [`LifecycleKind::DeviceArrival`] /
/// [`LifecycleKind::DeviceRestore`] simulates alive again.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleKind {
    /// A (possibly previously revoked) device joins the cluster. For an
    /// existing blacklisted id this is a re-admission signal; the session
    /// quarantines it before placing work back on it.
    DeviceArrival {
        /// The arriving device.
        device: DeviceId,
    },
    /// A whole new server (with `gpus` GPUs plus its host CPU) is hot-added
    /// to the cluster.
    HostArrival {
        /// GPUs on the arriving server.
        gpus: u16,
    },
    /// A spot/preemption notice: the provider announces at `at_iter` that
    /// the device will be reclaimed `notice_iters` iterations later. The
    /// device actually dies at `at_iter + notice_iters` (the deadline); a
    /// zero-notice revocation is an immediate crash.
    SpotRevocation {
        /// The device being reclaimed.
        device: DeviceId,
        /// Iterations of advance warning before the device dies.
        notice_iters: u64,
    },
    /// A repaired device comes back (same semantics as
    /// [`LifecycleKind::DeviceArrival`]; kept distinct so traces can tell
    /// "repair finished" from "new spot capacity").
    DeviceRestore {
        /// The repaired device.
        device: DeviceId,
    },
    /// A repaired link comes back; the session restores the `src → dst`
    /// hop (and its reverse) into the routing tables.
    LinkRestore {
        /// Source device of the repaired direction.
        src: DeviceId,
        /// Destination device.
        dst: DeviceId,
    },
}

impl LifecycleKind {
    /// The primary device this event touches (the `src` for link events),
    /// or `None` for server-scoped events ([`LifecycleKind::HostArrival`]).
    pub fn device(&self) -> Option<DeviceId> {
        match *self {
            LifecycleKind::DeviceArrival { device }
            | LifecycleKind::SpotRevocation { device, .. }
            | LifecycleKind::DeviceRestore { device } => Some(device),
            LifecycleKind::LinkRestore { src, .. } => Some(src),
            LifecycleKind::HostArrival { .. } => None,
        }
    }

    /// Short machine-readable label for telemetry (`fault.lifecycle`
    /// events).
    pub fn label(&self) -> &'static str {
        match self {
            LifecycleKind::DeviceArrival { .. } => "device_arrival",
            LifecycleKind::HostArrival { .. } => "host_arrival",
            LifecycleKind::SpotRevocation { .. } => "spot_revocation",
            LifecycleKind::DeviceRestore { .. } => "device_restore",
            LifecycleKind::LinkRestore { .. } => "link_restore",
        }
    }
}

/// One scheduled lifecycle event, taking effect at `at_iter`.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleEvent {
    /// What happens.
    pub kind: LifecycleKind,
    /// Training iteration the event takes effect (for
    /// [`LifecycleKind::SpotRevocation`], the iteration the *notice*
    /// lands; the device dies `notice_iters` later).
    pub at_iter: u64,
}

impl LifecycleEvent {
    /// An event taking effect at `at_iter`.
    pub fn at(kind: LifecycleKind, at_iter: u64) -> Self {
        LifecycleEvent { kind, at_iter }
    }

    /// For revocations, the iteration the device actually dies; for every
    /// other kind, `at_iter` itself.
    pub fn deadline(&self) -> u64 {
        match self.kind {
            LifecycleKind::SpotRevocation { notice_iters, .. } => {
                self.at_iter.saturating_add(notice_iters)
            }
            _ => self.at_iter,
        }
    }

    /// Whether every device the event names exists on `gpus` GPUs (the
    /// lifecycle counterpart of [`Fault::fits`]); a hot-added server must
    /// bring at least one GPU.
    pub fn fits(&self, gpus: u16) -> bool {
        match self.kind {
            LifecycleKind::LinkRestore { src, dst } => link_fits(src, dst, gpus),
            LifecycleKind::HostArrival { gpus: added } => added >= 1,
            ref kind => kind.device().is_some_and(|d| d.0 < gpus),
        }
    }
}

impl fmt::Display for LifecycleEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            LifecycleKind::DeviceArrival { device } => write!(f, "arrival dev={}", device.0),
            LifecycleKind::HostArrival { gpus } => write!(f, "host_arrival gpus={gpus}"),
            LifecycleKind::SpotRevocation { device, .. } => write!(f, "spot dev={}", device.0),
            LifecycleKind::DeviceRestore { device } => write!(f, "restore dev={}", device.0),
            LifecycleKind::LinkRestore { src, dst } => {
                write!(f, "link_restore src={} dst={}", src.0, dst.0)
            }
        }?;
        write!(f, " at={}", self.at_iter)?;
        if let LifecycleKind::SpotRevocation { notice_iters, .. } = self.kind {
            write!(f, " notice={notice_iters}")?;
        }
        Ok(())
    }
}

impl FromStr for LifecycleEvent {
    type Err = String;

    /// Parses one `lifecycle = …` value. Rejects unknown kinds and keys,
    /// and missing fields.
    fn from_str(line: &str) -> Result<Self, String> {
        let mut l = Fields::parse(line)?;
        let kind = match l.kind {
            "arrival" => LifecycleKind::DeviceArrival {
                device: l.device("dev")?,
            },
            "host_arrival" => LifecycleKind::HostArrival {
                gpus: l.need("gpus")?,
            },
            "spot" => LifecycleKind::SpotRevocation {
                device: l.device("dev")?,
                notice_iters: l.need("notice")?,
            },
            "restore" => LifecycleKind::DeviceRestore {
                device: l.device("dev")?,
            },
            "link_restore" => LifecycleKind::LinkRestore {
                src: l.device("src")?,
                dst: l.device("dst")?,
            },
            other => return Err(format!("unknown lifecycle event `{other}`")),
        };
        let at_iter = l.need("at")?;
        l.finish()?;
        Ok(LifecycleEvent { kind, at_iter })
    }
}

/// One scheduled fault: a kind active over `[from_iter, until_iter)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// What happens.
    pub kind: FaultKind,
    /// First training iteration the fault is active (inclusive).
    pub from_iter: u64,
    /// First iteration the fault is over (exclusive); `u64::MAX` means the
    /// fault is permanent, which is the only sensible window for a crash.
    pub until_iter: u64,
}

impl Fault {
    /// A fault active over `[from, until)`.
    pub fn windowed(kind: FaultKind, from: u64, until: u64) -> Self {
        Fault {
            kind,
            from_iter: from,
            until_iter: until,
        }
    }

    /// A fault active from `from` forever (the right shape for crashes).
    pub fn from(kind: FaultKind, from: u64) -> Self {
        Fault {
            kind,
            from_iter: from,
            until_iter: u64::MAX,
        }
    }

    /// Whether the fault is active at `iteration`.
    pub fn active(&self, iteration: u64) -> bool {
        self.from_iter <= iteration && iteration < self.until_iter
    }

    /// Whether every device and server the fault names exists on `gpus`
    /// GPUs over `servers` servers, with GPU-first ids as
    /// `Topology::multi_server` lays them out. A link must also join two
    /// distinct devices.
    pub fn fits(&self, gpus: u16, servers: u16) -> bool {
        match self.kind {
            FaultKind::LinkDegrade { src, dst, .. } | FaultKind::LinkFlap { src, dst, .. } => {
                link_fits(src, dst, gpus)
            }
            FaultKind::HostPartition { server } | FaultKind::NicDegrade { server, .. } => {
                server < servers
            }
            ref kind => kind.device().is_some_and(|d| d.0 < gpus),
        }
    }
}

fn link_fits(src: DeviceId, dst: DeviceId, gpus: u16) -> bool {
    src != dst && src.0 < gpus && dst.0 < gpus
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::Straggler { device, slowdown } => {
                write!(f, "straggler dev={} slowdown={slowdown}", device.0)
            }
            FaultKind::LinkDegrade { src, dst, factor } => {
                write!(
                    f,
                    "link_degrade src={} dst={} factor={factor}",
                    src.0, dst.0
                )
            }
            FaultKind::TransientOp { device, prob } => {
                write!(f, "transient dev={} prob={prob}", device.0)
            }
            FaultKind::ProfileFailure {
                device,
                fail_attempts,
            } => write!(f, "profile_fail dev={} attempts={fail_attempts}", device.0),
            FaultKind::Crash { device } => write!(f, "crash dev={}", device.0),
            FaultKind::MemPressure {
                device,
                reserve_bytes,
            } => write!(
                f,
                "mem_pressure dev={} reserve_bytes={reserve_bytes}",
                device.0
            ),
            FaultKind::LinkFlap { src, dst, prob } => {
                write!(f, "link_flap src={} dst={} prob={prob}", src.0, dst.0)
            }
            FaultKind::HostPartition { server } => write!(f, "partition server={server}"),
            FaultKind::CollectiveStraggler { device, slowdown } => {
                write!(
                    f,
                    "collective_straggler dev={} slowdown={slowdown}",
                    device.0
                )
            }
            FaultKind::NicDegrade { server, factor } => {
                write!(f, "nic_degrade server={server} factor={factor}")
            }
        }?;
        if self.from_iter != 0 {
            write!(f, " from={}", self.from_iter)?;
        }
        if self.until_iter != u64::MAX {
            write!(f, " to={}", self.until_iter)?;
        }
        Ok(())
    }
}

impl FromStr for Fault {
    type Err = String;

    /// Parses one `fault = …` value. Rejects unknown kinds and keys,
    /// missing fields, factors that are not finite and positive,
    /// probabilities outside `[0, 1]`, and windows with `to <= from`.
    fn from_str(line: &str) -> Result<Self, String> {
        let mut l = Fields::parse(line)?;
        let kind = match l.kind {
            "straggler" => FaultKind::Straggler {
                device: l.device("dev")?,
                slowdown: l.factor("slowdown")?,
            },
            "link_degrade" => FaultKind::LinkDegrade {
                src: l.device("src")?,
                dst: l.device("dst")?,
                factor: l.factor("factor")?,
            },
            "transient" => FaultKind::TransientOp {
                device: l.device("dev")?,
                prob: l.prob("prob")?,
            },
            "profile_fail" => FaultKind::ProfileFailure {
                device: l.device("dev")?,
                fail_attempts: l.need("attempts")?,
            },
            "crash" => FaultKind::Crash {
                device: l.device("dev")?,
            },
            "mem_pressure" => FaultKind::MemPressure {
                device: l.device("dev")?,
                reserve_bytes: l.need("reserve_bytes")?,
            },
            "link_flap" => FaultKind::LinkFlap {
                src: l.device("src")?,
                dst: l.device("dst")?,
                prob: l.prob("prob")?,
            },
            "partition" => FaultKind::HostPartition {
                server: l.need("server")?,
            },
            "collective_straggler" => FaultKind::CollectiveStraggler {
                device: l.device("dev")?,
                slowdown: l.factor("slowdown")?,
            },
            "nic_degrade" => FaultKind::NicDegrade {
                server: l.need("server")?,
                factor: l.factor("factor")?,
            },
            other => return Err(format!("unknown fault `{other}`")),
        };
        let from_iter = l.take("from")?.unwrap_or(0);
        let until_iter = l.take("to")?.unwrap_or(u64::MAX);
        if until_iter <= from_iter {
            return Err(format!("empty window in `{line}`: `to` must exceed `from`"));
        }
        l.finish()?;
        Ok(Fault {
            kind,
            from_iter,
            until_iter,
        })
    }
}

/// A deterministic script of infrastructure faults for one training run.
///
/// Shared immutably (usually as `Arc<FaultSchedule>`) through
/// [`SimConfig::faults`](crate::SimConfig); an empty or absent schedule
/// leaves the engine's behaviour bit-identical to a fault-free build.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    faults: Vec<Fault>,
    lifecycle: Vec<LifecycleEvent>,
}

impl FaultSchedule {
    /// An empty schedule (injects nothing).
    pub fn none() -> Self {
        Self::default()
    }

    /// A schedule from an explicit fault list.
    pub fn new(faults: Vec<Fault>) -> Self {
        FaultSchedule {
            faults,
            lifecycle: Vec::new(),
        }
    }

    /// Builder-style: appends one fault.
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Builder-style: appends one cluster-lifecycle event.
    pub fn with_lifecycle(mut self, event: LifecycleEvent) -> Self {
        self.lifecycle.push(event);
        self
    }

    /// The schedule a scenario file describes: its `fault` and `lifecycle`
    /// lines, in file order (see the [module docs](self)). Other keys are
    /// left to the caller.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn from_scenario(text: &str) -> Result<Self, String> {
        let mut s = FaultSchedule::none();
        for entry in scenario_lines(text) {
            let (no, key, value) = entry?;
            let at_line = |e: String| format!("line {no}: {e}");
            match key {
                "fault" => s.faults.push(value.parse().map_err(at_line)?),
                "lifecycle" => s.lifecycle.push(value.parse().map_err(at_line)?),
                _ => {}
            }
        }
        Ok(s)
    }

    /// Whether the schedule injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.lifecycle.is_empty()
    }

    /// All scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// All scheduled cluster-lifecycle events, in schedule order.
    pub fn lifecycle(&self) -> &[LifecycleEvent] {
        &self.lifecycle
    }

    /// Faults active at `iteration`.
    pub fn active(&self, iteration: u64) -> impl Iterator<Item = &Fault> {
        self.faults.iter().filter(move |f| f.active(iteration))
    }

    /// Combined compute-slowdown factor for `device` at `iteration`
    /// (product of overlapping stragglers; `1.0` when healthy).
    pub fn slowdown(&self, device: DeviceId, iteration: u64) -> f64 {
        self.active(iteration)
            .filter_map(|f| match f.kind {
                FaultKind::Straggler {
                    device: d,
                    slowdown,
                } if d == device => Some(slowdown),
                _ => None,
            })
            .product()
    }

    /// Combined transfer-time factor for the `src → dst` direction at
    /// `iteration` (`1.0` when the link is healthy).
    pub fn link_factor(&self, src: DeviceId, dst: DeviceId, iteration: u64) -> f64 {
        self.active(iteration)
            .filter_map(|f| match f.kind {
                FaultKind::LinkDegrade {
                    src: s,
                    dst: d,
                    factor,
                } if s == src && d == dst => Some(factor),
                _ => None,
            })
            .product()
    }

    /// Per-attempt probability that the `src → dst` hop is down at
    /// `iteration` (max of overlapping flap windows; `0.0` when healthy).
    pub fn link_flap_prob(&self, src: DeviceId, dst: DeviceId, iteration: u64) -> f64 {
        self.active(iteration)
            .filter_map(|f| match f.kind {
                FaultKind::LinkFlap {
                    src: s,
                    dst: d,
                    prob,
                } if s == src && d == dst => Some(prob),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// Deterministic flap coin: whether transfer attempt `attempt` of
    /// `op`'s send over the `src → dst` hop finds the link down at
    /// `iteration`. Each attempt gets an independent coin, so bounded
    /// retries with backoff usually ride a flap out — and deterministically
    /// exhaust their budget on persistent flaps.
    pub fn link_flapped(
        &self,
        seed: u64,
        op_index: u32,
        src: DeviceId,
        dst: DeviceId,
        iteration: u64,
        attempt: u32,
    ) -> bool {
        let prob = self.link_flap_prob(src, dst, iteration);
        if prob <= 0.0 {
            return false;
        }
        let h = splitmix64(
            seed ^ 0xF1A9_F1A9
                ^ splitmix64(op_index as u64)
                ^ splitmix64(((src.0 as u64) << 16) | dst.0 as u64)
                ^ splitmix64(iteration.wrapping_mul(0x9E3779B9))
                ^ splitmix64(0xB0FF ^ attempt as u64),
        );
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < prob
    }

    /// Whether `server` is partitioned off the cluster at `iteration`.
    pub fn is_partitioned(&self, server: u16, iteration: u64) -> bool {
        self.active(iteration)
            .any(|f| matches!(f.kind, FaultKind::HostPartition { server: s } if s == server))
    }

    /// Combined collective-phase slowdown contributed by `device` at
    /// `iteration` (product of overlapping collective stragglers; `1.0`
    /// when healthy). Plain P2P transfers are unaffected.
    pub fn collective_slowdown(&self, device: DeviceId, iteration: u64) -> f64 {
        self.active(iteration)
            .filter_map(|f| match f.kind {
                FaultKind::CollectiveStraggler {
                    device: d,
                    slowdown,
                } if d == device => Some(slowdown),
                _ => None,
            })
            .product()
    }

    /// Combined NIC degradation factor for traffic entering or leaving
    /// `server` at `iteration` (`1.0` when healthy).
    pub fn nic_factor(&self, server: u16, iteration: u64) -> f64 {
        self.active(iteration)
            .filter_map(|f| match f.kind {
                FaultKind::NicDegrade { server: s, factor } if s == server => Some(factor),
                _ => None,
            })
            .product()
    }

    /// The most recent revival of `device` at or before `iteration`: a
    /// [`LifecycleKind::DeviceArrival`] or [`LifecycleKind::DeviceRestore`]
    /// event, if any.
    fn revival_iter(&self, device: DeviceId, iteration: u64) -> Option<u64> {
        self.lifecycle
            .iter()
            .filter(|e| {
                e.at_iter <= iteration
                    && matches!(
                        e.kind,
                        LifecycleKind::DeviceArrival { device: d }
                        | LifecycleKind::DeviceRestore { device: d } if d == device
                    )
            })
            .map(|e| e.at_iter)
            .max()
    }

    /// Whether `device` is dead as of `iteration`.
    ///
    /// Deaths come from [`FaultKind::Crash`] windows and from
    /// [`LifecycleKind::SpotRevocation`] deadlines; a later
    /// [`LifecycleKind::DeviceArrival`] / [`LifecycleKind::DeviceRestore`]
    /// revives the device. A revival must land **strictly after** the
    /// death to count (at the same iteration, the death wins — the
    /// replacement capacity is not usable until the next iteration).
    pub fn crashed(&self, device: DeviceId, iteration: u64) -> bool {
        let revival = self.revival_iter(device, iteration);
        // dead by `death` unless revived strictly after it
        let dead_since = |death: u64| revival.is_none_or(|r| r <= death);
        self.active(iteration).any(|f| {
            matches!(f.kind, FaultKind::Crash { device: d } if d == device)
                && dead_since(f.from_iter)
        }) || self.lifecycle.iter().any(|e| {
            matches!(
                e.kind,
                LifecycleKind::SpotRevocation { device: d, .. } if d == device
            ) && e.deadline() <= iteration
                && dead_since(e.deadline())
        })
    }

    /// Bytes of `device` memory pinned by pressure spikes at `iteration`.
    pub fn mem_reserved(&self, device: DeviceId, iteration: u64) -> u64 {
        self.active(iteration)
            .filter_map(|f| match f.kind {
                FaultKind::MemPressure {
                    device: d,
                    reserve_bytes,
                } if d == device => Some(reserve_bytes),
                _ => None,
            })
            .sum()
    }

    /// How many extra executions a transient fault forces on `op` (by
    /// index) on `device` at `iteration`: `0` for the overwhelmingly common
    /// healthy case, `1` when the deterministic per-op coin lands inside an
    /// active window's probability.
    pub fn reexecutions(&self, seed: u64, op_index: u32, device: DeviceId, iteration: u64) -> u32 {
        let mut prob = 0.0f64;
        for f in self.active(iteration) {
            if let FaultKind::TransientOp { device: d, prob: p } = f.kind {
                if d == device {
                    prob = prob.max(p);
                }
            }
        }
        if prob <= 0.0 {
            return 0;
        }
        let h = splitmix64(
            seed ^ 0xFA17_FA17
                ^ splitmix64(op_index as u64)
                ^ splitmix64(iteration.wrapping_mul(0x5DEECE66D)),
        );
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        u32::from(unit < prob)
    }

    /// All profile-failure faults active at `iteration`, as
    /// `(device, fail_attempts)` pairs in schedule order. A simulation whose
    /// `SimConfig::attempt` is below an *applicable* pair's threshold
    /// returns [`SimError::Transient`](crate::SimError) for that device;
    /// which pairs apply is the engine's call (it skips devices the
    /// placement does not use or that the topology has blacklisted, so a
    /// fault cannot keep failing runs after the session has planned around
    /// its device).
    pub fn profile_fail_attempts(
        &self,
        iteration: u64,
    ) -> impl Iterator<Item = (DeviceId, u32)> + '_ {
        self.active(iteration).filter_map(|f| match f.kind {
            FaultKind::ProfileFailure {
                device,
                fail_attempts,
            } => Some((device, fail_attempts)),
            _ => None,
        })
    }

    /// The first crashed device at `iteration` among `devices`, if any.
    pub fn first_crashed<I: IntoIterator<Item = DeviceId>>(
        &self,
        devices: I,
        iteration: u64,
    ) -> Option<DeviceId> {
        devices.into_iter().find(|&d| self.crashed(d, iteration))
    }
}

/// One scenario-line value split into its kind and `key=value` fields;
/// every field must be taken exactly once.
struct Fields<'a> {
    kind: &'a str,
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn parse(line: &'a str) -> Result<Self, String> {
        let mut words = line.split_whitespace();
        let kind = words.next().ok_or("empty entry")?;
        let fields = words
            .map(|w| {
                w.split_once('=')
                    .ok_or_else(|| format!("expected `key=value`, got `{w}`"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Fields { kind, fields })
    }

    fn take<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        let Some(i) = self.fields.iter().position(|&(k, _)| k == key) else {
            return Ok(None);
        };
        let (_, value) = self.fields.remove(i);
        value
            .parse()
            .map(Some)
            .map_err(|_| format!("bad value `{key}={value}` in `{}`", self.kind))
    }

    fn need<T: FromStr>(&mut self, key: &str) -> Result<T, String> {
        self.take(key)?
            .ok_or_else(|| format!("missing field `{key}` in `{}`", self.kind))
    }

    fn device(&mut self, key: &str) -> Result<DeviceId, String> {
        self.need(key).map(DeviceId)
    }

    fn factor(&mut self, key: &str) -> Result<f64, String> {
        let v: f64 = self.need(key)?;
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(format!("`{key}={v}` must be finite and positive"))
        }
    }

    fn prob(&mut self, key: &str) -> Result<f64, String> {
        let v: f64 = self.need(key)?;
        if (0.0..=1.0).contains(&v) {
            Ok(v)
        } else {
            Err(format!("`{key}={v}` must lie in [0, 1]"))
        }
    }

    fn finish(self) -> Result<(), String> {
        match self.fields.first() {
            Some((k, _)) => Err(format!("unexpected key `{k}` in `{}`", self.kind)),
            None => Ok(()),
        }
    }
}

/// The `key = value` lines of a scenario file as `(line number, key,
/// value)`, skipping blank lines and `#` comments. Each caller handles the
/// keys it owns.
///
/// # Errors
///
/// Names the first line that is not `key = value`.
pub fn scenario_lines(text: &str) -> impl Iterator<Item = Result<(usize, &str, &str), String>> {
    text.lines()
        .enumerate()
        .map(|(i, raw)| (i + 1, raw.trim()))
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
        .map(|(no, line)| {
            line.split_once('=')
                .map(|(k, v)| (no, k.trim(), v.trim()))
                .ok_or_else(|| format!("line {no}: expected `key = value`"))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    const D0: DeviceId = DeviceId(0);
    const D1: DeviceId = DeviceId(1);

    #[test]
    fn windows_are_half_open() {
        let f = Fault::windowed(
            FaultKind::Straggler {
                device: D0,
                slowdown: 2.0,
            },
            5,
            10,
        );
        assert!(!f.active(4));
        assert!(f.active(5));
        assert!(f.active(9));
        assert!(!f.active(10));
    }

    #[test]
    fn slowdowns_multiply_and_ignore_other_devices() {
        let s = FaultSchedule::none()
            .with(Fault::from(
                FaultKind::Straggler {
                    device: D0,
                    slowdown: 2.0,
                },
                0,
            ))
            .with(Fault::from(
                FaultKind::Straggler {
                    device: D0,
                    slowdown: 3.0,
                },
                0,
            ));
        assert_eq!(s.slowdown(D0, 0), 6.0);
        assert_eq!(s.slowdown(D1, 0), 1.0);
    }

    #[test]
    fn link_factor_is_directional() {
        let s = FaultSchedule::none().with(Fault::from(
            FaultKind::LinkDegrade {
                src: D0,
                dst: D1,
                factor: 4.0,
            },
            0,
        ));
        assert_eq!(s.link_factor(D0, D1, 0), 4.0);
        assert_eq!(s.link_factor(D1, D0, 0), 1.0);
    }

    #[test]
    fn crash_is_permanent_with_from() {
        let s = FaultSchedule::none().with(Fault::from(FaultKind::Crash { device: D1 }, 7));
        assert!(!s.crashed(D1, 6));
        assert!(s.crashed(D1, 7));
        assert!(s.crashed(D1, 1_000_000));
        assert_eq!(s.first_crashed([D0, D1], 8), Some(D1));
        assert_eq!(s.first_crashed([D0], 8), None);
    }

    #[test]
    fn mem_pressure_sums() {
        let s = FaultSchedule::none()
            .with(Fault::windowed(
                FaultKind::MemPressure {
                    device: D0,
                    reserve_bytes: 100,
                },
                0,
                10,
            ))
            .with(Fault::windowed(
                FaultKind::MemPressure {
                    device: D0,
                    reserve_bytes: 50,
                },
                5,
                10,
            ));
        assert_eq!(s.mem_reserved(D0, 2), 100);
        assert_eq!(s.mem_reserved(D0, 7), 150);
        assert_eq!(s.mem_reserved(D0, 10), 0);
    }

    #[test]
    fn reexecutions_deterministic_and_bounded_by_prob() {
        let s = FaultSchedule::none().with(Fault::from(
            FaultKind::TransientOp {
                device: D0,
                prob: 0.25,
            },
            0,
        ));
        let mut hits = 0;
        for op in 0..1000u32 {
            let a = s.reexecutions(42, op, D0, 3);
            let b = s.reexecutions(42, op, D0, 3);
            assert_eq!(a, b, "same inputs must give the same coin");
            hits += a;
        }
        // ~25% of 1000, very loose bounds
        assert!((150..350).contains(&hits), "hits = {hits}");
        // other devices unaffected
        assert_eq!(s.reexecutions(42, 0, D1, 3), 0);
    }

    #[test]
    fn profile_failure_lists_every_active_fault() {
        let s = FaultSchedule::none()
            .with(Fault::windowed(
                FaultKind::ProfileFailure {
                    device: D0,
                    fail_attempts: 1,
                },
                0,
                10,
            ))
            .with(Fault::windowed(
                FaultKind::ProfileFailure {
                    device: D1,
                    fail_attempts: 3,
                },
                0,
                5,
            ));
        let at = |i: u64| s.profile_fail_attempts(i).collect::<Vec<_>>();
        assert_eq!(at(2), vec![(D0, 1), (D1, 3)]);
        assert_eq!(at(7), vec![(D0, 1)]);
        assert_eq!(at(12), vec![]);
    }

    #[test]
    fn empty_schedule_is_inert() {
        let s = FaultSchedule::none();
        assert!(s.is_empty());
        assert_eq!(s.slowdown(D0, 0), 1.0);
        assert_eq!(s.link_factor(D0, D1, 0), 1.0);
        assert!(!s.crashed(D0, 0));
        assert_eq!(s.mem_reserved(D0, 0), 0);
        assert_eq!(s.reexecutions(0, 0, D0, 0), 0);
        assert_eq!(s.profile_fail_attempts(0).count(), 0);
        assert_eq!(s.link_flap_prob(D0, D1, 0), 0.0);
        assert!(!s.link_flapped(0, 0, D0, D1, 0, 0));
        assert!(!s.is_partitioned(0, 0));
        assert_eq!(s.collective_slowdown(D0, 0), 1.0);
        assert_eq!(s.nic_factor(0, 0), 1.0);
    }

    #[test]
    fn flap_coin_is_directional_deterministic_and_attempt_varying() {
        let s = FaultSchedule::none().with(Fault::from(
            FaultKind::LinkFlap {
                src: D0,
                dst: D1,
                prob: 0.5,
            },
            0,
        ));
        assert_eq!(s.link_flap_prob(D0, D1, 0), 0.5);
        assert_eq!(s.link_flap_prob(D1, D0, 0), 0.0, "flaps are directional");
        // deterministic per (seed, op, hop, iteration, attempt)
        for attempt in 0..8u32 {
            assert_eq!(
                s.link_flapped(7, 3, D0, D1, 2, attempt),
                s.link_flapped(7, 3, D0, D1, 2, attempt)
            );
        }
        // attempts get independent coins: at prob 0.5, eight straight
        // identical draws across many ops would be a broken hash
        let mut varies = false;
        for op in 0..16u32 {
            let first = s.link_flapped(7, op, D0, D1, 2, 0);
            if (1..8).any(|a| s.link_flapped(7, op, D0, D1, 2, a) != first) {
                varies = true;
                break;
            }
        }
        assert!(varies, "per-attempt coins must be independent");
        // the reverse direction never flaps
        assert!(!s.link_flapped(7, 3, D1, D0, 2, 0));
    }

    #[test]
    fn partition_and_nic_faults_are_server_scoped() {
        let s = FaultSchedule::none()
            .with(Fault::windowed(
                FaultKind::HostPartition { server: 1 },
                5,
                10,
            ))
            .with(Fault::from(
                FaultKind::NicDegrade {
                    server: 0,
                    factor: 8.0,
                },
                0,
            ));
        assert!(!s.is_partitioned(1, 4));
        assert!(s.is_partitioned(1, 5));
        assert!(!s.is_partitioned(0, 5));
        assert_eq!(s.nic_factor(0, 3), 8.0);
        assert_eq!(s.nic_factor(1, 3), 1.0);
        // server-scoped kinds expose a server, not a device
        assert_eq!(FaultKind::HostPartition { server: 1 }.device(), None);
        assert_eq!(FaultKind::HostPartition { server: 1 }.server(), Some(1));
        assert_eq!(
            FaultKind::NicDegrade {
                server: 0,
                factor: 2.0
            }
            .label(),
            "nic_degrade"
        );
    }

    #[test]
    fn collective_straggler_does_not_slow_compute() {
        let s = FaultSchedule::none().with(Fault::from(
            FaultKind::CollectiveStraggler {
                device: D0,
                slowdown: 4.0,
            },
            0,
        ));
        assert_eq!(s.collective_slowdown(D0, 0), 4.0);
        assert_eq!(s.collective_slowdown(D1, 0), 1.0);
        assert_eq!(s.slowdown(D0, 0), 1.0, "compute path unaffected");
        assert_eq!(s.link_factor(D0, D1, 0), 1.0, "p2p path unaffected");
    }

    #[test]
    fn revocation_kills_at_deadline_and_arrival_revives() {
        let s = FaultSchedule::none()
            .with_lifecycle(LifecycleEvent::at(
                LifecycleKind::SpotRevocation {
                    device: D1,
                    notice_iters: 3,
                },
                5,
            ))
            .with_lifecycle(LifecycleEvent::at(
                LifecycleKind::DeviceArrival { device: D1 },
                12,
            ));
        // alive through the whole notice window, dead at the deadline
        assert!(!s.crashed(D1, 5));
        assert!(!s.crashed(D1, 7));
        assert!(s.crashed(D1, 8));
        assert!(s.crashed(D1, 11));
        // revived by the arrival, and stays revived
        assert!(!s.crashed(D1, 12));
        assert!(!s.crashed(D1, 1_000_000));
        // other devices untouched
        assert!(!s.crashed(D0, 8));
    }

    #[test]
    fn restore_revives_a_crash_and_recrash_wins_over_stale_revival() {
        let s = FaultSchedule::none()
            .with(Fault::from(FaultKind::Crash { device: D0 }, 4))
            .with_lifecycle(LifecycleEvent::at(
                LifecycleKind::DeviceRestore { device: D0 },
                9,
            ))
            .with_lifecycle(LifecycleEvent::at(
                LifecycleKind::SpotRevocation {
                    device: D0,
                    notice_iters: 0,
                },
                15,
            ));
        assert!(s.crashed(D0, 4));
        assert!(s.crashed(D0, 8));
        assert!(!s.crashed(D0, 9), "restore revives the crash");
        assert!(!s.crashed(D0, 14));
        assert!(s.crashed(D0, 15), "a later death beats an older revival");
        assert_eq!(s.first_crashed([D0, D1], 15), Some(D0));
    }

    #[test]
    fn same_iteration_death_beats_revival() {
        let s = FaultSchedule::none()
            .with(Fault::from(FaultKind::Crash { device: D0 }, 6))
            .with_lifecycle(LifecycleEvent::at(
                LifecycleKind::DeviceArrival { device: D0 },
                6,
            ));
        assert!(s.crashed(D0, 6), "ties resolve to dead");
        assert!(s.crashed(D0, 7), "and stay dead without a later revival");
    }

    #[test]
    fn lifecycle_events_mark_schedule_non_empty() {
        let s = FaultSchedule::none().with_lifecycle(LifecycleEvent::at(
            LifecycleKind::HostArrival { gpus: 2 },
            3,
        ));
        assert!(!s.is_empty());
        assert!(s.faults().is_empty());
        assert_eq!(s.lifecycle().len(), 1);
        assert_eq!(s.lifecycle()[0].kind.label(), "host_arrival");
        assert_eq!(s.lifecycle()[0].kind.device(), None);
        assert_eq!(
            LifecycleKind::LinkRestore { src: D1, dst: D0 }.device(),
            Some(D1)
        );
    }

    fn fault(line: &str) -> Fault {
        line.parse().unwrap()
    }

    fn event(line: &str) -> LifecycleEvent {
        line.parse().unwrap()
    }

    #[test]
    fn scenario_lines_round_trip_every_kind_exactly() {
        // every kind, in the form `Display` writes
        for line in [
            "straggler dev=0 slowdown=0.30000000000000004 from=3 to=40",
            "link_degrade src=0 dst=1 factor=3.9 to=40",
            "transient dev=1 prob=0.3333333333333333 from=2 to=3",
            "profile_fail dev=0 attempts=6",
            "crash dev=1 from=26",
            "mem_pressure dev=0 reserve_bytes=3221225472 from=22 to=32",
            "link_flap src=1 dst=0 prob=0.25 to=10",
            "partition server=1 from=27",
            "collective_straggler dev=0 slowdown=0.0000001 from=25 to=35",
            "nic_degrade server=0 factor=5.8 from=12 to=22",
        ] {
            assert_eq!(fault(line).to_string(), line);
        }
        for line in [
            "arrival dev=0 at=16",
            "host_arrival gpus=2 at=31",
            "spot dev=1 at=42 notice=2",
            "restore dev=1 at=44",
            "link_restore src=1 dst=0 at=20",
        ] {
            assert_eq!(event(line).to_string(), line);
        }
        // values come back bit-for-bit, not rounded to one decimal place
        let exact = Fault::from(
            FaultKind::Straggler {
                device: D0,
                slowdown: 0.1 + 0.2,
            },
            0,
        );
        assert_eq!(fault(&exact.to_string()), exact);
        // one window rule: `from` defaults to 0, no `to` means permanent
        let crash = fault("crash dev=1 from=26");
        assert_eq!((crash.from_iter, crash.until_iter), (26, u64::MAX));
        assert_eq!(fault("partition server=0 to=5").from_iter, 0);
    }

    #[test]
    fn scenario_lines_reject_malformed_values() {
        for bad in [
            "",
            "meteor dev=0",
            "crash",
            "crash dev=0 at=3",
            "crash dev=0 dev=1",
            "crash dev=-1",
            "crash dev",
            "straggler dev=0",
            "straggler dev=0 slowdown=0",
            "straggler dev=0 slowdown=-2",
            "straggler dev=0 slowdown=inf",
            "link_degrade src=0 dst=1 factor=NaN",
            "transient dev=0 prob=1.5",
            "link_flap src=0 dst=1 prob=-0.1",
            "transient dev=0 prob=NaN",
            "straggler dev=0 slowdown=2 from=5 to=5",
            "straggler dev=0 slowdown=2 from=6 to=5",
        ] {
            assert!(bad.parse::<Fault>().is_err(), "accepted fault `{bad}`");
        }
        for bad in [
            "",
            "meteor dev=0 at=1",
            "arrival dev=0",
            "spot dev=0 at=1",
            "restore dev=0 at=1 from=2",
            "host_arrival gpus=x at=1",
        ] {
            assert!(bad.parse::<LifecycleEvent>().is_err(), "accepted `{bad}`");
        }
        assert!(FaultSchedule::from_scenario("iters = 4\nnonsense\n").is_err());
        let err = FaultSchedule::from_scenario("seed = 1\n\n# c\nfault = crash dev=x\n");
        assert!(err.unwrap_err().starts_with("line 4:"));
    }

    #[test]
    fn from_scenario_keeps_file_order_and_ignores_other_keys() {
        let s = FaultSchedule::from_scenario(
            "# comment\nseed = 21\niters = 40\n\
             fault = crash dev=1 from=26\n\
             lifecycle = host_arrival gpus=2 at=31\n\
             fault = partition server=0 from=27\n",
        )
        .unwrap();
        assert_eq!(
            s.faults(),
            [
                fault("crash dev=1 from=26"),
                fault("partition server=0 from=27")
            ]
        );
        assert_eq!(s.lifecycle(), [event("host_arrival gpus=2 at=31")]);
    }

    #[test]
    fn fits_checks_devices_servers_and_links() {
        let fits = |line, gpus, servers| fault(line).fits(gpus, servers);
        assert!(fits("crash dev=3", 4, 1));
        assert!(!fits("crash dev=4", 4, 1));
        assert!(fits("link_flap src=0 dst=1 prob=0.5", 2, 1));
        assert!(!fits("link_flap src=1 dst=1 prob=0.5", 2, 1), "a self-loop");
        assert!(!fits("link_flap src=0 dst=2 prob=0.5", 2, 1));
        assert!(fits("partition server=1", 4, 2));
        assert!(!fits("partition server=1", 4, 1));
        assert!(event("spot dev=3 at=1 notice=0").fits(4));
        assert!(!event("spot dev=3 at=1 notice=0").fits(3));
        assert!(!event("host_arrival gpus=0 at=1").fits(4));
    }
}
