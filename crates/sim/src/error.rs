//! Simulator errors.

use fastt_cluster::DeviceId;
use std::error::Error;
use std::fmt;

/// Error produced by a simulated execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A device ran out of memory — the simulated analogue of the
    /// out-of-memory failures the paper's Table 3 reports for data
    /// parallelism at large batch sizes.
    Oom {
        /// The device that overflowed.
        device: DeviceId,
        /// Bytes the allocation would have required in total.
        needed: u64,
        /// The device's capacity.
        capacity: u64,
        /// Name of the op whose allocation failed (empty for the initial
        /// resident-parameter placement).
        at_op: String,
    },
    /// The placement does not cover the graph or violates constraints.
    InvalidPlacement(String),
    /// Execution stalled before all ops ran (graph/placement inconsistency).
    Deadlock {
        /// Ops that did execute.
        executed: usize,
        /// Total ops in the graph.
        total: usize,
    },
    /// A device with work placed on it has crashed (injected via
    /// [`FaultSchedule`](crate::FaultSchedule)): the iteration cannot run
    /// until the plan stops using the device.
    DeviceCrash {
        /// The crashed device.
        device: DeviceId,
        /// The training iteration at which the crash was observed.
        iteration: u64,
    },
    /// A transient infrastructure failure (driver hiccup, profiling
    /// collector timeout) aborted this attempt; retrying the same
    /// iteration with a higher `SimConfig::attempt` may succeed.
    Transient {
        /// The device that hiccupped.
        device: DeviceId,
        /// The training iteration being attempted.
        iteration: u64,
        /// The attempt number that failed (0-based).
        attempt: u32,
    },
    /// A physical link stayed down past the transfer's retry budget (a
    /// flap that never came back): the plan must stop routing over it.
    LinkDown {
        /// Source device of the dead hop.
        src: DeviceId,
        /// Destination device of the dead hop.
        dst: DeviceId,
        /// The training iteration at which the link gave out.
        iteration: u64,
    },
    /// A host partition cut every route to a server before the transfer
    /// deadline: the plan must stop using the partitioned server.
    PartitionTimeout {
        /// The unreachable server.
        server: u16,
        /// The training iteration at which the partition was observed.
        iteration: u64,
    },
    /// No live route exists between two devices the plan requires to
    /// communicate (every candidate staging crosses a failed link).
    Unreachable {
        /// Source device of the impossible transfer.
        src: DeviceId,
        /// Destination device of the impossible transfer.
        dst: DeviceId,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Oom {
                device,
                needed,
                capacity,
                at_op,
            } => write!(
                f,
                "out of memory on {device}: need {needed} bytes of {capacity} (at `{at_op}`)"
            ),
            SimError::InvalidPlacement(msg) => write!(f, "invalid placement: {msg}"),
            SimError::Deadlock { executed, total } => {
                write!(f, "execution stalled after {executed}/{total} ops")
            }
            SimError::DeviceCrash { device, iteration } => {
                write!(f, "{device} crashed (iteration {iteration})")
            }
            SimError::Transient {
                device,
                iteration,
                attempt,
            } => write!(
                f,
                "transient failure on {device} (iteration {iteration}, attempt {attempt})"
            ),
            SimError::LinkDown {
                src,
                dst,
                iteration,
            } => write!(
                f,
                "link {src} -> {dst} down past retry budget (iteration {iteration})"
            ),
            SimError::PartitionTimeout { server, iteration } => {
                write!(
                    f,
                    "server {server} partitioned: transfer deadline exceeded (iteration {iteration})"
                )
            }
            SimError::Unreachable { src, dst } => {
                write!(f, "no live route from {src} to {dst}")
            }
        }
    }
}

impl Error for SimError {}

impl SimError {
    /// Whether this is an out-of-memory failure.
    pub fn is_oom(&self) -> bool {
        matches!(self, SimError::Oom { .. })
    }

    /// Whether this failure is transient — retrying the same attempt may
    /// succeed (as opposed to a crash or OOM, which need a new plan).
    pub fn is_transient(&self) -> bool {
        matches!(self, SimError::Transient { .. })
    }

    /// The dead or unroutable link, when this is a network failure
    /// ([`SimError::LinkDown`] or [`SimError::Unreachable`]).
    pub fn dead_link(&self) -> Option<(DeviceId, DeviceId)> {
        match self {
            SimError::LinkDown { src, dst, .. } | SimError::Unreachable { src, dst } => {
                Some((*src, *dst))
            }
            _ => None,
        }
    }

    /// The partitioned server, when this is a [`SimError::PartitionTimeout`].
    pub fn partitioned_server(&self) -> Option<u16> {
        match self {
            SimError::PartitionTimeout { server, .. } => Some(*server),
            _ => None,
        }
    }
}
