//! # fastt-sim
//!
//! Discrete-event multi-GPU execution simulator for the FastT reproduction.
//!
//! The paper evaluates on servers with 8 NVIDIA V100 GPUs; this crate is the
//! substitute substrate (see DESIGN.md): it executes a placed training graph
//! over a [`fastt_cluster::Topology`], modelling
//!
//! * per-device serial kernel execution, with the ready queue popped either
//!   FIFO (TensorFlow's default executor) or by FastT's enforced priorities
//!   ([`ExecPolicy`]);
//! * inter-device tensor transfers serialized per link (per device pair
//!   inside a server, per NIC pair across servers), overlapping with
//!   compute;
//! * device memory with parameter/optimizer residency and activation
//!   lifetimes, failing with [`SimError::Oom`] exactly where real training
//!   would;
//! * a hidden V100-calibrated hardware ground truth ([`HardwarePerf`]) that
//!   the adaptive cost models of `fastt-cost` must *learn* through profiling,
//!   exactly as the paper's module learns its testbed.
//!
//! # Examples
//!
//! ```
//! use fastt_cluster::{DeviceId, Topology};
//! use fastt_graph::{Graph, OpKind, Operation};
//! use fastt_sim::{simulate, ExecPolicy, HardwarePerf, Placement, SimConfig};
//!
//! let mut g = Graph::new();
//! let a = g.add_op(Operation::new("a", OpKind::Input, [1024]))?;
//! let b = g.add_op(Operation::new("b", OpKind::Relu, [1024]))?;
//! g.connect(a, b)?;
//!
//! let topo = Topology::single_server(2);
//! let placement = Placement::uniform(g.op_count(), DeviceId(0));
//! let trace = simulate(
//!     &g, &topo, &placement, &HardwarePerf::new(),
//!     ExecPolicy::Fifo, &SimConfig::default(),
//! )?;
//! assert!(trace.makespan > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comm;
mod engine;
mod error;
pub mod faults;
mod hardware;
mod placement;
mod queue;
pub mod seed;
mod trace;

pub use comm::{CollectiveStep, CommPlan, P2pSend};
pub use engine::{simulate, SimConfig};
pub use error::SimError;
pub use faults::{Fault, FaultKind, FaultSchedule, LifecycleEvent, LifecycleKind};
pub use hardware::{is_transient, HardwarePerf, LAUNCH_OVERHEAD, OPTIMIZER_RESIDENT_FACTOR};
pub use placement::Placement;
pub use queue::ExecPolicy;
pub use seed::SeedStream;
pub use trace::{CollectiveRecord, OpRecord, RunTrace, TransferRecord};
