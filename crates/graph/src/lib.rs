//! # fastt-graph
//!
//! Dataflow computation-graph substrate for the FastT reproduction
//! (*"Fast Training of Deep Learning Models over Multiple GPUs"*,
//! Middleware '20).
//!
//! A training job is represented as a DAG whose nodes are [`Operation`]s
//! (Conv2D, MatMul, …) and whose edges are tensors (Sec. 2.1 of the paper).
//! This crate provides:
//!
//! * the graph type itself ([`Graph`]) with validation and topological
//!   ordering;
//! * reverse-mode [`build_training_graph`] to derive gradients and optimizer
//!   updates from a forward graph;
//! * the two rewrites FastT relies on: data-parallel [`replicate`]
//!   (the paper's start strategy) and [`split_operation`] (Alg. 2's
//!   `SplitOperation` for fine-grained intra-op parallelism).
//!
//! # Examples
//!
//! Build a one-layer training graph and replicate it across two devices:
//!
//! ```
//! use fastt_graph::{build_training_graph, replicate, Graph, OpKind, Operation};
//!
//! let mut fwd = Graph::new();
//! let x = fwd.add_op(Operation::new("x", OpKind::Input, [8, 4]))?;
//! let w = fwd.add_op(Operation::new("w", OpKind::Variable, [4, 2]).with_param_bytes(32))?;
//! let mm = fwd.add_op(Operation::new("mm", OpKind::MatMul, [8, 2]).with_flops(128))?;
//! let loss = fwd.add_op(Operation::new("loss", OpKind::Loss, []))?;
//! fwd.connect(x, mm)?;
//! fwd.connect(w, mm)?;
//! fwd.connect(mm, loss)?;
//!
//! let training = build_training_graph(&fwd)?;
//! let dp = replicate(&training, 2)?;
//! assert!(dp.graph.by_name("agg/apply/w").is_some());
//! # Ok::<(), fastt_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autodiff;
mod dot;
mod error;
mod graph;
mod op;
pub mod rewrite;
mod shape;

pub use autodiff::{build_training_graph, grad_kind, BACKWARD_FLOP_FACTOR};
pub use dot::to_dot;
pub use error::GraphError;
pub use graph::{Edge, EdgeId, Graph, GraphStats};
pub use op::{CollectiveKind, OpId, OpKind, Operation, SplitDim};
pub use rewrite::{
    decompose, decompose_with, replicate, replicate_grouped, replicate_with, split_operation,
    DecomposeOptions, Region, RegionId, RegionKind, RegionTree, ReplicaRole, ReplicatedGraph,
    ReplicationMode, SplitDecision, SplitResult,
};
pub use shape::{TensorShape, BYTES_PER_ELEM};
