//! Graph rewrites: semantics-preserving transformations of training graphs.
//!
//! Two rewrites matter to FastT:
//!
//! * [`replicate`] builds the in-graph data-parallel training graph (the
//!   paper's start strategy when the model fits on one GPU, Sec. 5.2);
//! * [`split_operation`] implements Alg. 2's `SplitOperation`: partitioning a
//!   single operation into `n` sub-operations along a parallelizable
//!   dimension, inserting `Split`/`Concat` plumbing nodes.

mod decompose;
mod replicate;
mod split;

pub use decompose::{
    decompose, decompose_with, DecomposeOptions, Region, RegionId, RegionKind, RegionTree,
};
pub use replicate::{
    replicate, replicate_grouped, replicate_with, ReplicaRole, ReplicatedGraph, ReplicationMode,
};
pub use split::{split_operation, SplitDecision, SplitResult};
