//! Operations: the nodes of the computation graph.

use crate::shape::TensorShape;
use std::fmt;

/// Identifier of an operation within one [`Graph`](crate::Graph).
///
/// Ids are dense indices assigned in insertion order; they are only meaningful
/// within the graph that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u32);

impl OpId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

/// A dimension along which an operation may be partitioned into
/// sub-operations (Sec. 5.2 of the paper).
///
/// * `Batch` — fine-grained **data** parallelism inside the operation: input
///   data edges are partitioned, weight edges are broadcast to every sub-op.
/// * `Channel` — fine-grained **model** parallelism: weight edges are
///   partitioned, data edges are broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SplitDim {
    /// Split along the sample (batch) dimension.
    Batch,
    /// Split along the channel / feature dimension.
    Channel,
}

impl fmt::Display for SplitDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitDim::Batch => write!(f, "batch"),
            SplitDim::Channel => write!(f, "channel"),
        }
    }
}

/// The kind of computation an operation performs.
///
/// Kinds carry the semantics the FastT algorithms care about: which split
/// dimensions (if any) an operation supports, and whether it is
/// compute-bound or memory-bound (the simulator's hardware model uses this
/// to derive execution time from `flops`/bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum OpKind {
    /// Training-data feed; produces the input mini-batch.
    Input,
    /// Trainable parameter storage (weights / biases / embeddings).
    Variable,
    /// 2-D convolution (forward).
    Conv2D,
    /// Gradient of a 2-D convolution (computes both input and filter grads).
    Conv2DBackprop,
    /// Dense matrix multiplication (also used for its own gradients).
    MatMul,
    /// Element-wise rectified linear unit.
    Relu,
    /// Gaussian-error linear unit. Unfused in TF 1.x: a chain of ~8
    /// element-wise kernels, each materializing an intermediate tensor —
    /// the memory hog behind BERT's small maximal batch sizes.
    Gelu,
    /// Max/average pooling.
    Pool,
    /// Batch normalization (not splittable: normalizes across the batch).
    BatchNorm,
    /// Layer normalization.
    LayerNorm,
    /// Softmax / attention-score normalization.
    Softmax,
    /// Element-wise addition (residual connections, bias adds).
    Add,
    /// Concatenation of several tensors (also inserted by the split rewrite).
    Concat,
    /// Partition of one tensor into several (inserted by the split rewrite).
    Split,
    /// Embedding-table lookup.
    Embedding,
    /// One fused LSTM cell step.
    LstmCell,
    /// Fused scaled-dot-product attention block.
    Attention,
    /// Loss computation (the training graph's logical sink).
    Loss,
    /// Generic gradient of a memory-bound op (Relu/Pool/Add/... backward).
    EltwiseGrad,
    /// Cross-replica gradient aggregation (inserted by the replicate rewrite).
    AggregateGradients,
    /// Optimizer update: applies a gradient to a [`OpKind::Variable`].
    ApplyGradient,
    /// Shape-only bookkeeping (reshape / transpose / identity).
    Identity,
}

impl OpKind {
    /// Dimensions along which an operation of this kind may be split
    /// (Sec. 5.2: "Different types of operations have different dimensions to
    /// be split"; BatchNorm is the paper's example of a non-splittable op).
    pub fn split_dims(self) -> &'static [SplitDim] {
        match self {
            OpKind::Conv2D | OpKind::Conv2DBackprop => &[SplitDim::Batch, SplitDim::Channel],
            OpKind::MatMul => &[SplitDim::Batch, SplitDim::Channel],
            OpKind::Attention => &[SplitDim::Batch],
            _ => &[],
        }
    }

    /// Whether execution time is dominated by arithmetic (`true`) or by
    /// memory traffic (`false`). Used by the simulator's hardware model.
    pub fn is_compute_bound(self) -> bool {
        matches!(
            self,
            OpKind::Conv2D
                | OpKind::Conv2DBackprop
                | OpKind::MatMul
                | OpKind::LstmCell
                | OpKind::Attention
        )
    }

    /// Whether this kind represents trainable state.
    pub fn is_variable(self) -> bool {
        matches!(self, OpKind::Variable)
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Input => "Input",
            OpKind::Variable => "Variable",
            OpKind::Conv2D => "Conv2D",
            OpKind::Conv2DBackprop => "Conv2DBackprop",
            OpKind::MatMul => "MatMul",
            OpKind::Relu => "Relu",
            OpKind::Gelu => "Gelu",
            OpKind::Pool => "Pool",
            OpKind::BatchNorm => "BatchNorm",
            OpKind::LayerNorm => "LayerNorm",
            OpKind::Softmax => "Softmax",
            OpKind::Add => "Add",
            OpKind::Concat => "Concat",
            OpKind::Split => "Split",
            OpKind::Embedding => "Embedding",
            OpKind::LstmCell => "LstmCell",
            OpKind::Attention => "Attention",
            OpKind::Loss => "Loss",
            OpKind::EltwiseGrad => "EltwiseGrad",
            OpKind::AggregateGradients => "AggregateGradients",
            OpKind::ApplyGradient => "ApplyGradient",
            OpKind::Identity => "Identity",
        };
        f.write_str(s)
    }
}

/// The collective communication pattern an operation's *incoming* edges
/// should be lowered to, instead of independent point-to-point transfers.
///
/// Graph rewrites annotate nodes with a collective (e.g.
/// `ReplicationMode::AllReduce` marks its gradient-aggregation nodes); the
/// communication-plan lowering maps the annotation to the matching
/// [`CommStep`](https://docs.rs/fastt-sim) and the simulator executes it
/// over per-link channel timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Ring all-reduce over the producers' devices: every participant ends
    /// with the reduced tensor (`2(n−1)` phases of `bytes/n`).
    AllReduce,
    /// One root sends the same tensor to every participant.
    Broadcast,
    /// Ring reduce-scatter: each participant ends with one reduced shard
    /// (`n−1` phases of `bytes/n`).
    ReduceScatter,
    /// Ring all-gather: each participant ends with every shard
    /// (`n−1` phases of `bytes/n`).
    AllGather,
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollectiveKind::AllReduce => "all_reduce",
            CollectiveKind::Broadcast => "broadcast",
            CollectiveKind::ReduceScatter => "reduce_scatter",
            CollectiveKind::AllGather => "all_gather",
        };
        f.write_str(s)
    }
}

/// A node of the computation graph.
///
/// The fields are the exact inputs the FastT algorithms and the simulator
/// need: a stable `name` (cost models are keyed by name + device), the
/// [`OpKind`], the output tensor shape, the floating-point work, and the
/// resident parameter bytes (non-zero only for [`OpKind::Variable`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// Unique name within the graph, e.g. `"rep0/conv1_1"`.
    pub name: String,
    /// What the operation computes.
    pub kind: OpKind,
    /// Shape of the (single) output tensor.
    pub out_shape: TensorShape,
    /// Floating-point operations performed per execution.
    pub flops: u64,
    /// Bytes of trainable parameters resident on the op's device
    /// (non-zero only for `Variable` ops).
    pub param_bytes: u64,
    /// How this op's incoming edges are communicated: `None` for ordinary
    /// point-to-point transfers, `Some` for a collective pattern over the
    /// producers' devices.
    pub collective: Option<CollectiveKind>,
}

impl Operation {
    /// Creates an operation with no flops and no parameters.
    pub fn new(name: impl Into<String>, kind: OpKind, out_shape: impl Into<TensorShape>) -> Self {
        Operation {
            name: name.into(),
            kind,
            out_shape: out_shape.into(),
            flops: 0,
            param_bytes: 0,
            collective: None,
        }
    }

    /// Builder-style: sets the flop count.
    pub fn with_flops(mut self, flops: u64) -> Self {
        self.flops = flops;
        self
    }

    /// Builder-style: sets the resident parameter bytes.
    pub fn with_param_bytes(mut self, bytes: u64) -> Self {
        self.param_bytes = bytes;
        self
    }

    /// Builder-style: marks this op's incoming edges as a collective.
    pub fn with_collective(mut self, kind: CollectiveKind) -> Self {
        self.collective = Some(kind);
        self
    }

    /// Bytes of the output tensor.
    pub fn out_bytes(&self) -> u64 {
        self.out_shape.bytes()
    }

    /// Transient + resident memory attributed to this op when placed on a
    /// device: its output activation plus any resident parameters.
    pub fn mem_bytes(&self) -> u64 {
        self.out_bytes() + self.param_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_dims_per_kind() {
        assert_eq!(
            OpKind::Conv2D.split_dims(),
            &[SplitDim::Batch, SplitDim::Channel]
        );
        assert!(OpKind::BatchNorm.split_dims().is_empty());
        assert!(OpKind::Relu.split_dims().is_empty());
        assert_eq!(OpKind::Attention.split_dims(), &[SplitDim::Batch]);
    }

    #[test]
    fn compute_bound_classification() {
        assert!(OpKind::Conv2D.is_compute_bound());
        assert!(OpKind::MatMul.is_compute_bound());
        assert!(!OpKind::Relu.is_compute_bound());
        assert!(!OpKind::AggregateGradients.is_compute_bound());
    }

    #[test]
    fn operation_memory() {
        let op = Operation::new("w", OpKind::Variable, [64, 64]).with_param_bytes(64 * 64 * 4);
        assert_eq!(op.out_bytes(), 64 * 64 * 4);
        assert_eq!(op.mem_bytes(), 2 * 64 * 64 * 4);
    }

    #[test]
    fn builder_style() {
        let op = Operation::new("c", OpKind::Conv2D, [8, 8]).with_flops(1000);
        assert_eq!(op.flops, 1000);
        assert_eq!(op.param_bytes, 0);
    }

    #[test]
    fn display_impls() {
        assert_eq!(OpId(3).to_string(), "op#3");
        assert_eq!(OpKind::Conv2D.to_string(), "Conv2D");
        assert_eq!(SplitDim::Batch.to_string(), "batch");
    }
}
