//! The computation graph: a DAG of [`Operation`]s connected by tensor edges.

use crate::error::GraphError;
use crate::op::{OpId, Operation};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifier of an edge within one [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A directed tensor edge `src → dst` carrying `bytes` of data.
///
/// Edge byte counts drive the communication cost model: when `src` and `dst`
/// are placed on different devices, `bytes` must cross the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producer operation.
    pub src: OpId,
    /// Consumer operation.
    pub dst: OpId,
    /// Size of the transferred tensor in bytes.
    pub bytes: u64,
}

/// A DAG whose nodes are operations and whose edges are tensors
/// (Sec. 2.1 of the paper).
///
/// The graph is append-only: rewrites produce new graphs rather than mutating
/// in place, which keeps op ids stable for the lifetime of a strategy
/// computation.
///
/// Storage is a shared, copy-on-write handle: `clone()` bumps a reference
/// count, and the first mutation of a shared graph copies its data once
/// (so a clone never observes its siblings' later appends). The
/// [`structure_hash`](Graph::structure_hash) is computed once per distinct
/// graph and memoized; every mutator clears the memo.
///
/// # Examples
///
/// ```
/// use fastt_graph::{Graph, OpKind, Operation};
///
/// let mut g = Graph::new();
/// let x = g.add_op(Operation::new("x", OpKind::Input, [32, 8]))?;
/// let w = g.add_op(Operation::new("w", OpKind::Variable, [8, 4]).with_param_bytes(128))?;
/// let y = g.add_op(Operation::new("y", OpKind::MatMul, [32, 4]).with_flops(2 * 32 * 8 * 4))?;
/// g.connect(x, y)?;
/// g.connect(w, y)?;
/// assert_eq!(g.topo_order()?.len(), 3);
/// # Ok::<(), fastt_graph::GraphError>(())
/// ```
#[derive(Clone, Default)]
pub struct Graph {
    d: Arc<GraphData>,
}

/// The storage behind a [`Graph`] handle.
#[derive(Clone, Default)]
struct GraphData {
    ops: Vec<Operation>,
    edges: Vec<Edge>,
    in_edges: Vec<Vec<EdgeId>>,
    out_edges: Vec<Vec<EdgeId>>,
    names: HashMap<String, OpId>,
    /// Colocation groups: ops in the same group must share a device
    /// (e.g. a `Variable` and its `ApplyGradient`).
    groups: Vec<Vec<OpId>>,
    group_of: Vec<Option<u32>>,
    /// Memoized [`Graph::structure_hash`]; cleared by every mutation.
    hash: OnceLock<u64>,
}

// Graphs are shared across the portfolio's planner threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Graph>();
};

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = &*self.d;
        f.debug_struct("Graph")
            .field("ops", &d.ops)
            .field("edges", &d.edges)
            .field("in_edges", &d.in_edges)
            .field("out_edges", &d.out_edges)
            .field("names", &d.names)
            .field("groups", &d.groups)
            .field("group_of", &d.group_of)
            .finish()
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds an operation.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateName`] if an op with the same name
    /// already exists.
    pub fn add_op(&mut self, op: Operation) -> Result<OpId, GraphError> {
        if self.d.names.contains_key(&op.name) {
            return Err(GraphError::DuplicateName(op.name));
        }
        let d = self.data_mut();
        let id = OpId(d.ops.len() as u32);
        d.names.insert(op.name.clone(), id);
        d.ops.push(op);
        d.in_edges.push(Vec::new());
        d.out_edges.push(Vec::new());
        d.group_of.push(None);
        Ok(id)
    }

    /// Connects `src → dst`, carrying the full output tensor of `src`.
    ///
    /// # Errors
    ///
    /// Returns an error if either id is invalid or `src == dst`.
    pub fn connect(&mut self, src: OpId, dst: OpId) -> Result<EdgeId, GraphError> {
        let bytes = self.op(src).ok_or(GraphError::InvalidOp(src))?.out_bytes();
        self.connect_bytes(src, dst, bytes)
    }

    /// Connects `src → dst` with an explicit byte count (used by rewrites
    /// that partition tensors).
    ///
    /// # Errors
    ///
    /// Returns an error if either id is invalid or `src == dst`.
    pub fn connect_bytes(
        &mut self,
        src: OpId,
        dst: OpId,
        bytes: u64,
    ) -> Result<EdgeId, GraphError> {
        if src.index() >= self.op_count() {
            return Err(GraphError::InvalidOp(src));
        }
        if dst.index() >= self.op_count() {
            return Err(GraphError::InvalidOp(dst));
        }
        if src == dst {
            return Err(GraphError::SelfEdge(src));
        }
        let d = self.data_mut();
        let id = EdgeId(d.edges.len() as u32);
        d.edges.push(Edge { src, dst, bytes });
        d.out_edges[src.index()].push(id);
        d.in_edges[dst.index()].push(id);
        Ok(id)
    }

    /// Declares that all `ops` must be placed on the same device.
    ///
    /// Ops already in a group are merged into the new group.
    pub fn colocate(&mut self, ops: &[OpId]) {
        let d = self.data_mut();
        let gid = d.groups.len() as u32;
        let mut members = Vec::new();
        for &o in ops {
            match d.group_of[o.index()] {
                Some(old) => {
                    // merge the old group into the new one
                    let old_members = std::mem::take(&mut d.groups[old as usize]);
                    for m in old_members {
                        if !members.contains(&m) {
                            members.push(m);
                        }
                    }
                }
                None => {
                    if !members.contains(&o) {
                        members.push(o);
                    }
                }
            }
        }
        for &m in &members {
            d.group_of[m.index()] = Some(gid);
        }
        d.groups.push(members);
    }

    /// The one way to mutate a graph: unshares the storage (copying it
    /// once if another handle still points at it) and clears the
    /// structure-hash memo.
    fn data_mut(&mut self) -> &mut GraphData {
        let d = Arc::make_mut(&mut self.d);
        d.hash.take();
        d
    }

    /// Colocation group members for `op` (including `op` itself), or `None`
    /// if unconstrained.
    pub fn colocation_group(&self, op: OpId) -> Option<&[OpId]> {
        self.d.group_of[op.index()].map(|g| self.d.groups[g as usize].as_slice())
    }

    /// All non-empty colocation groups.
    pub fn colocation_groups(&self) -> impl Iterator<Item = &[OpId]> + '_ {
        self.d
            .groups
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| g.as_slice())
    }

    /// Number of operations.
    pub fn op_count(&self) -> usize {
        self.d.ops.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.d.edges.len()
    }

    /// The operation with id `id`, if it exists.
    pub fn op(&self, id: OpId) -> Option<&Operation> {
        self.d.ops.get(id.index())
    }

    /// The operation with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in this graph. Use [`Graph::op`] for a checked
    /// lookup.
    pub fn op_ref(&self, id: OpId) -> &Operation {
        &self.d.ops[id.index()]
    }

    /// Looks an operation up by name.
    pub fn by_name(&self, name: &str) -> Option<OpId> {
        self.d.names.get(name).copied()
    }

    /// The edge with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in this graph.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.d.edges[id.index()]
    }

    /// Iterates over all op ids in insertion order.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.d.ops.len() as u32).map(OpId)
    }

    /// Iterates over all ops with their ids.
    pub fn iter_ops(&self) -> impl Iterator<Item = (OpId, &Operation)> + '_ {
        self.d
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| (OpId(i as u32), op))
    }

    /// Iterates over all edges.
    pub fn iter_edges(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.d.edges.iter()
    }

    /// Incoming edges of `op`.
    pub fn in_edges(&self, op: OpId) -> impl Iterator<Item = &Edge> + '_ {
        self.d.in_edges[op.index()]
            .iter()
            .map(move |&e| &self.d.edges[e.index()])
    }

    /// Outgoing edges of `op`.
    pub fn out_edges(&self, op: OpId) -> impl Iterator<Item = &Edge> + '_ {
        self.d.out_edges[op.index()]
            .iter()
            .map(move |&e| &self.d.edges[e.index()])
    }

    /// Immediate predecessors of `op` (paper notation: `pred(o_i)`).
    pub fn preds(&self, op: OpId) -> impl Iterator<Item = OpId> + '_ {
        self.in_edges(op).map(|e| e.src)
    }

    /// Immediate successors of `op` (paper notation: `succ(o_i)`).
    pub fn succs(&self, op: OpId) -> impl Iterator<Item = OpId> + '_ {
        self.out_edges(op).map(|e| e.dst)
    }

    /// Ops with no incoming edges.
    pub fn entry_ops(&self) -> Vec<OpId> {
        self.op_ids()
            .filter(|o| self.d.in_edges[o.index()].is_empty())
            .collect()
    }

    /// Ops with no outgoing edges.
    pub fn exit_ops(&self) -> Vec<OpId> {
        self.op_ids()
            .filter(|o| self.d.out_edges[o.index()].is_empty())
            .collect()
    }

    /// A topological order of all ops (Kahn's algorithm).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] if the graph is not a DAG.
    pub fn topo_order(&self) -> Result<Vec<OpId>, GraphError> {
        let n = self.d.ops.len();
        let mut indeg = vec![0usize; n];
        for e in &self.d.edges {
            indeg[e.dst.index()] += 1;
        }
        let mut queue: Vec<OpId> = self.op_ids().filter(|o| indeg[o.index()] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let o = queue[head];
            head += 1;
            order.push(o);
            for &eid in &self.d.out_edges[o.index()] {
                let d = self.d.edges[eid.index()].dst;
                indeg[d.index()] -= 1;
                if indeg[d.index()] == 0 {
                    queue.push(d);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(GraphError::Cycle)
        }
    }

    /// Validates that the graph is a DAG and every colocation group is
    /// consistent.
    ///
    /// # Errors
    ///
    /// Returns the first structural problem found.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.topo_order()?;
        Ok(())
    }

    /// Total floating-point work per execution of the graph.
    pub fn total_flops(&self) -> u64 {
        self.d.ops.iter().map(|o| o.flops).sum()
    }

    /// Total trainable parameter bytes.
    pub fn total_param_bytes(&self) -> u64 {
        self.d.ops.iter().map(|o| o.param_bytes).sum()
    }

    /// Deterministic 64-bit hash of the graph *structure*: every operation
    /// (in id order — ids are append-only and stable) with its name, kind,
    /// output shape, flops and parameter bytes, every edge with its byte
    /// count, and every colocation group. Two graphs that the placement
    /// algorithms cannot distinguish hash identically; any rewrite
    /// (replication, splitting, survivor rebuild) changes the hash.
    ///
    /// Uses [`std::collections::hash_map::DefaultHasher`] with its default
    /// keys, so the value is stable across processes and runs — suitable as
    /// a plan-cache fingerprint component. Computed once per distinct graph:
    /// clones share the memo, and every mutation clears it.
    pub fn structure_hash(&self) -> u64 {
        *self.d.hash.get_or_init(|| self.compute_structure_hash())
    }

    fn compute_structure_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.op_count().hash(&mut h);
        for (id, op) in self.iter_ops() {
            id.index().hash(&mut h);
            op.name.hash(&mut h);
            op.kind.hash(&mut h);
            op.out_shape.hash(&mut h);
            op.flops.hash(&mut h);
            op.param_bytes.hash(&mut h);
            op.collective.hash(&mut h);
        }
        self.edge_count().hash(&mut h);
        for e in self.iter_edges() {
            e.src.index().hash(&mut h);
            e.dst.index().hash(&mut h);
            e.bytes.hash(&mut h);
        }
        for group in self.colocation_groups() {
            for op in group {
                op.index().hash(&mut h);
            }
            usize::MAX.hash(&mut h); // group separator
        }
        h.finish()
    }

    /// Summary statistics, for logging and experiment reports.
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            ops: self.op_count(),
            edges: self.edge_count(),
            total_flops: self.total_flops(),
            total_param_bytes: self.total_param_bytes(),
            entry_ops: self.entry_ops().len(),
            exit_ops: self.exit_ops().len(),
        }
    }
}

/// Summary statistics of a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of operations.
    pub ops: usize,
    /// Number of edges.
    pub edges: usize,
    /// Total floating point work.
    pub total_flops: u64,
    /// Total trainable parameter bytes.
    pub total_param_bytes: u64,
    /// Number of source ops.
    pub entry_ops: usize,
    /// Number of sink ops.
    pub exit_ops: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    fn diamond() -> (Graph, [OpId; 4]) {
        let mut g = Graph::new();
        let a = g.add_op(Operation::new("a", OpKind::Input, [4])).unwrap();
        let b = g.add_op(Operation::new("b", OpKind::Relu, [4])).unwrap();
        let c = g.add_op(Operation::new("c", OpKind::Relu, [4])).unwrap();
        let d = g.add_op(Operation::new("d", OpKind::Add, [4])).unwrap();
        g.connect(a, b).unwrap();
        g.connect(a, c).unwrap();
        g.connect(b, d).unwrap();
        g.connect(c, d).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = Graph::new();
        g.add_op(Operation::new("x", OpKind::Input, [1])).unwrap();
        let err = g
            .add_op(Operation::new("x", OpKind::Input, [1]))
            .unwrap_err();
        assert_eq!(err, GraphError::DuplicateName("x".into()));
    }

    #[test]
    fn self_edges_rejected() {
        let mut g = Graph::new();
        let a = g.add_op(Operation::new("a", OpKind::Input, [1])).unwrap();
        assert_eq!(g.connect(a, a).unwrap_err(), GraphError::SelfEdge(a));
    }

    #[test]
    fn invalid_ids_rejected() {
        let mut g = Graph::new();
        let a = g.add_op(Operation::new("a", OpKind::Input, [1])).unwrap();
        let bogus = OpId(99);
        assert_eq!(
            g.connect(a, bogus).unwrap_err(),
            GraphError::InvalidOp(bogus)
        );
        assert_eq!(
            g.connect(bogus, a).unwrap_err(),
            GraphError::InvalidOp(bogus)
        );
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, [a, b, c, d]) = diamond();
        let order = g.topo_order().unwrap();
        let pos = |o: OpId| order.iter().position(|&x| x == o).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(d));
        assert!(pos(c) < pos(d));
    }

    #[test]
    fn cycle_detected() {
        let mut g = Graph::new();
        let a = g.add_op(Operation::new("a", OpKind::Relu, [1])).unwrap();
        let b = g.add_op(Operation::new("b", OpKind::Relu, [1])).unwrap();
        g.connect(a, b).unwrap();
        g.connect(b, a).unwrap();
        assert_eq!(g.topo_order().unwrap_err(), GraphError::Cycle);
        assert!(g.validate().is_err());
    }

    #[test]
    fn entry_and_exit_ops() {
        let (g, [a, _, _, d]) = diamond();
        assert_eq!(g.entry_ops(), vec![a]);
        assert_eq!(g.exit_ops(), vec![d]);
    }

    #[test]
    fn preds_succs() {
        let (g, [a, b, c, d]) = diamond();
        let mut s: Vec<_> = g.succs(a).collect();
        s.sort();
        assert_eq!(s, vec![b, c]);
        let mut p: Vec<_> = g.preds(d).collect();
        p.sort();
        assert_eq!(p, vec![b, c]);
    }

    #[test]
    fn edge_bytes_default_to_src_output() {
        let mut g = Graph::new();
        let a = g.add_op(Operation::new("a", OpKind::Input, [8])).unwrap();
        let b = g.add_op(Operation::new("b", OpKind::Relu, [8])).unwrap();
        let e = g.connect(a, b).unwrap();
        assert_eq!(g.edge(e).bytes, 32);
    }

    #[test]
    fn colocation_groups_merge() {
        let (mut g, [a, b, c, d]) = diamond();
        g.colocate(&[a, b]);
        g.colocate(&[b, c, d]);
        let grp = g.colocation_group(a).unwrap();
        assert_eq!(grp.len(), 4);
        for o in [a, b, c, d] {
            assert!(g.colocation_group(o).unwrap().contains(&o));
        }
    }

    #[test]
    fn structure_hash_is_stable_and_sensitive() {
        let (g1, _) = diamond();
        let (g2, [a2, b2, ..]) = diamond();
        // identical construction → identical hash (and repeatable)
        assert_eq!(g1.structure_hash(), g2.structure_hash());
        assert_eq!(g1.structure_hash(), g1.structure_hash());

        // structural changes move the hash
        let mut extra = g2.clone();
        extra
            .add_op(Operation::new("tail", OpKind::Relu, [1]))
            .unwrap();
        assert_ne!(g1.structure_hash(), extra.structure_hash());
        let mut coloc = g2.clone();
        coloc.colocate(&[a2, b2]);
        assert_ne!(g1.structure_hash(), coloc.structure_hash());
    }

    #[test]
    fn stats_counts() {
        let (g, _) = diamond();
        let s = g.stats();
        assert_eq!(s.ops, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.entry_ops, 1);
        assert_eq!(s.exit_ops, 1);
    }

    #[test]
    fn by_name_lookup() {
        let (g, [a, ..]) = diamond();
        assert_eq!(g.by_name("a"), Some(a));
        assert_eq!(g.by_name("nope"), None);
    }
}
