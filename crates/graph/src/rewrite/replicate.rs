//! Data-parallel replication of a training graph.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::op::{CollectiveKind, OpId, OpKind, Operation};
use crate::shape::{TensorShape, BYTES_PER_ELEM};

/// How trainable state is handled across replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// TensorFlow-slim in-graph replication (the paper's DP baseline):
    /// a **single** copy of every variable and its optimizer update, read by
    /// all replicas each iteration (weight broadcast) and updated once from
    /// the aggregated gradients (gradient funnel-in). When replicas span
    /// multiple servers, per-server weight caches and local gradient
    /// aggregators keep cross-server traffic at one parameter copy per
    /// direction per iteration (standard replicated-training structure).
    ParameterServer,
    /// Mirrored variables: every replica owns a full copy of every variable;
    /// the aggregated gradient is broadcast back to every replica's update.
    /// (No per-server hierarchy; used by ablations.)
    Mirrored,
    /// Mirrored variables with **collective** gradient aggregation: the
    /// aggregation node is annotated [`CollectiveKind::AllReduce`], so the
    /// communication-plan lowering runs a ring all-reduce over the replicas'
    /// devices (`2(n−1)` phases of `bytes/n`) instead of funneling every
    /// gradient into one parameter server and broadcasting the result back.
    AllReduce,
}

/// What role an op of a replicated graph plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Belongs to one model replica.
    Replica(u32),
    /// Globally shared state: variables, updates, the global aggregation.
    Shared,
    /// Per-server helper shared by that server's replicas: a weight cache
    /// or a local gradient aggregator.
    ServerShared(u16),
}

/// A data-parallel training graph plus per-op replica metadata.
#[derive(Debug, Clone)]
pub struct ReplicatedGraph {
    /// The replicated graph (replica ops named `rep{k}/…`; shared variables
    /// and updates keep their original names; aggregation ops are `agg/…`,
    /// per-server helpers `srv{s}/…`).
    pub graph: Graph,
    /// Role of each op, indexed by `OpId`.
    pub roles: Vec<ReplicaRole>,
    /// Number of replicas.
    pub replicas: u32,
    /// Server group of each replica (all zero on a single server).
    pub groups: Vec<u16>,
    /// The mode the graph was built with.
    pub mode: ReplicationMode,
}

impl ReplicatedGraph {
    /// The replica an op belongs to (`None` for shared/per-server ops).
    pub fn replica_of(&self, op: OpId) -> Option<u32> {
        match self.roles[op.index()] {
            ReplicaRole::Replica(k) => Some(k),
            _ => None,
        }
    }

    /// Ops belonging to replica `k`.
    pub fn replica_ops(&self, k: u32) -> impl Iterator<Item = OpId> + '_ {
        self.roles
            .iter()
            .enumerate()
            .filter(move |(_, r)| **r == ReplicaRole::Replica(k))
            .map(|(i, _)| OpId(i as u32))
    }
}

/// Replicates with [`ReplicationMode::ParameterServer`] on a single server —
/// the paper's baseline and FastT's start strategy (Sec. 5.2).
///
/// # Errors
///
/// Returns an error if `training` is not a valid DAG.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn replicate(training: &Graph, n: u32) -> Result<ReplicatedGraph, GraphError> {
    replicate_grouped(
        training,
        &vec![0; n as usize],
        ReplicationMode::ParameterServer,
    )
}

/// Replicates with an explicit mode on a single server.
///
/// # Errors
///
/// Returns an error if `training` is not a valid DAG.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn replicate_with(
    training: &Graph,
    n: u32,
    mode: ReplicationMode,
) -> Result<ReplicatedGraph, GraphError> {
    replicate_grouped(training, &vec![0; n as usize], mode)
}

/// Replicates a training graph with one replica per entry of `groups`,
/// where `groups[k]` is the server hosting replica `k`.
///
/// Every non-shared op is copied per replica as `rep{k}/…`. For every
/// `ApplyGradient` op an `AggregateGradients` op sums the per-replica
/// gradients. Under [`ReplicationMode::ParameterServer`] variables and
/// updates stay shared; replicas on servers other than the variables' home
/// (server of `groups\[0\]`) read weights through a per-server cache
/// (`srv{s}/cache/…`) and aggregate gradients locally (`srv{s}/agg/…`)
/// before crossing the network once.
///
/// # Errors
///
/// Returns an error if `training` is not a valid DAG.
///
/// # Panics
///
/// Panics if `groups` is empty.
pub fn replicate_grouped(
    training: &Graph,
    groups: &[u16],
    mode: ReplicationMode,
) -> Result<ReplicatedGraph, GraphError> {
    assert!(!groups.is_empty(), "need at least one replica");
    let n = groups.len() as u32;
    training.validate()?;

    let ps_mode = mode == ReplicationMode::ParameterServer;
    let home = groups[0];
    let remote_servers: Vec<u16> = {
        let mut v: Vec<u16> = groups.iter().copied().filter(|&s| s != home).collect();
        v.sort_unstable();
        v.dedup();
        v
    };

    let shared = |op: &Operation| -> bool {
        ps_mode && matches!(op.kind, OpKind::Variable | OpKind::ApplyGradient)
    };

    let mut g = Graph::new();
    let mut roles = Vec::new();

    // Shared ops first (single copy, original names).
    let mut shared_id: Vec<Option<OpId>> = vec![None; training.op_count()];
    for (oid, op) in training.iter_ops() {
        if shared(op) {
            let nid = g.add_op(op.clone())?;
            shared_id[oid.index()] = Some(nid);
            roles.push(ReplicaRole::Shared);
        }
    }

    // Per-server weight caches for remote servers: one Identity per
    // (server, variable), fed once from the shared variable.
    // cache_id[server][var old index]
    let mut cache_id: std::collections::HashMap<(u16, usize), OpId> =
        std::collections::HashMap::new();
    if ps_mode && !remote_servers.is_empty() {
        for (vid, vop) in training.iter_ops() {
            if !vop.kind.is_variable() {
                continue;
            }
            for &s in &remote_servers {
                let cache = Operation::new(
                    format!("srv{s}/cache/{}", vop.name),
                    OpKind::Identity,
                    vop.out_shape.clone(),
                )
                .with_flops(vop.param_bytes / BYTES_PER_ELEM);
                let cid = g.add_op(cache)?;
                roles.push(ReplicaRole::ServerShared(s));
                g.connect_bytes(
                    shared_id[vid.index()].expect("var shared"),
                    cid,
                    vop.param_bytes,
                )?;
                cache_id.insert((s, vid.index()), cid);
            }
        }
    }

    // Per-replica copies of everything else.
    let mut id_map: Vec<Vec<OpId>> = Vec::with_capacity(n as usize);
    for (k, _) in groups.iter().enumerate() {
        let mut map_k = Vec::with_capacity(training.op_count());
        for (oid, op) in training.iter_ops() {
            if let Some(sid) = shared_id[oid.index()] {
                map_k.push(sid);
                continue;
            }
            let mut copy = op.clone();
            copy.name = format!("rep{k}/{}", op.name);
            let nid = g.add_op(copy)?;
            map_k.push(nid);
            roles.push(ReplicaRole::Replica(k as u32));
        }
        id_map.push(map_k);
    }

    // Copy edges. Gradient edges into ApplyGradient ops are replaced by the
    // aggregation path when n > 1; variable reads from remote servers go
    // through that server's cache.
    let mut done_shared_edges = std::collections::HashSet::new();
    for e in training.iter_edges() {
        let drop_for_agg = n > 1
            && training.op_ref(e.dst).kind == OpKind::ApplyGradient
            && !training.op_ref(e.src).kind.is_variable();
        if drop_for_agg {
            continue;
        }
        let both_shared = shared(training.op_ref(e.src)) && shared(training.op_ref(e.dst));
        if both_shared {
            if done_shared_edges.insert((e.src, e.dst)) {
                g.connect_bytes(id_map[0][e.src.index()], id_map[0][e.dst.index()], e.bytes)?;
            }
            continue;
        }
        let src_is_shared_var =
            shared(training.op_ref(e.src)) && training.op_ref(e.src).kind.is_variable();
        for (k, map_k) in id_map.iter().enumerate() {
            let src = if src_is_shared_var {
                // read through the server-local cache when one exists
                cache_id
                    .get(&(groups[k], e.src.index()))
                    .copied()
                    .unwrap_or(map_k[e.src.index()])
            } else {
                map_k[e.src.index()]
            };
            g.connect_bytes(src, map_k[e.dst.index()], e.bytes)?;
        }
    }

    // Copy colocation groups (shared members deduplicate naturally).
    for grp in training.colocation_groups() {
        for map_k in &id_map {
            let mut members: Vec<OpId> = Vec::new();
            for o in grp {
                let m = map_k[o.index()];
                if !members.contains(&m) {
                    members.push(m);
                }
            }
            if members.len() > 1 {
                g.colocate(&members);
            }
        }
    }

    // Insert aggregation ops: per-server local aggregators feeding one
    // global aggregator (the hierarchy collapses on a single server).
    if n > 1 {
        for (aid, aop) in training.iter_ops() {
            if aop.kind != OpKind::ApplyGradient {
                continue;
            }
            let grad_edges: Vec<(OpId, u64)> = training
                .in_edges(aid)
                .filter(|e| !training.op_ref(e.src).kind.is_variable())
                .map(|e| (e.src, e.bytes))
                .collect();
            if grad_edges.is_empty() {
                continue;
            }
            let grad_bytes: u64 = grad_edges.iter().map(|(_, b)| *b).max().unwrap_or(0);
            let elems = (grad_bytes / BYTES_PER_ELEM).max(1);

            let mut agg = Operation::new(
                format!("agg/{}", aop.name),
                OpKind::AggregateGradients,
                TensorShape::new([elems]),
            )
            .with_flops(elems * n as u64);
            if mode == ReplicationMode::AllReduce {
                agg = agg.with_collective(CollectiveKind::AllReduce);
            }
            let agg_id = g.add_op(agg)?;
            roles.push(ReplicaRole::Shared);

            // local aggregators for remote servers (PS mode only)
            let mut local_agg: std::collections::HashMap<u16, OpId> =
                std::collections::HashMap::new();
            if ps_mode {
                for &s in &remote_servers {
                    let members = groups.iter().filter(|&&x| x == s).count() as u64;
                    let la = Operation::new(
                        format!("srv{s}/agg/{}", aop.name),
                        OpKind::AggregateGradients,
                        TensorShape::new([elems]),
                    )
                    .with_flops(elems * members);
                    let lid = g.add_op(la)?;
                    roles.push(ReplicaRole::ServerShared(s));
                    g.connect_bytes(lid, agg_id, grad_bytes)?;
                    local_agg.insert(s, lid);
                }
            }

            for (k, map_k) in id_map.iter().enumerate() {
                let sink = local_agg.get(&groups[k]).copied().unwrap_or(agg_id);
                for &(src, bytes) in &grad_edges {
                    g.connect_bytes(map_k[src.index()], sink, bytes)?;
                }
            }

            match mode {
                ReplicationMode::ParameterServer => {
                    let apply = id_map[0][aid.index()];
                    g.connect_bytes(agg_id, apply, grad_bytes)?;
                    g.colocate(&[agg_id, apply]);
                }
                ReplicationMode::Mirrored | ReplicationMode::AllReduce => {
                    for map_k in &id_map {
                        g.connect_bytes(agg_id, map_k[aid.index()], grad_bytes)?;
                    }
                }
            }
        }
    }

    g.validate()?;
    Ok(ReplicatedGraph {
        graph: g,
        roles,
        replicas: n,
        groups: groups.to_vec(),
        mode,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autodiff::build_training_graph;

    fn tiny_training() -> Graph {
        let mut g = Graph::new();
        let x = g
            .add_op(Operation::new("x", OpKind::Input, [8, 4]))
            .unwrap();
        let w = g
            .add_op(Operation::new("w", OpKind::Variable, [4, 2]).with_param_bytes(32))
            .unwrap();
        let mm = g
            .add_op(Operation::new("mm", OpKind::MatMul, [8, 2]).with_flops(128))
            .unwrap();
        let loss = g.add_op(Operation::new("loss", OpKind::Loss, [])).unwrap();
        g.connect(x, mm).unwrap();
        g.connect(w, mm).unwrap();
        g.connect(mm, loss).unwrap();
        build_training_graph(&g).unwrap()
    }

    #[test]
    fn single_replica_has_no_aggregation() {
        let t = tiny_training();
        let r = replicate(&t, 1).unwrap();
        assert_eq!(r.graph.op_count(), t.op_count());
        assert!(r.graph.by_name("agg/apply/w").is_none());
        assert!(r.graph.by_name("rep0/mm").is_some());
    }

    #[test]
    fn ps_mode_keeps_single_variable_copy() {
        let t = tiny_training();
        let r = replicate(&t, 4).unwrap();
        assert!(r.graph.by_name("w").is_some());
        assert!(r.graph.by_name("apply/w").is_some());
        assert!(r.graph.by_name("rep0/w").is_none());
        assert!(r.graph.by_name("rep0/apply/w").is_none());
        let w = r.graph.by_name("w").unwrap();
        // 4 replica matmuls + the update read the variable
        assert_eq!(r.graph.succs(w).count(), 4 + 1);
    }

    #[test]
    fn ps_mode_funnels_gradients_once() {
        let t = tiny_training();
        let r = replicate(&t, 4).unwrap();
        let agg = r.graph.by_name("agg/apply/w").expect("aggregation op");
        assert_eq!(r.graph.preds(agg).count(), 4);
        assert_eq!(r.graph.succs(agg).count(), 1);
        assert_eq!(r.roles[agg.index()], ReplicaRole::Shared);
        let apply = r.graph.by_name("apply/w").unwrap();
        let grp = r.graph.colocation_group(agg).expect("colocated");
        assert!(grp.contains(&apply));
    }

    #[test]
    fn mirrored_mode_replicates_variables() {
        let t = tiny_training();
        let r = replicate_with(&t, 2, ReplicationMode::Mirrored).unwrap();
        assert!(r.graph.by_name("rep0/w").is_some());
        assert!(r.graph.by_name("rep1/w").is_some());
        let agg = r.graph.by_name("agg/apply/w").unwrap();
        assert_eq!(r.graph.succs(agg).count(), 2);
    }

    #[test]
    fn allreduce_mode_annotates_aggregation_as_collective() {
        let t = tiny_training();
        let r = replicate_with(&t, 4, ReplicationMode::AllReduce).unwrap();
        // mirrored-style state: every replica owns its variables and update
        assert!(r.graph.by_name("rep0/w").is_some());
        assert!(r.graph.by_name("rep3/apply/w").is_some());
        assert!(r.graph.by_name("w").is_none());
        // the aggregation node carries the collective annotation and fans
        // out to every replica's update
        let agg = r.graph.by_name("agg/apply/w").unwrap();
        assert_eq!(
            r.graph.op_ref(agg).collective,
            Some(CollectiveKind::AllReduce)
        );
        assert_eq!(r.graph.preds(agg).count(), 4);
        assert_eq!(r.graph.succs(agg).count(), 4);
        // PS and Mirrored graphs stay annotation-free
        let ps = replicate(&t, 4).unwrap();
        let ps_agg = ps.graph.by_name("agg/apply/w").unwrap();
        assert_eq!(ps.graph.op_ref(ps_agg).collective, None);
        // ...and the annotation is fingerprint-relevant
        let m = replicate_with(&t, 4, ReplicationMode::Mirrored).unwrap();
        assert_ne!(m.graph.structure_hash(), r.graph.structure_hash());
    }

    #[test]
    fn replica_metadata_is_consistent() {
        let t = tiny_training();
        let r = replicate(&t, 2).unwrap();
        assert_eq!(r.replicas, 2);
        let n0 = r.replica_ops(0).count();
        let n1 = r.replica_ops(1).count();
        assert_eq!(n0, n1);
        let shared = r.roles.iter().filter(|&&k| k == ReplicaRole::Shared);
        assert_eq!(shared.count(), 3); // variable + apply + agg
        assert_eq!(r.graph.op_count(), n0 + n1 + 3);
    }

    #[test]
    fn two_server_groups_get_caches_and_local_aggs() {
        let t = tiny_training();
        let r = replicate_grouped(&t, &[0, 0, 1, 1], ReplicationMode::ParameterServer).unwrap();
        // remote server 1 has a weight cache fed once from the variable
        let cache = r.graph.by_name("srv1/cache/w").expect("weight cache");
        assert_eq!(r.roles[cache.index()], ReplicaRole::ServerShared(1));
        let w = r.graph.by_name("w").unwrap();
        assert!(r.graph.succs(w).any(|s| s == cache));
        // server-1 replicas read the cache, not the variable
        let mm2 = r.graph.by_name("rep2/mm").unwrap();
        assert!(r.graph.preds(mm2).any(|p| p == cache));
        assert!(!r.graph.preds(mm2).any(|p| p == w));
        // home-server replicas read the variable directly
        let mm0 = r.graph.by_name("rep0/mm").unwrap();
        assert!(r.graph.preds(mm0).any(|p| p == w));
        // server-1 grads flow through the local aggregator
        let lagg = r.graph.by_name("srv1/agg/apply/w").expect("local agg");
        let agg = r.graph.by_name("agg/apply/w").unwrap();
        assert!(r.graph.succs(lagg).any(|s| s == agg));
        assert_eq!(r.graph.preds(lagg).count(), 2);
        // global agg: 2 home grads + 1 local agg
        assert_eq!(r.graph.preds(agg).count(), 3);
        r.graph.validate().unwrap();
    }

    #[test]
    fn single_server_groups_have_no_hierarchy() {
        let t = tiny_training();
        let r = replicate_grouped(&t, &[0, 0, 0], ReplicationMode::ParameterServer).unwrap();
        assert!(r.graph.by_name("srv0/cache/w").is_none());
        assert!(r.graph.by_name("srv0/agg/apply/w").is_none());
    }

    #[test]
    fn direct_grad_edges_removed_when_replicated() {
        let t = tiny_training();
        let r = replicate(&t, 2).unwrap();
        let apply = r.graph.by_name("apply/w").unwrap();
        let grad0 = r.graph.by_name("rep0/grad/mm").unwrap();
        assert!(!r.graph.preds(apply).any(|p| p == grad0));
        let agg = r.graph.by_name("agg/apply/w").unwrap();
        assert!(r.graph.preds(apply).any(|p| p == agg));
    }

    #[test]
    fn variable_apply_colocation_survives() {
        let t = tiny_training();
        let r = replicate(&t, 2).unwrap();
        let w = r.graph.by_name("w").unwrap();
        let a = r.graph.by_name("apply/w").unwrap();
        let grp = r.graph.colocation_group(w).expect("group");
        assert!(grp.contains(&a));
    }

    #[test]
    fn replicated_graph_is_valid_dag() {
        let t = tiny_training();
        for n in [1usize, 2, 3, 8] {
            for mode in [
                ReplicationMode::ParameterServer,
                ReplicationMode::Mirrored,
                ReplicationMode::AllReduce,
            ] {
                let groups: Vec<u16> = (0..n).map(|k| (k % 2) as u16).collect();
                let r = replicate_grouped(&t, &groups, mode).unwrap();
                r.graph.validate().unwrap();
            }
        }
    }

    #[test]
    fn aggregation_edge_bytes_match_param_bytes() {
        let t = tiny_training();
        let r = replicate(&t, 2).unwrap();
        let agg = r.graph.by_name("agg/apply/w").unwrap();
        for e in r.graph.in_edges(agg) {
            assert_eq!(e.bytes, 32);
        }
        for e in r.graph.out_edges(agg) {
            assert_eq!(e.bytes, 32);
        }
    }

    #[test]
    fn weight_broadcast_edges_carry_param_bytes() {
        let t = tiny_training();
        let r = replicate(&t, 2).unwrap();
        let w = r.graph.by_name("w").unwrap();
        let mm1 = r.graph.by_name("rep1/mm").unwrap();
        let e = r
            .graph
            .out_edges(w)
            .find(|e| e.dst == mm1)
            .expect("broadcast edge");
        assert_eq!(e.bytes, 32);
    }
}
