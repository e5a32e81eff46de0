//! Structural DAG decomposition: collapse a training graph into a tree of
//! regions so placement can run over the (much smaller) quotient graph.
//!
//! The reduction is in the style of a CFS/series-parallel contraction: we
//! iteratively apply a small grammar of provably acyclicity-preserving
//! contractions until a fixpoint —
//!
//! * **series**: contract an edge `u → v` when `v` has a single predecessor
//!   or `u` has a single successor (straight-line chains, the bulk of a
//!   layer's forward/backward body);
//! * **parallel**: merge regions with identical predecessor *and* successor
//!   sets (fan-out/fan-in diamonds: attention heads, tower branches);
//! * **endpoint absorption**: fold a source (e.g. a `Variable`) into one of
//!   its successors, or a sink (e.g. an `ApplyGradient`) into one of its
//!   predecessors, when it has at least two of them (one is the series
//!   rule's case) and a reachability check proves the contraction cannot
//!   create a cycle.
//!
//! Contracting an edge `(u, v)` of a DAG creates a cycle iff some other
//! path `u ⇝ v` of length ≥ 2 exists. The series rules exclude such a path
//! structurally (it would need a second predecessor of `v` / successor of
//! `u`); the parallel rule merges mutually non-adjacent twins with equal
//! frontiers; endpoint absorption verifies the condition directly with a
//! bounded DFS over the live quotient (one probe per source candidate, up
//! to k−1 per sink candidate with k predecessors, each visiting at most
//! [`DecomposeOptions::dfs_budget`] regions). A probe's answer is "`target`
//! is reachable, or more than `budget` regions are", a function of the live
//! quotient alone, and it marks visits in a reused epoch-stamped array, so
//! probing allocates nothing. Every pass iterates regions in ascending
//! minimum-op-id order, so the decomposition is deterministic.
//!
//! Region growth is capped ([`DecomposeOptions::max_region_ops`]) so the
//! result is a *partition* into mid-sized regions rather than one giant
//! region — the quotient stays meaningful for cross-region placement.
//!
//! Region hashes are **order-canonical and name-free**: a region hashes the
//! sorted multiset of its ops' structural signatures (kind, shape, flops,
//! parameter bytes, collective, internal degrees) plus its sorted internal
//! edges. Two isomorphic regions — repeated layers of a stacked model, twin
//! fleet jobs built in different insertion orders — hash identically even
//! though [`Graph::structure_hash`] (deliberately id-sensitive, see its
//! docs) does not.

use crate::graph::Graph;
use crate::op::OpId;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// Tuning knobs for [`decompose_with`].
#[derive(Debug, Clone, Copy)]
pub struct DecomposeOptions {
    /// Hard cap on ops per region; merges that would exceed it are skipped.
    pub max_region_ops: usize,
    /// Safety bound on collapse rounds (fixpoint normally arrives first).
    pub max_rounds: usize,
    /// Node budget for each endpoint-absorption reachability DFS; a probe
    /// that exhausts the budget conservatively reports "reachable" and the
    /// merge is skipped.
    pub dfs_budget: usize,
}

impl DecomposeOptions {
    /// Defaults scaled to the graph: aim for a quotient of roughly 32
    /// top-level regions, with regions between 16 and 1024 ops.
    pub fn for_graph(g: &Graph) -> Self {
        DecomposeOptions {
            max_region_ops: (g.op_count() / 32).clamp(16, 1024),
            max_rounds: 64,
            dfs_budget: 4096,
        }
    }
}

/// Identifier of a region within one [`RegionTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

impl RegionId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a region was formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// A single op nothing could absorb — a residual, irreducible region.
    Leaf,
    /// Built from series contractions only (a straight-line chain).
    Chain,
    /// Built from parallel merges only (a fan-out/fan-in bundle).
    Bundle,
    /// Built from both series and parallel steps (a reduced composite).
    Mixed,
}

/// One region of the decomposition: a connected-by-construction set of ops
/// that the hierarchical planner treats as a unit.
#[derive(Debug, Clone)]
pub struct Region {
    /// How the region was formed.
    pub kind: RegionKind,
    /// Member ops, ascending by id.
    pub ops: Vec<OpId>,
    /// Order-canonical, name-free hash of the region's internal structure.
    /// Isomorphic regions (repeated layers, twin jobs) hash identically.
    pub hash: u64,
}

impl Region {
    /// Number of ops in the region.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the region is empty (never true for a built tree).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The result of decomposing a graph: a partition of its ops into regions,
/// plus the quotient graph those regions induce.
#[derive(Debug, Clone)]
pub struct RegionTree {
    regions: Vec<Region>,
    op_region: Vec<u32>,
    /// Aggregated region-level edges `(src, dst, total bytes)`, sorted.
    quotient_edges: Vec<(RegionId, RegionId, u64)>,
    /// Op-level edges that cross a region boundary `(src, dst, bytes)`.
    boundary: Vec<(OpId, OpId, u64)>,
    rounds: usize,
    canonical: u64,
}

impl RegionTree {
    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the tree has no regions (only for an empty graph).
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Total ops across all regions (equals the source graph's op count).
    pub fn op_count(&self) -> usize {
        self.op_region.len()
    }

    /// The region containing `op`.
    pub fn region_of(&self, op: OpId) -> RegionId {
        RegionId(self.op_region[op.index()])
    }

    /// A region by id.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// All regions, in id order (ascending minimum member op id).
    pub fn regions(&self) -> impl Iterator<Item = (RegionId, &Region)> + '_ {
        self.regions
            .iter()
            .enumerate()
            .map(|(i, r)| (RegionId(i as u32), r))
    }

    /// Member ops of a region, ascending.
    pub fn ops(&self, id: RegionId) -> &[OpId] {
        &self.regions[id.index()].ops
    }

    /// Aggregated region-level edges `(src, dst, total bytes)`, sorted by
    /// `(src, dst)`. The quotient graph these edges induce is acyclic.
    pub fn quotient_edges(&self) -> &[(RegionId, RegionId, u64)] {
        &self.quotient_edges
    }

    /// Op-level edges crossing a region boundary, in source-graph order.
    pub fn boundary_edges(&self) -> &[(OpId, OpId, u64)] {
        &self.boundary
    }

    /// Residual, irreducible regions: singleton ops nothing could absorb.
    pub fn residual_regions(&self) -> Vec<RegionId> {
        self.regions()
            .filter(|(_, r)| r.kind == RegionKind::Leaf)
            .map(|(id, _)| id)
            .collect()
    }

    /// Collapse rounds run before the fixpoint (or round cap) was reached.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Order-canonical hash of the whole decomposition: the sorted multiset
    /// of region hashes plus the quotient edges expressed over them. Folded
    /// into plan-cache fingerprints by region-aware planners.
    pub fn canonical_hash(&self) -> u64 {
        self.canonical
    }
}

/// Decomposes `g` with [`DecomposeOptions::for_graph`] defaults.
pub fn decompose(g: &Graph) -> RegionTree {
    decompose_with(g, DecomposeOptions::for_graph(g))
}

const CHAIN_BIT: u8 = 1;
const BUNDLE_BIT: u8 = 2;

/// Union-find over ops with live quotient adjacency, the working state of
/// the contraction loop.
struct Builder {
    parent: Vec<u32>,
    size: Vec<u32>,
    bits: Vec<u8>,
    preds: Vec<BTreeSet<u32>>,
    succs: Vec<BTreeSet<u32>>,
    cap: usize,
    /// Reachability-probe scratch: `stamp[x] == epoch` marks `x` as seen by
    /// the current probe, so a probe starts by bumping `epoch` instead of
    /// clearing a set.
    stamp: Vec<u32>,
    epoch: u32,
    /// The probe's DFS stack, reused across probes.
    stack: Vec<u32>,
}

impl Builder {
    /// One singleton region per op of `g`, with its edges as adjacency.
    fn new(g: &Graph, cap: usize) -> Self {
        let n = g.op_count();
        let mut b = Builder {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            bits: vec![0; n],
            preds: vec![BTreeSet::new(); n],
            succs: vec![BTreeSet::new(); n],
            cap: cap.max(1),
            stamp: vec![0; n],
            epoch: 0,
            stack: Vec::new(),
        };
        for e in g.iter_edges() {
            let (s, d) = (e.src.index() as u32, e.dst.index() as u32);
            if s != d {
                b.succs[s as usize].insert(d);
                b.preds[d as usize].insert(s);
            }
        }
        b
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let p = self.parent[x as usize];
            self.parent[x as usize] = self.parent[p as usize];
            x = self.parent[x as usize];
        }
        x
    }

    fn reps(&self) -> Vec<u32> {
        (0..self.parent.len() as u32)
            .filter(|&i| self.parent[i as usize] == i)
            .collect()
    }

    fn fits(&self, a: u32, b: u32) -> bool {
        (self.size[a as usize] + self.size[b as usize]) as usize <= self.cap
    }

    /// Merges representative regions `a` and `b`; the smaller op id stays
    /// the representative (which keeps iteration order deterministic).
    fn merge(&mut self, a: u32, b: u32, bit: u8) {
        debug_assert!(a != b);
        let (r, o) = if a < b { (a, b) } else { (b, a) };
        self.parent[o as usize] = r;
        self.size[r as usize] += self.size[o as usize];
        self.bits[r as usize] |= self.bits[o as usize] | bit;
        let op = std::mem::take(&mut self.preds[o as usize]);
        let os = std::mem::take(&mut self.succs[o as usize]);
        self.preds[r as usize].remove(&o);
        self.succs[r as usize].remove(&o);
        for p in op {
            if p == r {
                continue;
            }
            self.succs[p as usize].remove(&o);
            self.succs[p as usize].insert(r);
            self.preds[r as usize].insert(p);
        }
        for s in os {
            if s == r {
                continue;
            }
            self.preds[s as usize].remove(&o);
            self.preds[s as usize].insert(r);
            self.succs[r as usize].insert(s);
        }
        self.preds[r as usize].remove(&r);
        self.succs[r as usize].remove(&r);
    }

    /// Series pass: contract single-pred / single-succ edges.
    fn series_pass(&mut self) -> bool {
        let mut changed = false;
        for v in self.reps() {
            if self.parent[v as usize] != v {
                continue; // merged earlier this pass
            }
            if self.preds[v as usize].len() == 1 {
                let p = *self.preds[v as usize].iter().next().unwrap();
                if self.fits(p, v) {
                    self.merge(p, v, CHAIN_BIT);
                    changed = true;
                    continue;
                }
            }
            if self.succs[v as usize].len() == 1 {
                let s = *self.succs[v as usize].iter().next().unwrap();
                if self.fits(v, s) {
                    self.merge(v, s, CHAIN_BIT);
                    changed = true;
                }
            }
        }
        changed
    }

    /// Parallel pass: merge regions with identical pred and succ sets.
    /// Members of a group are mutually non-adjacent (a member adjacent to
    /// another would appear in its own frontier), and intra-pass merges
    /// rewrite every group key by the same substitution, so grouping
    /// computed at pass start stays valid.
    fn bundle_pass(&mut self) -> bool {
        let mut groups: BTreeMap<(Vec<u32>, Vec<u32>), Vec<u32>> = BTreeMap::new();
        for r in self.reps() {
            let key = (
                self.preds[r as usize].iter().copied().collect::<Vec<_>>(),
                self.succs[r as usize].iter().copied().collect::<Vec<_>>(),
            );
            groups.entry(key).or_default().push(r);
        }
        let mut changed = false;
        for ((preds, succs), members) in groups {
            if members.len() < 2 || (preds.is_empty() && succs.is_empty()) {
                continue;
            }
            let mut base = members[0];
            for &m in &members[1..] {
                if self.fits(base, m) {
                    self.merge(base, m, BUNDLE_BIT);
                    // base has the smaller id, so it stays the rep.
                    changed = true;
                } else {
                    base = m;
                }
            }
        }
        changed
    }

    /// Bounded multi-source DFS on the live quotient: does any of `from`
    /// reach `target`? Exhausting the budget reports `true` (pessimistic).
    ///
    /// Successors are pushed in ascending order, "seen" is tested both
    /// before a push and at a pop, and only newly seen nodes count against
    /// the budget, so the nodes visited — and hence every answer, budget
    /// exhaustion included — depend only on the live quotient. The seen set
    /// is the stamp array under a fresh epoch; no probe allocates.
    fn reaches(&mut self, from: &[u32], target: u32, budget: usize) -> bool {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale stamps could equal the new epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        self.stack.clear();
        self.stack.extend_from_slice(from);
        let mut visited = 0usize;
        while let Some(x) = self.stack.pop() {
            if x == target {
                return true;
            }
            if self.stamp[x as usize] == epoch {
                continue;
            }
            self.stamp[x as usize] = epoch;
            visited += 1;
            if visited > budget {
                return true;
            }
            for &s in &self.succs[x as usize] {
                if self.stamp[s as usize] != epoch {
                    self.stack.push(s);
                }
            }
        }
        false
    }

    /// The `BTreeSet` probe [`Builder::reaches`] replaced, kept as its
    /// reference: the answer plus the set of nodes the probe marked seen.
    #[cfg(test)]
    fn reaches_reference(&self, from: &[u32], target: u32, budget: usize) -> (bool, BTreeSet<u32>) {
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        let mut stack: Vec<u32> = from.to_vec();
        let mut visited = 0usize;
        while let Some(x) = stack.pop() {
            if x == target {
                return (true, seen);
            }
            if !seen.insert(x) {
                continue;
            }
            visited += 1;
            if visited > budget {
                return (true, seen);
            }
            for &s in &self.succs[x as usize] {
                if !seen.contains(&s) {
                    stack.push(s);
                }
            }
        }
        (false, seen)
    }

    /// Endpoint pass: absorb sources into a successor (and sinks into a
    /// predecessor) when a live reachability probe proves the contraction
    /// acyclic — no other successor of the source may reach the chosen
    /// target (symmetrically for sinks).
    fn endpoint_pass(&mut self, budget: usize) -> bool {
        let mut changed = false;
        // Reused across regions and candidates. Both stay ascending (the
        // frontier is copied out of an ordered adjacency set), so probes
        // run in the order the decomposition's determinism depends on.
        let mut frontier: Vec<u32> = Vec::new();
        let mut others: Vec<u32> = Vec::new();
        for r in self.reps() {
            if self.parent[r as usize] != r {
                continue;
            }
            let is_source = if self.preds[r as usize].is_empty() {
                frontier.clear();
                frontier.extend(&self.succs[r as usize]);
                true
            } else if self.succs[r as usize].is_empty() {
                frontier.clear();
                frontier.extend(&self.preds[r as usize]);
                false
            } else {
                continue;
            };
            if frontier.len() <= 1 {
                continue; // isolated, or the series pass owns this case
            }
            for &cand in &frontier {
                if !self.fits(r, cand) {
                    continue;
                }
                let safe = if is_source {
                    others.clear();
                    others.extend(frontier.iter().filter(|&&x| x != cand));
                    !self.reaches(&others, cand, budget)
                } else {
                    !frontier
                        .iter()
                        .any(|&t| t != cand && self.reaches(&[cand], t, budget))
                };
                if safe {
                    self.merge(r, cand, CHAIN_BIT);
                    changed = true;
                    break;
                }
            }
        }
        changed
    }
}

/// Decomposes `g` into a [`RegionTree`] under explicit options.
///
/// The result is deterministic for a given graph and options: every pass
/// iterates in ascending region-representative order and all working sets
/// are ordered.
pub fn decompose_with(g: &Graph, opts: DecomposeOptions) -> RegionTree {
    let n = g.op_count();
    let mut b = Builder::new(g, opts.max_region_ops);

    let mut rounds = 0usize;
    while rounds < opts.max_rounds {
        rounds += 1;
        let mut changed = b.series_pass();
        changed |= b.bundle_pass();
        changed |= b.endpoint_pass(opts.dfs_budget);
        if !changed {
            break;
        }
    }

    // Compact representatives into dense region ids (ascending min op id).
    let reps = b.reps();
    let mut region_index: BTreeMap<u32, u32> = BTreeMap::new();
    for (i, &r) in reps.iter().enumerate() {
        region_index.insert(r, i as u32);
    }
    let mut op_region = vec![0u32; n];
    let mut ops_per: Vec<Vec<OpId>> = vec![Vec::new(); reps.len()];
    for i in 0..n as u32 {
        let r = b.find(i);
        let idx = region_index[&r];
        op_region[i as usize] = idx;
        ops_per[idx as usize].push(OpId(i));
    }

    // Internal degrees (per op, counting only same-region edges) feed the
    // op signatures; quotient and boundary edges fall out of the same scan.
    let mut int_in = vec![0u32; n];
    let mut int_out = vec![0u32; n];
    let mut internal_edges: Vec<Vec<(usize, usize, u64)>> = vec![Vec::new(); reps.len()];
    let mut quotient: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut boundary: Vec<(OpId, OpId, u64)> = Vec::new();
    for e in g.iter_edges() {
        let (rs, rd) = (op_region[e.src.index()], op_region[e.dst.index()]);
        if rs == rd {
            int_in[e.dst.index()] += 1;
            int_out[e.src.index()] += 1;
            internal_edges[rs as usize].push((e.src.index(), e.dst.index(), e.bytes));
        } else {
            *quotient.entry((rs, rd)).or_insert(0) += e.bytes;
            boundary.push((e.src, e.dst, e.bytes));
        }
    }

    let mut regions = Vec::with_capacity(reps.len());
    for (idx, (rep, ops)) in reps.iter().zip(ops_per).enumerate() {
        let kind = match (
            b.bits[*rep as usize] & CHAIN_BIT,
            b.bits[*rep as usize] & BUNDLE_BIT,
        ) {
            (0, 0) => RegionKind::Leaf,
            (_, 0) => RegionKind::Chain,
            (0, _) => RegionKind::Bundle,
            _ => RegionKind::Mixed,
        };
        let hash = region_hash(g, &ops, &internal_edges[idx], &int_in, &int_out);
        regions.push(Region { kind, ops, hash });
    }

    let quotient_edges: Vec<(RegionId, RegionId, u64)> = quotient
        .into_iter()
        .map(|((s, d), bytes)| (RegionId(s), RegionId(d), bytes))
        .collect();

    let canonical = canonical_hash(&regions, &quotient_edges, n);

    RegionTree {
        regions,
        op_region,
        quotient_edges,
        boundary,
        rounds,
        canonical,
    }
}

/// Name- and id-free structural signature of one op inside its region.
fn op_sig(g: &Graph, op: OpId, int_in: &[u32], int_out: &[u32]) -> u64 {
    let o = g.op_ref(op);
    let mut h = std::collections::hash_map::DefaultHasher::new();
    o.kind.hash(&mut h);
    o.out_shape.hash(&mut h);
    o.flops.hash(&mut h);
    o.param_bytes.hash(&mut h);
    o.collective.hash(&mut h);
    int_in[op.index()].hash(&mut h);
    int_out[op.index()].hash(&mut h);
    h.finish()
}

/// Order-canonical region hash: sorted op signatures plus sorted internal
/// edges expressed over those signatures. Internal-only on purpose, so
/// repeated layers hash identically regardless of what they connect to.
fn region_hash(
    g: &Graph,
    ops: &[OpId],
    internal: &[(usize, usize, u64)],
    int_in: &[u32],
    int_out: &[u32],
) -> u64 {
    let mut sig_of: BTreeMap<usize, u64> = BTreeMap::new();
    let mut sigs: Vec<u64> = ops
        .iter()
        .map(|&op| {
            let s = op_sig(g, op, int_in, int_out);
            sig_of.insert(op.index(), s);
            s
        })
        .collect();
    sigs.sort_unstable();
    let mut edges: Vec<(u64, u64, u64)> = internal
        .iter()
        .map(|&(s, d, bytes)| (sig_of[&s], sig_of[&d], bytes))
        .collect();
    edges.sort_unstable();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ops.len().hash(&mut h);
    for s in sigs {
        s.hash(&mut h);
    }
    edges.len().hash(&mut h);
    for e in edges {
        e.hash(&mut h);
    }
    h.finish()
}

/// Whole-tree canonical hash: sorted region-hash multiset plus the quotient
/// edges rewritten over region hashes.
fn canonical_hash(regions: &[Region], quotient: &[(RegionId, RegionId, u64)], ops: usize) -> u64 {
    let mut rh: Vec<u64> = regions.iter().map(|r| r.hash).collect();
    rh.sort_unstable();
    let mut qe: Vec<(u64, u64, u64)> = quotient
        .iter()
        .map(|&(s, d, bytes)| (regions[s.index()].hash, regions[d.index()].hash, bytes))
        .collect();
    qe.sort_unstable();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ops.hash(&mut h);
    rh.len().hash(&mut h);
    for x in rh {
        x.hash(&mut h);
    }
    for e in qe {
        e.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{OpKind, Operation};

    fn chain(n: usize) -> Graph {
        let mut g = Graph::new();
        let mut prev = None;
        for i in 0..n {
            let id = g
                .add_op(Operation::new(format!("op{i}"), OpKind::Relu, [4, 4]).with_flops(16))
                .unwrap();
            if let Some(p) = prev {
                g.connect_bytes(p, id, 64).unwrap();
            }
            prev = Some(id);
        }
        g
    }

    fn diamond(names: [&str; 4]) -> Graph {
        let mut g = Graph::new();
        let a = g
            .add_op(Operation::new(names[0], OpKind::Input, [4, 4]))
            .unwrap();
        let b = g
            .add_op(Operation::new(names[1], OpKind::Relu, [4, 4]).with_flops(16))
            .unwrap();
        let c = g
            .add_op(Operation::new(names[2], OpKind::Relu, [4, 4]).with_flops(16))
            .unwrap();
        let d = g
            .add_op(Operation::new(names[3], OpKind::Add, [4, 4]).with_flops(16))
            .unwrap();
        g.connect_bytes(a, b, 64).unwrap();
        g.connect_bytes(a, c, 64).unwrap();
        g.connect_bytes(b, d, 64).unwrap();
        g.connect_bytes(c, d, 64).unwrap();
        g
    }

    fn quotient_is_acyclic(t: &RegionTree) -> bool {
        let n = t.len();
        let mut indeg = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(s, d, _) in t.quotient_edges() {
            indeg[d.index()] += 1;
            succs[s.index()].push(d.index());
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(x) = ready.pop() {
            seen += 1;
            for &s in &succs[x] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        seen == n
    }

    #[test]
    fn straight_chain_collapses_to_one_region() {
        let g = chain(16); // for_graph caps tiny graphs at 16 ops/region
        let t = decompose(&g);
        assert_eq!(t.len(), 1);
        assert_eq!(t.region(RegionId(0)).kind, RegionKind::Chain);
        assert_eq!(t.op_count(), 16);
        assert!(t.quotient_edges().is_empty());
        assert!(t.boundary_edges().is_empty());
    }

    #[test]
    fn diamond_collapses_fully() {
        let g = diamond(["a", "b", "c", "d"]);
        let t = decompose(&g);
        assert_eq!(t.len(), 1, "diamond should reduce to one region");
        assert!(quotient_is_acyclic(&t));
    }

    #[test]
    fn partition_covers_every_op_exactly_once() {
        let g = diamond(["a", "b", "c", "d"]);
        let t = decompose_with(
            &g,
            DecomposeOptions {
                max_region_ops: 2,
                max_rounds: 64,
                dfs_budget: 4096,
            },
        );
        let total: usize = t.regions().map(|(_, r)| r.len()).sum();
        assert_eq!(total, g.op_count());
        let mut seen = BTreeSet::new();
        for (_, r) in t.regions() {
            for &op in &r.ops {
                assert!(seen.insert(op), "op {op:?} in two regions");
            }
        }
        for (id, _) in g.iter_ops() {
            assert!(seen.contains(&id));
            let r = t.region_of(id);
            assert!(t.ops(r).contains(&id));
        }
        // Boundary + internal edges together cover the whole edge set.
        let internal: usize = g
            .iter_edges()
            .filter(|e| t.region_of(e.src) == t.region_of(e.dst))
            .count();
        assert_eq!(internal + t.boundary_edges().len(), g.edge_count());
        assert!(quotient_is_acyclic(&t));
    }

    #[test]
    fn cap_is_respected() {
        let g = chain(32);
        let t = decompose_with(
            &g,
            DecomposeOptions {
                max_region_ops: 5,
                max_rounds: 64,
                dfs_budget: 4096,
            },
        );
        assert!(t.len() > 1);
        for (_, r) in t.regions() {
            assert!(r.len() <= 5, "region of {} ops exceeds cap", r.len());
        }
        assert!(quotient_is_acyclic(&t));
    }

    #[test]
    fn decomposition_is_deterministic() {
        let g = diamond(["a", "b", "c", "d"]);
        let t1 = decompose(&g);
        let t2 = decompose(&g);
        assert_eq!(t1.canonical_hash(), t2.canonical_hash());
        for ((_, r1), (_, r2)) in t1.regions().zip(t2.regions()) {
            assert_eq!(r1.ops, r2.ops);
            assert_eq!(r1.hash, r2.hash);
        }
        assert_eq!(t1.rounds(), t2.rounds());
    }

    /// Pinned: region hashes are order-canonical — the same diamond built
    /// with its parallel arms inserted in opposite orders (so op ids and
    /// `structure_hash` differ) decomposes to the same canonical hash.
    #[test]
    fn permuted_insertion_orders_share_canonical_hashes() {
        let mut g1 = Graph::new();
        let a = g1
            .add_op(Operation::new("a", OpKind::Input, [4, 4]))
            .unwrap();
        let b = g1
            .add_op(Operation::new("b", OpKind::Relu, [4, 4]).with_flops(16))
            .unwrap();
        let c = g1
            .add_op(Operation::new("c", OpKind::Softmax, [4, 4]).with_flops(32))
            .unwrap();
        let d = g1
            .add_op(Operation::new("d", OpKind::Add, [4, 4]).with_flops(16))
            .unwrap();
        g1.connect_bytes(a, b, 64).unwrap();
        g1.connect_bytes(a, c, 64).unwrap();
        g1.connect_bytes(b, d, 64).unwrap();
        g1.connect_bytes(c, d, 64).unwrap();

        // Same shape, arms inserted in the other order and renamed.
        let mut g2 = Graph::new();
        let a2 = g2
            .add_op(Operation::new("x", OpKind::Input, [4, 4]))
            .unwrap();
        let c2 = g2
            .add_op(Operation::new("y", OpKind::Softmax, [4, 4]).with_flops(32))
            .unwrap();
        let b2 = g2
            .add_op(Operation::new("z", OpKind::Relu, [4, 4]).with_flops(16))
            .unwrap();
        let d2 = g2
            .add_op(Operation::new("w", OpKind::Add, [4, 4]).with_flops(16))
            .unwrap();
        g2.connect_bytes(a2, b2, 64).unwrap();
        g2.connect_bytes(b2, d2, 64).unwrap();
        g2.connect_bytes(a2, c2, 64).unwrap();
        g2.connect_bytes(c2, d2, 64).unwrap();

        assert_ne!(
            g1.structure_hash(),
            g2.structure_hash(),
            "structure_hash is id-sensitive by design"
        );
        let t1 = decompose(&g1);
        let t2 = decompose(&g2);
        assert_eq!(t1.canonical_hash(), t2.canonical_hash());
    }

    /// Repeated identical blocks produce identical region hashes even with
    /// distinct op names — the property region-granular caching rides on.
    #[test]
    fn repeated_blocks_share_region_hashes() {
        let mut g = Graph::new();
        let mut prev = None;
        for blk in 0..3 {
            for i in 0..4 {
                let id = g
                    .add_op(
                        Operation::new(format!("blk{blk}/op{i}"), OpKind::Relu, [8, 8])
                            .with_flops(64),
                    )
                    .unwrap();
                if let Some(p) = prev {
                    g.connect_bytes(p, id, 256).unwrap();
                }
                prev = Some(id);
            }
        }
        let t = decompose_with(
            &g,
            DecomposeOptions {
                max_region_ops: 4,
                max_rounds: 64,
                dfs_budget: 4096,
            },
        );
        let hashes: Vec<u64> = t.regions().map(|(_, r)| r.hash).collect();
        assert!(hashes.len() >= 3);
        let distinct: BTreeSet<u64> = hashes.iter().copied().collect();
        assert!(
            distinct.len() < hashes.len(),
            "repeated blocks must share at least one region hash: {hashes:?}"
        );
    }

    /// SplitMix64: a tiny seeded generator, so the tests need no crate.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A seeded random DAG: a core where each op follows its predecessor
    /// about half the time and draws up to three more inputs from earlier
    /// ops (fan-out and fan-in), then extra sources wired into the core
    /// (source-heavy seeds) and extra sinks fed from it (sink-heavy seeds).
    fn random_dag(seed: u64) -> Graph {
        let mut rng = SplitMix64(seed);
        let core = 16 + rng.below(64) as usize;
        let (sources, sinks) = match seed % 3 {
            0 => (rng.below(4), rng.below(4)),
            1 => (8 + rng.below(24), rng.below(4)),
            _ => (rng.below(4), 8 + rng.below(24)),
        };
        let mut g = Graph::new();
        let op = |g: &mut Graph, name: String, flops: u64| {
            g.add_op(Operation::new(name, OpKind::Relu, [4, 4]).with_flops(flops))
                .unwrap()
        };
        let wire = |g: &mut Graph, rng: &mut SplitMix64, s: OpId, d: OpId| {
            if g.out_edges(s).all(|e| e.dst != d) {
                g.connect_bytes(s, d, 64 * (1 + rng.below(4))).unwrap();
            }
        };
        let mut ids: Vec<OpId> = Vec::new();
        for i in 0..core {
            let id = op(&mut g, format!("core{i}"), 16 * (1 + rng.below(3)));
            if i > 0 {
                if rng.below(2) == 0 {
                    wire(&mut g, &mut rng, ids[i - 1], id);
                }
                for _ in 0..rng.below(4) {
                    let p = ids[rng.below(i as u64) as usize];
                    wire(&mut g, &mut rng, p, id);
                }
            }
            ids.push(id);
        }
        for i in 0..sources {
            let id = op(&mut g, format!("src{i}"), 8);
            for _ in 0..1 + rng.below(4) {
                let d = ids[rng.below(core as u64) as usize];
                wire(&mut g, &mut rng, id, d);
            }
        }
        for i in 0..sinks {
            let id = op(&mut g, format!("sink{i}"), 8);
            for _ in 0..1 + rng.below(4) {
                let s = ids[rng.below(core as u64) as usize];
                wire(&mut g, &mut rng, s, id);
            }
        }
        g
    }

    /// FNV-1a over a tree: canonical hash, rounds, each region's ops and
    /// hash, then the quotient edges.
    fn tree_fnv(h: &mut u64, t: &RegionTree) {
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(t.canonical_hash());
        mix(t.rounds() as u64);
        for (_, r) in t.regions() {
            mix(r.ops.len() as u64);
            for op in &r.ops {
                mix(op.index() as u64);
            }
            mix(r.hash);
        }
        for &(s, d, bytes) in t.quotient_edges() {
            mix(s.0 as u64);
            mix(d.0 as u64);
            mix(bytes);
        }
    }

    /// The stamped probe answers exactly as the `BTreeSet` reference and
    /// marks exactly the nodes the reference's set holds (the same DFS
    /// path), on partly contracted random DAGs, for multi-source queries at
    /// budgets small enough that exhaustion decides many answers — and
    /// across an epoch wrap, which must clear stale stamps.
    #[test]
    fn stamped_reaches_matches_reference() {
        const BUDGETS: [usize; 5] = [4096, 8, 2, 1, 0];
        let (mut reachable, mut unreachable, mut budget_bound) = (0, 0, 0);
        for seed in 0..96 {
            let g = random_dag(seed);
            let mut rng = SplitMix64(seed ^ 0x5eed);
            let mut b = Builder::new(&g, 4 + rng.below(13) as usize);
            for _ in 0..rng.below(3) {
                b.series_pass();
                b.bundle_pass();
            }
            let reps = b.reps();
            let pick = |rng: &mut SplitMix64| reps[rng.below(reps.len() as u64) as usize];
            for q in 0..48 {
                if q == 24 {
                    // The next probe wraps to epoch 1, which query 0's
                    // first probe stamped.
                    b.epoch = u32::MAX;
                }
                let from: Vec<u32> = (0..1 + rng.below(4)).map(|_| pick(&mut rng)).collect();
                let target = pick(&mut rng);
                let mut answers = Vec::new();
                for k in BUDGETS {
                    let (want, want_seen) = b.reaches_reference(&from, target, k);
                    let got = b.reaches(&from, target, k);
                    let seen: BTreeSet<u32> = (0..b.stamp.len() as u32)
                        .filter(|&x| b.stamp[x as usize] == b.epoch)
                        .collect();
                    let ctx = format!("seed {seed} query {q}: {from:?} -> {target} at budget {k}");
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(seen, want_seen, "{ctx}: visited set differs");
                    answers.push(want);
                }
                if answers[0] {
                    reachable += 1;
                } else {
                    unreachable += 1;
                }
                if answers[1] != answers[0] {
                    budget_bound += 1;
                }
            }
        }
        assert!(reachable > 0 && unreachable > 0);
        assert!(budget_bound > 0, "a budget of 8 must decide some answers");
    }

    /// Pinned: the trees of 64 random DAGs at the default probe budget and
    /// at a budget of 8 (where exhaustion binds). Recorded before the
    /// reachability probe moved to stamped, reused buffers; any change to
    /// the endpoint pass's answers moves this hash.
    #[test]
    fn random_dag_trees_are_pinned() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut budget_binds = 0;
        for seed in 0..64 {
            let g = random_dag(seed);
            let opts = DecomposeOptions::for_graph(&g);
            let full = decompose_with(&g, opts);
            let tight = decompose_with(
                &g,
                DecomposeOptions {
                    dfs_budget: 8,
                    ..opts
                },
            );
            if full.canonical_hash() != tight.canonical_hash() {
                budget_binds += 1;
            }
            tree_fnv(&mut h, &full);
            tree_fnv(&mut h, &tight);
        }
        assert!(budget_binds > 0, "a budget of 8 must change some tree");
        assert_eq!(
            h, 0xcc0f_407d_43de_5e83,
            "random-DAG decompositions moved ({budget_binds} budget-bound)"
        );
    }

    #[test]
    fn empty_graph_decomposes_to_empty_tree() {
        let g = Graph::new();
        let t = decompose(&g);
        assert!(t.is_empty());
        assert_eq!(t.op_count(), 0);
    }
}
