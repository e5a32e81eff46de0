//! Hierarchical placement over a structural decomposition (ROADMAP item 3,
//! after Tarnawski et al. and Mayer et al.).
//!
//! Flat DPOS scales with *op count*; this planner makes placement scale
//! with *region count* instead:
//!
//! 1. **decompose** the graph into a [`RegionTree`] (memoized per
//!    structure hash — recovery and drift re-planning reuse it);
//! 2. **across**: run DPOS on the collapsed quotient graph (one node per
//!    region, comp costs seeded from the members' fitted means, memory
//!    from the members' planning bytes) to pick a home device per region;
//! 3. **within**: refine each non-trivial region with DPOS over the
//!    induced subgraph on its home *server's* GPUs (small regions keep the
//!    home device — the exact case), consulting the [`PlanCache`]'s
//!    region-granular store first so repeated layers and twin jobs reuse
//!    sub-plans;
//! 4. **expand** back to a per-op [`Placement`], repair memory overruns
//!    and colocation groups, validate against the existing checker, and
//!    take the finish estimate from the quotient schedule (a full-graph
//!    fixed-placement EFT pass would cost as much as flat DPOS — the
//!    probe-and-pick arbitration re-judges the estimate anyway).
//!
//! On a 13k-op stacked Transformer the quotient has ~34 nodes, so the
//! planning hot path runs two orders of magnitude fewer EFT scans than
//! flat DPOS while the probe-and-pick arbitration in the [`Portfolio`]
//! keeps it honest: it only wins when its *simulated* iteration time is
//! strictly better-or-tied-earlier.
//!
//! [`Portfolio`]: super::Portfolio

use super::{Planner, PlannerKind, PlanningContext};
use crate::error::FastTError;
use crate::os_dpos::dpos_plan_opt;
use crate::planner::cache::Fingerprint;
use crate::strategy::Plan;
use fastt_cluster::{DeviceId, Topology};
use fastt_graph::{decompose_with, DecomposeOptions, Graph, OpId, RegionTree};
use fastt_sim::seed::splitmix64;
use fastt_sim::Placement;
use fastt_telemetry::jobj;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Regions at or below this size skip within-region refinement and inherit
/// the quotient's home device verbatim (the "exact" small-region case: a
/// handful of series ops gain nothing from spreading).
const REFINE_THRESHOLD: usize = 4;

/// Decomposition memo: structure hash → (tree, cold decompose seconds).
/// Bounded FIFO; the same structure is planned many times (pre-training
/// rounds, multi-server or DP-infeasible recovery ladders, the OOM start
/// fallback, perfbench repeats), and the decomposition is a pure function
/// of the graph.
type DecompMemoEntry = (u64, Arc<RegionTree>, f64);
static DECOMP_MEMO: OnceLock<Mutex<Vec<DecompMemoEntry>>> = OnceLock::new();
const DECOMP_MEMO_CAP: usize = 8;

/// The memoized region tree for `graph` under default options, plus the
/// *cold* decomposition wall-clock (paid once per structure; hits are
/// free). Shared by the planner and the benchmark harness so they both
/// see one decomposition.
pub fn region_tree_for(graph: &Graph) -> (Arc<RegionTree>, f64) {
    let (tree, secs, _) = memoized_region_tree(graph);
    (tree, secs)
}

/// [`region_tree_for`], plus whether the memo served the tree without this
/// call decomposing.
fn memoized_region_tree(graph: &Graph) -> (Arc<RegionTree>, f64, bool) {
    let key = graph.structure_hash();
    let memo = DECOMP_MEMO.get_or_init(|| Mutex::new(Vec::new()));
    {
        let m = memo.lock().expect("decompose memo poisoned");
        if let Some((_, t, secs)) = m.iter().find(|(k, _, _)| *k == key) {
            return (Arc::clone(t), *secs, true);
        }
    }
    let t0 = Instant::now();
    let tree = Arc::new(decompose_with(graph, DecomposeOptions::for_graph(graph)));
    let secs = t0.elapsed().as_secs_f64();
    let mut m = memo.lock().expect("decompose memo poisoned");
    if let Some((_, t, s)) = m.iter().find(|(k, _, _)| *k == key) {
        return (Arc::clone(t), *s, false); // racer filled it first
    }
    m.push((key, Arc::clone(&tree), secs));
    while m.len() > DECOMP_MEMO_CAP {
        m.remove(0);
    }
    (tree, secs, false)
}

/// Hierarchical planner: DPOS across the region quotient, DPOS (or the
/// identity, for small regions) within each region, region-granular plan
/// caching, and a repaired, validated per-op expansion. The regions come
/// from the memoized [`DecomposeOptions::for_graph`] decomposition.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierarchicalPlanner;

impl Planner for HierarchicalPlanner {
    fn name(&self) -> &'static str {
        "hierarchical"
    }

    fn kind(&self) -> PlannerKind {
        PlannerKind::WhiteBox
    }

    fn plan(&self, ctx: &mut PlanningContext<'_>) -> Result<Plan, FastTError> {
        let graph = ctx.graph;
        if ctx.topo.gpu_count() == 0 {
            return Err(FastTError::ClusterExhausted);
        }
        if graph.op_count() == 0 {
            return Err(FastTError::InvalidArgument(
                "hierarchical planning needs a non-empty graph",
            ));
        }

        let col = ctx.collector.clone();
        let _hier_phase = col.as_deref().map(|c| c.phase("hierarchical"));

        // 1. Decompose (memoized). The time reported is what this call
        // spent: a memo hit costs a lookup, not the cold decomposition the
        // memo stored.
        let decomp_phase = col.as_deref().map(|c| c.phase("decompose"));
        let t_decomp = Instant::now();
        let (tree, _, decompose_cached) = memoized_region_tree(graph);
        let decompose_secs = t_decomp.elapsed().as_secs_f64();
        drop(decomp_phase);

        // 2. Across: DPOS on the quotient graph.
        let across_phase = col.as_deref().map(|c| c.phase("across"));
        let t_across = Instant::now();
        let (qgraph, qcost) = build_quotient(graph, &tree, ctx)?;
        let qplan = dpos_plan_opt(&qgraph, ctx.topo, &qcost, ctx.hw, col.as_deref());
        let across_secs = t_across.elapsed().as_secs_f64();
        drop(across_phase);

        // 3. Expand + within-region refinement.
        let within_phase = col.as_deref().map(|c| c.phase("within"));
        let t_within = Instant::now();
        let mut devices: Vec<DeviceId> = Vec::with_capacity(graph.op_count());
        devices.resize(graph.op_count(), DeviceId(0));
        for (id, r) in tree.regions() {
            let home = qplan.placement.device_of(fastt_graph::OpId(id.0));
            for &op in &r.ops {
                devices[op.index()] = home;
            }
        }
        let mut narrowed: HashMap<u16, Topology> = HashMap::new();
        let mut region_hits = 0u64;
        for (id, r) in tree.regions() {
            if r.len() <= REFINE_THRESHOLD {
                continue;
            }
            let home = qplan.placement.device_of(fastt_graph::OpId(id.0));
            let server = ctx.topo.server_of(home);
            let narrow = narrowed
                .entry(server)
                .or_insert_with(|| narrow_to_server(ctx.topo, server));
            if narrow.gpu_count() <= 1 {
                continue; // nothing to spread over
            }
            if refine_region(graph, r, narrow, ctx, &mut devices) {
                region_hits += 1;
            }
        }
        let within_secs = t_within.elapsed().as_secs_f64();
        drop(within_phase);

        // 4. Repair: memory overruns first (region placement is only an
        // approximation of per-op bytes), then colocation groups.
        let repair_phase = col.as_deref().map(|c| c.phase("repair"));
        repair_memory(graph, ctx, &mut devices);
        for group in graph.colocation_groups() {
            if let Some(&first) = group.first() {
                let d = devices[first.index()];
                for &op in group {
                    devices[op.index()] = d;
                }
            }
        }
        drop(repair_phase);

        let placement = Placement::new(devices);
        placement
            .validate(graph, ctx.topo)
            .map_err(|e| FastTError::Sim(fastt_sim::SimError::InvalidPlacement(e)))?;

        // 5. Estimate from the *quotient* schedule — the whole point of the
        // hierarchy is that the full-graph fixed-placement EFT pass costs
        // as much as flat DPOS, while the region-level schedule already
        // carries the members' summed comp means and the aggregated
        // boundary traffic. No per-op order is pinned: the sub-plans were
        // placed independently, so the simulator's own list scheduler
        // sequences ops (probe-and-pick arbitration judges the result).
        let est_finish = qplan.est_finish;

        if let Some(col) = ctx.collector.as_deref() {
            let m = col.metrics();
            m.set_gauge("hier.regions", tree.len() as f64);
            m.set_gauge("hier.rounds", tree.rounds() as f64);
            m.set_gauge("hier.residual", tree.residual_regions().len() as f64);
            m.set_gauge("hier.decompose_secs", decompose_secs);
            m.set_gauge(
                "hier.decompose_cached",
                f64::from(u8::from(decompose_cached)),
            );
            m.set_gauge("hier.across_secs", across_secs);
            m.set_gauge("hier.within_secs", within_secs);
            col.emit(
                "hier.plan",
                jobj! {
                    "ops" => graph.op_count() as u64,
                    "regions" => tree.len() as u64,
                    "rounds" => tree.rounds() as u64,
                    "decompose_secs" => decompose_secs,
                    "decompose_cached" => decompose_cached,
                    "across_secs" => across_secs,
                    "within_secs" => within_secs,
                    "region_cache_hits" => region_hits,
                    "est_finish" => est_finish,
                },
            );
        }

        Ok(Plan {
            graph: graph.clone(),
            splits: Vec::new(),
            placement,
            order: None,
            est_finish,
        })
    }
}

/// Builds the quotient graph (one node per region) and a cost-model clone
/// with per-region comp costs seeded from the members' fitted means.
/// Quotient `param_bytes` carries the members' total *planning* bytes so
/// DPOS's memory accounting approximates region sums.
fn build_quotient(
    graph: &Graph,
    tree: &RegionTree,
    ctx: &PlanningContext<'_>,
) -> Result<(Graph, fastt_cost::CostModels), FastTError> {
    use fastt_graph::{OpKind, Operation};
    let mut q = Graph::new();
    let gpus: Vec<DeviceId> = ctx.topo.gpu_ids().collect();
    let mut qcost = ctx.cost.clone();
    for (id, r) in tree.regions() {
        let flops: u64 = r.ops.iter().map(|&o| graph.op_ref(o).flops).sum();
        let bytes: u64 = r
            .ops
            .iter()
            .map(|&o| ctx.hw.planning_bytes(graph.op_ref(o)))
            .sum();
        let name = format!("region{}", id.0);
        q.add_op(
            Operation::new(&name, OpKind::MatMul, [1, 1])
                .with_flops(flops)
                .with_param_bytes(bytes),
        )
        .map_err(|_| FastTError::InvalidArgument("quotient region name collision"))?;
        for &d in &gpus {
            let secs: f64 = r
                .ops
                .iter()
                .map(|&o| ctx.cost.comp.get(&graph.op_ref(o).name, d).unwrap_or(0.0))
                .sum();
            qcost.comp.seed(&name, &[d], secs);
        }
    }
    for &(s, d, bytes) in tree.quotient_edges() {
        q.connect_bytes(fastt_graph::OpId(s.0), fastt_graph::OpId(d.0), bytes)
            .map_err(|_| FastTError::InvalidArgument("quotient edge rejected"))?;
    }
    Ok((q, qcost))
}

/// A copy of `topo` with every GPU outside `server` blacklisted (hosts stay
/// live so routing keeps working) — the within-region planning universe.
fn narrow_to_server(topo: &Topology, server: u16) -> Topology {
    let mut t = topo.clone();
    let others: Vec<DeviceId> = topo
        .gpu_ids()
        .filter(|&d| topo.server_of(d) != server)
        .collect();
    for d in others {
        t.fail_device(d);
    }
    t
}

/// Refines one region with DPOS over its induced subgraph on the narrowed
/// topology, consulting the cache's region-granular store first. Returns
/// whether the sub-plan came from the cache.
fn refine_region(
    graph: &Graph,
    r: &fastt_graph::Region,
    narrow: &Topology,
    ctx: &mut PlanningContext<'_>,
    devices: &mut [DeviceId],
) -> bool {
    let fp = ctx.region_cache.map(|_| region_fingerprint(r, narrow, ctx));
    if let (Some(cache), Some(fp)) = (ctx.region_cache, &fp) {
        if let Some(plan) = cache.get_region(fp, narrow) {
            if plan.placement.len() == r.len() {
                for (i, &op) in r.ops.iter().enumerate() {
                    devices[op.index()] = plan.placement.device_of(OpId(i as u32));
                }
                return true;
            }
        }
    }

    let sub = induced_subgraph(graph, &r.ops);
    let plan = dpos_plan_opt(&sub, narrow, &ctx.cost, ctx.hw, None);
    for (i, &op) in r.ops.iter().enumerate() {
        devices[op.index()] = plan.placement.device_of(OpId(i as u32));
    }
    if let (Some(cache), Some(fp)) = (ctx.region_cache, fp) {
        cache.insert_region(fp, &plan, narrow);
    }
    false
}

/// The cache key for one region's sub-plan: the order-canonical region hash
/// as the graph component, the narrowed server slice's shape as capacity,
/// and the usual cost-generation / salt split (mirroring
/// [`Fingerprint::compute`]'s salting rule).
fn region_fingerprint(
    r: &fastt_graph::Region,
    narrow: &Topology,
    ctx: &PlanningContext<'_>,
) -> Fingerprint {
    let generation = ctx.cost.generation();
    Fingerprint {
        graph_hash: r.hash,
        region_hash: r.hash,
        capacity_mask: narrow.shape_hash(),
        cost_generation: generation,
        context: if generation > 0 {
            splitmix64(ctx.cache_salt)
        } else {
            0
        },
        planner: "hierarchical.region",
        extra: 0,
    }
}

/// The subgraph induced by `ops` (ascending), preserving names, internal
/// edges, and fully-internal colocation groups. Sub op `i` is `ops[i]`.
fn induced_subgraph(graph: &Graph, ops: &[OpId]) -> Graph {
    let mut sub = Graph::new();
    let mut index_of: HashMap<OpId, OpId> = HashMap::with_capacity(ops.len());
    for &op in ops {
        let id = sub
            .add_op(graph.op_ref(op).clone())
            .expect("names unique in parent graph");
        index_of.insert(op, id);
    }
    for &op in ops {
        for e in graph.out_edges(op) {
            if let (Some(&s), Some(&d)) = (index_of.get(&e.src), index_of.get(&e.dst)) {
                sub.connect_bytes(s, d, e.bytes)
                    .expect("edge maps into subgraph");
            }
        }
    }
    for group in graph.colocation_groups() {
        let mapped: Vec<OpId> = group
            .iter()
            .filter_map(|o| index_of.get(o).copied())
            .collect();
        if mapped.len() == group.len() && mapped.len() > 1 {
            sub.colocate(&mapped);
        }
    }
    sub
}

/// Greedy memory repair: while a device holds more planning bytes than its
/// capacity, move the largest offending op (with its colocation group) to
/// the live GPU with the most free memory that fits it. Bounded; mirrors
/// DPOS's own max-free fallback, at the expansion layer.
fn repair_memory(graph: &Graph, ctx: &PlanningContext<'_>, devices: &mut [DeviceId]) {
    let topo = ctx.topo;
    let n = topo.device_count();
    let mut used = vec![0u64; n];
    let need: Vec<u64> = graph
        .iter_ops()
        .map(|(_, op)| ctx.hw.planning_bytes(op))
        .collect();
    for (id, _) in graph.iter_ops() {
        used[devices[id.index()].index()] += need[id.index()];
    }
    let over = |used: &[u64]| -> Option<DeviceId> {
        topo.gpu_ids()
            .filter(|d| used[d.index()] > topo.device(*d).mem_bytes)
            .max_by_key(|d| used[d.index()] - topo.device(*d).mem_bytes)
    };
    let mut moves = 0usize;
    let budget = graph.op_count() * 2;
    while let Some(src) = over(&used) {
        if moves >= budget {
            break;
        }
        // Largest movable unit on the offender: an op plus its colocation
        // group (groups move together or not at all).
        let mut best: Option<(u64, Vec<OpId>)> = None;
        for (id, _) in graph.iter_ops() {
            if devices[id.index()] != src {
                continue;
            }
            let unit: Vec<OpId> = match graph.colocation_group(id) {
                Some(g) => {
                    if g.first() != Some(&id) {
                        continue; // count each group once
                    }
                    g.to_vec()
                }
                None => vec![id],
            };
            let bytes: u64 = unit.iter().map(|o| need[o.index()]).sum();
            if best.as_ref().map(|(b, _)| bytes > *b).unwrap_or(true) {
                best = Some((bytes, unit));
            }
        }
        let Some((bytes, unit)) = best else { break };
        let dst = topo
            .gpu_ids()
            .filter(|&d| d != src)
            .filter(|&d| topo.device(d).mem_bytes.saturating_sub(used[d.index()]) >= bytes)
            .max_by_key(|&d| topo.device(d).mem_bytes - used[d.index()]);
        let Some(dst) = dst else { break }; // nowhere fits: leave as-is
        for o in unit {
            used[src.index()] -= need[o.index()];
            used[dst.index()] += need[o.index()];
            devices[o.index()] = dst;
        }
        moves += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastt_cost::CostModels;
    use fastt_models::Model;
    use fastt_sim::HardwarePerf;

    #[test]
    fn hierarchical_plan_is_valid_and_deterministic() {
        let g = Model::LeNet.training_graph(32);
        let topo = Topology::multi_server(2, 2);
        let hw = HardwarePerf::new();
        let plan1 = {
            let mut ctx = PlanningContext::new(&g, &topo, &hw, CostModels::new());
            HierarchicalPlanner.plan(&mut ctx).unwrap()
        };
        plan1.placement.validate(&g, &topo).unwrap();
        let plan2 = {
            let mut ctx = PlanningContext::new(&g, &topo, &hw, CostModels::new());
            HierarchicalPlanner.plan(&mut ctx).unwrap()
        };
        let d1: Vec<DeviceId> = plan1.placement.iter().map(|(_, d)| d).collect();
        let d2: Vec<DeviceId> = plan2.placement.iter().map(|(_, d)| d).collect();
        assert_eq!(d1, d2, "same inputs must yield the same placement");
        assert_eq!(plan1.est_finish.to_bits(), plan2.est_finish.to_bits());
    }

    #[test]
    fn colocation_groups_survive_expansion() {
        let g = Model::LeNet.training_graph(32);
        let topo = Topology::single_server(4);
        let hw = HardwarePerf::new();
        let mut ctx = PlanningContext::new(&g, &topo, &hw, CostModels::new());
        let plan = HierarchicalPlanner.plan(&mut ctx).unwrap();
        for group in g.colocation_groups() {
            let d0 = plan.placement.device_of(group[0]);
            for &op in group {
                assert_eq!(plan.placement.device_of(op), d0);
            }
        }
    }
}
