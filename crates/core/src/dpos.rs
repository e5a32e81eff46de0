//! DPOS — Device Placement and Operation Sequencing (Alg. 1 of the paper).
//!
//! List scheduling in two phases (Sec. 5.1): operations are prioritized by
//! upward rank, then assigned devices one by one. Operations on the critical
//! path go to a jointly-chosen *critical-path device* (minimizing the average
//! execution time of as many CP ops as fit in its memory); all other ops go
//! to the device minimizing their earliest finish time (EFT), with
//! idle-slot insertion.

use crate::rank::{critical_path, upward_ranks};
use crate::timeline::DeviceTimeline;
use fastt_cluster::{DeviceId, Topology};
use fastt_cost::{CommCostModel, CostModels, OpTimes, ResolvedPair};
use fastt_graph::{Graph, OpId};
use fastt_sim::{HardwarePerf, Placement};
use fastt_telemetry::{jobj, Collector, Value};
use std::cell::{OnceCell, RefCell};

/// The output of one DPOS run: placement, execution order, and the
/// estimated schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Device assignment for every op (the paper's `S_new`).
    pub placement: Placement,
    /// Execution order list `A`: ops by ascending estimated start time.
    pub order: Vec<OpId>,
    /// Estimated finish time of the exit operation, `FT(o_exit)` —
    /// the maximum finish time over all sinks.
    pub est_finish: f64,
    /// Estimated start time per op.
    pub start_times: Vec<f64>,
    /// Estimated finish time per op.
    pub finish_times: Vec<f64>,
    /// The rank-based critical path the schedule was built around.
    pub critical_path: Vec<OpId>,
}

/// Picks a critical-path device for the remaining CP ops: for each device,
/// greedily pack as many remaining CP ops as fit in its free memory and
/// compute their average execution time from the computation cost model;
/// the device with the smallest average wins (Sec. 5.1).
fn select_cp_device(
    graph: &Graph,
    topo: &Topology,
    times: &[OpTimes<'_>],
    hw: &HardwarePerf,
    remaining_cp: &[OpId],
    mem_used: &[u64],
) -> DeviceId {
    let mut best = topo.gpu_ids().next().unwrap_or(DeviceId(0));
    let mut best_avg = f64::INFINITY;
    for d in topo.gpu_ids() {
        let cap = topo.device(d).mem_bytes;
        let mut free = cap.saturating_sub(mem_used[d.index()]);
        let mut sum = 0.0;
        let mut count = 0u32;
        for &o in remaining_cp {
            let need = hw.planning_bytes(graph.op_ref(o));
            if need > free {
                break;
            }
            free -= need;
            sum += times[o.index()].get(d).unwrap_or(0.0);
            count += 1;
        }
        let avg = if count == 0 {
            f64::INFINITY
        } else {
            sum / count as f64
        };
        if avg < best_avg {
            best_avg = avg;
            best = d;
        }
    }
    best
}

/// The `(src, dst)` routes of one DPOS run, each resolved on first use:
/// every hop as a dense channel index and a price resolved once per
/// physical hop, so probing a transfer walks a slice — no route is built,
/// no channel key hashed and no cost-model line looked up per probe. Lazy,
/// because a run on a small subgraph (a hierarchical region) touches only
/// a few of the device pairs.
struct Routes<'a> {
    topo: &'a Topology,
    comm: &'a CommCostModel,
    n_dev: usize,
    /// Per `src * n_dev + dst`: the route's hops as (channel, from, to).
    routes: Vec<OnceCell<Vec<(u32, DeviceId, DeviceId)>>>,
    /// Channel keys (`Topology::channel_key`) in order of first use; a
    /// hop's channel index is its key's position.
    keys: RefCell<Vec<(u32, u32)>>,
    /// Per physical hop `from * n_dev + to`.
    prices: Vec<OnceCell<HopPrice>>,
}

/// A physical hop's price: the cost model's resolved pair and, when the
/// model has no line for it, the topology route it falls back to.
type HopPrice = (ResolvedPair, Vec<(DeviceId, DeviceId)>);

impl<'a> Routes<'a> {
    fn new(topo: &'a Topology, comm: &'a CommCostModel) -> Self {
        let n_dev = topo.device_count();
        Routes {
            topo,
            comm,
            n_dev,
            routes: (0..n_dev * n_dev).map(|_| OnceCell::new()).collect(),
            keys: RefCell::new(Vec::new()),
            prices: (0..n_dev * n_dev).map(|_| OnceCell::new()).collect(),
        }
    }

    /// The `(channel, from, to)` hops of the `src → dst` route.
    fn route(&self, src: DeviceId, dst: DeviceId) -> &[(u32, DeviceId, DeviceId)] {
        self.routes[src.index() * self.n_dev + dst.index()].get_or_init(|| {
            let mut keys = self.keys.borrow_mut();
            self.topo
                .route(src, dst)
                .into_iter()
                .map(|(a, b)| {
                    let key = self.topo.channel_key(a, b);
                    let chan = keys.iter().position(|&k| k == key).unwrap_or_else(|| {
                        keys.push(key);
                        keys.len() - 1
                    });
                    (chan as u32, a, b)
                })
                .collect()
        })
    }

    /// Predicted duration of one physical hop: the cost model's answer when
    /// it has one, else the topology's analytic transfer time — never zero.
    /// An unprofiled link priced at zero would beat every profiled one in
    /// each EFT comparison it enters, which is the opposite of pessimism the
    /// scheduler needs before the profiler has visited that link.
    fn hop_secs(&self, a: DeviceId, b: DeviceId, bytes: u64) -> f64 {
        let (model, fallback) = self.prices[a.index() * self.n_dev + b.index()].get_or_init(|| {
            let model = self.comm.resolve(a, b);
            let fallback = match model {
                ResolvedPair::Unknown => self.topo.route(a, b),
                _ => Vec::new(),
            };
            (model, fallback)
        });
        model.price(bytes).unwrap_or_else(|| {
            fallback
                .iter()
                .map(|&(a, b)| self.topo.transfer_time(a, b, bytes))
                .sum()
        })
    }
}

/// Design-choice switches for [`dpos_with`] — used by the ablation benches
/// to quantify each ingredient of Alg. 1 (see DESIGN.md §5).
#[derive(Debug, Clone, Copy)]
pub struct DposFlags {
    /// Idle-slot insertion (`avail[j]` as the paper defines it). Off =
    /// append-only scheduling (ops can only start after the device's last
    /// scheduled op).
    pub insertion: bool,
    /// Critical-path device grouping (Sec. 5.1). Off = every op, including
    /// CP ops, is placed by plain min-EFT.
    pub cp_grouping: bool,
}

impl Default for DposFlags {
    fn default() -> Self {
        DposFlags {
            insertion: true,
            cp_grouping: true,
        }
    }
}

/// Runs DPOS on `graph` over `topo` using the current cost models.
///
/// Missing *computation* costs are treated as zero, which biases the
/// schedule toward unexplored placements so the profiler can measure them in
/// the following training steps (Sec. 4). Missing *communication* costs fall
/// back to the topology's analytic per-route transfer time instead — a free
/// unprofiled link would win every earliest-finish-time comparison and pull
/// whole subgraphs across the slowest wires in the cluster.
///
/// # Panics
///
/// Panics if `graph` contains a cycle.
pub fn dpos(graph: &Graph, topo: &Topology, cost: &CostModels, hw: &HardwarePerf) -> Schedule {
    dpos_impl(graph, topo, cost, hw, None, DposFlags::default(), None)
}

/// [`dpos`] with optional scheduler decision tracing: when `col` is `Some`,
/// every placement decision is emitted as a `dpos.place` event carrying the
/// chosen device and the earliest-finish-time score of every device that was
/// considered. This is the single entry point the planner layer uses — the
/// old `dpos_traced` duplicate is gone.
///
/// # Panics
///
/// Panics if `graph` contains a cycle.
pub(crate) fn dpos_opt(
    graph: &Graph,
    topo: &Topology,
    cost: &CostModels,
    hw: &HardwarePerf,
    col: Option<&Collector>,
) -> Schedule {
    dpos_impl(graph, topo, cost, hw, None, DposFlags::default(), col)
}

/// [`dpos`] with explicit design-choice switches (ablations).
///
/// # Panics
///
/// Panics if `graph` contains a cycle.
pub fn dpos_with(
    graph: &Graph,
    topo: &Topology,
    cost: &CostModels,
    hw: &HardwarePerf,
    flags: DposFlags,
) -> Schedule {
    dpos_impl(graph, topo, cost, hw, None, flags, None)
}

/// Computes an execution order (and schedule estimate) for a **fixed**
/// placement: the same list-scheduling pass as [`dpos`], but every op is
/// pinned to its device from `placement`. This is how FastT derives an
/// enforced execution order for a deployment it did not choose — e.g.
/// ordering the default data-parallel placement (the paper's Fig. 2
/// experiment isolates exactly this effect).
///
/// # Panics
///
/// Panics if `graph` contains a cycle or `placement` does not cover it.
pub fn schedule_for_placement(
    graph: &Graph,
    topo: &Topology,
    cost: &CostModels,
    hw: &HardwarePerf,
    placement: &Placement,
) -> Schedule {
    dpos_impl(
        graph,
        topo,
        cost,
        hw,
        Some(placement),
        DposFlags::default(),
        None,
    )
}

fn dpos_impl(
    graph: &Graph,
    topo: &Topology,
    cost: &CostModels,
    hw: &HardwarePerf,
    fixed: Option<&Placement>,
    flags: DposFlags,
    col: Option<&Collector>,
) -> Schedule {
    if let Some(col) = col {
        col.metrics().inc("dpos.runs");
    }
    let _place_phase = col.map(|c| c.phase("dpos.place"));
    let n = graph.op_count();
    let n_dev = topo.device_count();
    let rank_phase = col.map(|c| c.phase("rank"));
    let ranks = upward_ranks(graph, cost);
    let cp = critical_path(graph, &ranks);
    drop(rank_phase);
    let mut on_cp = vec![false; n];
    for &o in &cp {
        on_cp[o.index()] = true;
    }

    // Priority queue: rank descending, topological position as tiebreak so
    // predecessors are always placed before successors.
    let topo_order = graph.topo_order().expect("DAG");
    let mut topo_pos = vec![0usize; n];
    for (i, &o) in topo_order.iter().enumerate() {
        topo_pos[o.index()] = i;
    }
    // Rank descending; critical-path ops win ties (the paper always places
    // "the entry operation in the new critical path" next); topological
    // position as the final tiebreak. A rank tie across an edge could still
    // put a successor ahead of its predecessor, so the placement loop below
    // iterates this priority order *topologically*: always the
    // highest-priority op whose predecessors are already placed.
    let mut queue: Vec<OpId> = graph.op_ids().collect();
    queue.sort_by(|a, b| {
        ranks[b.index()]
            .total_cmp(&ranks[a.index()])
            .then(on_cp[b.index()].cmp(&on_cp[a.index()]))
            .then(topo_pos[a.index()].cmp(&topo_pos[b.index()]))
    });
    let mut prio = vec![0usize; n];
    for (i, &o) in queue.iter().enumerate() {
        prio[o.index()] = i;
    }
    let mut unplaced_preds: Vec<u32> = vec![0; n];
    for e in graph.iter_edges() {
        unplaced_preds[e.dst.index()] += 1;
    }
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<(usize, OpId)>> = graph
        .op_ids()
        .filter(|o| unplaced_preds[o.index()] == 0)
        .map(|o| std::cmp::Reverse((prio[o.index()], o)))
        .collect();

    // One cost-row read per op for the whole run.
    let times: Vec<OpTimes<'_>> = graph
        .op_ids()
        .map(|o| cost.comp.times(&graph.op_ref(o).name))
        .collect();
    let mut timelines: Vec<DeviceTimeline> = (0..n_dev).map(|_| DeviceTimeline::new()).collect();
    let mut mem_used = vec![0u64; n_dev];
    let mut st = vec![f64::NAN; n];
    let mut ft = vec![f64::NAN; n];
    let mut placement = Placement::uniform(n, DeviceId(0));
    let mut placed = vec![false; n];
    let mut forced: Vec<Option<DeviceId>> = vec![None; n];

    // Remaining CP ops in path order, advanced as they get placed.
    let mut cp_remaining: Vec<OpId> = cp.clone();
    let mut cp_device = if cp_remaining.is_empty() {
        DeviceId(0)
    } else {
        select_cp_device(graph, topo, &times, hw, &cp_remaining, &mem_used)
    };

    // Transfer bookkeeping mirrors the executor: tensors are sent once per
    // (producer, destination device) — later readers reuse the arrival —
    // routed hop by hop over the physical topology, and hops sharing a
    // physical channel serialize, which the schedule models with channel
    // timelines (the estimate would otherwise be blind to exactly the
    // contention the communication cost model measures). Channels and
    // arrivals are dense: `chan` by channel index, `xfer_done` by
    // `producer * n_dev + destination`.
    let routes = Routes::new(topo, &cost.comm);
    // every channel is first used by some directed device pair
    let mut chan: Vec<DeviceTimeline> = vec![DeviceTimeline::new(); n_dev * n_dev];
    let mut xfer_done: Vec<Option<f64>> = vec![None; n * n_dev];

    // Collective duration as the simulator will run it: ring all-reduce over
    // the producers' devices, predicted from the same per-link-class fits,
    // with the analytic ring time as the unprofiled fallback.
    let collective_dur = |parts: &[DeviceId], bytes: u64| -> f64 {
        cost.comm
            .predict_allreduce(parts, bytes)
            .unwrap_or_else(|| {
                let n = parts.len();
                if n < 2 {
                    return 0.0;
                }
                let chunk = bytes.div_ceil(n as u64);
                let slowest = (0..n)
                    .map(|i| topo.transfer_time_routed(parts[i], parts[(i + 1) % n], chunk))
                    .fold(0.0f64, f64::max);
                2.0 * (n as f64 - 1.0) * slowest
            })
    };

    // Whether `p`'s output is already resident on `d` because `p` is a
    // collective whose ring included `d` (all-reduce leaves the reduced
    // tensor on every participant).
    let collective_local = |p: OpId, d: DeviceId, placement: &Placement| -> bool {
        graph.op_ref(p).collective.is_some()
            && graph.in_edges(p).any(|e| placement.device_of(e.src) == d)
    };

    // Earliest start of `o` on `d` given already-placed predecessors.
    let ready_time = |o: OpId,
                      d: DeviceId,
                      ft: &[f64],
                      placement: &Placement,
                      chan: &[DeviceTimeline],
                      xfer_done: &[Option<f64>]|
     -> f64 {
        if graph.op_ref(o).collective.is_some() {
            // The node starts once every producer has finished and the ring
            // has run — its in-edges are a collective, not P2P transfers.
            let mut last = 0.0f64;
            let mut parts: Vec<DeviceId> = Vec::new();
            let mut bytes = 0u64;
            for e in graph.in_edges(o) {
                debug_assert!(!ft[e.src.index()].is_nan(), "preds placed first");
                last = last.max(ft[e.src.index()]);
                bytes = bytes.max(e.bytes);
                let dp = placement.device_of(e.src);
                if !parts.contains(&dp) {
                    parts.push(dp);
                }
            }
            parts.sort_unstable();
            return last + collective_dur(&parts, bytes);
        }
        let mut ready = 0.0f64;
        for e in graph.in_edges(o) {
            let p = e.src;
            debug_assert!(!ft[p.index()].is_nan(), "preds placed first");
            let dp = placement.device_of(p);
            let arrive = if dp == d || collective_local(p, d, placement) {
                ft[p.index()]
            } else if let Some(t) = xfer_done[p.index() * n_dev + d.index()] {
                t
            } else {
                let mut cursor = ft[p.index()];
                for &(c, a, b) in routes.route(dp, d) {
                    let dur = routes.hop_secs(a, b, e.bytes);
                    let start = chan[c as usize].earliest_slot(cursor, dur);
                    cursor = start + dur;
                }
                cursor
            };
            ready = ready.max(arrive);
        }
        ready
    };

    // Commits the transfers implied by placing `o` on `d`: every hop of
    // every route reserves its channel. Collective in-edges reserve nothing
    // (the ring's cost is in the node's ready time; modelling its channel
    // occupancy is not worth the estimate's complexity).
    let commit_transfers = |o: OpId,
                            d: DeviceId,
                            ft: &[f64],
                            placement: &Placement,
                            chan: &mut [DeviceTimeline],
                            xfer_done: &mut [Option<f64>]| {
        if graph.op_ref(o).collective.is_some() {
            return;
        }
        for e in graph.in_edges(o) {
            let p = e.src;
            let dp = placement.device_of(p);
            let done = &mut xfer_done[p.index() * n_dev + d.index()];
            if dp == d || collective_local(p, d, placement) || done.is_some() {
                continue;
            }
            let mut cursor = ft[p.index()];
            for &(c, a, b) in routes.route(dp, d) {
                let dur = routes.hop_secs(a, b, e.bytes);
                let tl = &mut chan[c as usize];
                let start = tl.earliest_slot(cursor, dur);
                tl.reserve(start, dur);
                cursor = start + dur;
            }
            *done = Some(cursor);
        }
    };

    let mut candidates: Vec<DeviceId> = Vec::with_capacity(n_dev);
    while let Some(std::cmp::Reverse((_, o))) = ready.pop() {
        let name = &graph.op_ref(o).name;
        let need = hw.planning_bytes(graph.op_ref(o));
        let op_times = times[o.index()];

        // Candidate devices.
        candidates.clear();
        if let Some(p) = fixed {
            candidates.push(p.device_of(o));
        } else if let Some(d) = forced[o.index()] {
            candidates.push(d);
        } else if flags.cp_grouping && on_cp[o.index()] {
            // refresh the CP device if this op no longer fits on it
            let cap = topo.device(cp_device).mem_bytes;
            if mem_used[cp_device.index()] + need > cap {
                cp_remaining.retain(|&x| !placed[x.index()]);
                cp_device = select_cp_device(graph, topo, &times, hw, &cp_remaining, &mem_used);
            }
            candidates.push(cp_device);
        } else {
            candidates.extend(
                topo.gpu_ids()
                    .filter(|d| mem_used[d.index()] + need <= topo.device(*d).mem_bytes),
            );
            if candidates.is_empty() {
                // no device fits: fall back to the one with the most free
                // memory rather than failing the whole schedule
                candidates.push(
                    topo.gpu_ids()
                        .max_by_key(|d| {
                            topo.device(*d)
                                .mem_bytes
                                .saturating_sub(mem_used[d.index()])
                        })
                        .expect("non-empty topology"),
                );
            }
        }

        // Min-EFT selection with idle-slot insertion. The phase covers the
        // whole candidate scan, including each device's idle-gap search
        // (`earliest_slot`) and predecessor-transfer timing (`ready_time`).
        let _scan_phase = col.map(|c| c.phase("eft_scan"));
        let mut best_d = candidates[0];
        let mut best_est = f64::INFINITY;
        let mut best_eft = f64::INFINITY;
        let mut considered: Vec<Value> = Vec::new();
        for &d in &candidates {
            let w = op_times.get(d).unwrap_or(0.0);
            let ready = ready_time(o, d, &ft, &placement, &chan, &xfer_done);
            let est = if flags.insertion {
                timelines[d.index()].earliest_slot(ready, w)
            } else {
                ready.max(timelines[d.index()].horizon())
            };
            let eft = est + w;
            if col.is_some() {
                considered.push(jobj! { "device" => d.0 as u64, "eft" => eft });
            }
            if eft < best_eft {
                best_eft = eft;
                best_est = est;
                best_d = d;
            }
        }
        drop(_scan_phase);
        if let Some(col) = col {
            col.metrics().inc("dpos.ops_placed");
            col.emit(
                "dpos.place",
                jobj! {
                    "op" => name.as_str(),
                    "device" => best_d.0 as u64,
                    "eft" => best_eft,
                    "on_cp" => on_cp[o.index()],
                    "considered" => Value::Arr(considered),
                },
            );
        }

        let _commit_phase = col.map(|c| c.phase("commit"));
        commit_transfers(o, best_d, &ft, &placement, &mut chan, &mut xfer_done);
        let w = op_times.get(best_d).unwrap_or(0.0);
        timelines[best_d.index()].reserve(best_est, w);
        st[o.index()] = best_est;
        ft[o.index()] = best_eft;
        placement.set(o, best_d);
        placed[o.index()] = true;
        mem_used[best_d.index()] += need;

        // Propagate the colocation constraint to unplaced group members.
        if let Some(grp) = graph.colocation_group(o) {
            for &m in grp {
                if !placed[m.index()] {
                    forced[m.index()] = Some(best_d);
                }
            }
        }

        // Release successors whose predecessors are now all placed.
        for s in graph.succs(o) {
            unplaced_preds[s.index()] -= 1;
            if unplaced_preds[s.index()] == 0 {
                ready.push(std::cmp::Reverse((prio[s.index()], s)));
            }
        }
    }
    debug_assert!(placed.iter().all(|&b| b), "all ops placed");

    // Execution order: ascending start time, rank-descending tiebreak.
    let mut order: Vec<OpId> = graph.op_ids().collect();
    order.sort_by(|a, b| {
        st[a.index()]
            .total_cmp(&st[b.index()])
            .then(ranks[b.index()].total_cmp(&ranks[a.index()]))
            .then(a.cmp(b))
    });

    let est_finish = ft.iter().copied().fold(0.0f64, f64::max);

    Schedule {
        placement,
        order,
        est_finish,
        start_times: st,
        finish_times: ft,
        critical_path: cp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastt_cluster::DeviceId;
    use fastt_graph::{OpKind, Operation};

    const D0: DeviceId = DeviceId(0);
    const D1: DeviceId = DeviceId(1);

    /// Two independent heavy chains feeding one sink; costs profiled on both
    /// devices; communication is cheap, so DPOS should parallelize across
    /// the two devices.
    fn two_chain_graph(cost: &mut CostModels) -> Graph {
        let mut g = Graph::new();
        let src = g.add_op(Operation::new("src", OpKind::Input, [1])).unwrap();
        let mut lasts = Vec::new();
        for c in 0..2 {
            let mut prev = src;
            for i in 0..3 {
                let o = g
                    .add_op(Operation::new(format!("c{c}_{i}"), OpKind::MatMul, [1]))
                    .unwrap();
                g.connect(prev, o).unwrap();
                prev = o;
                for d in [D0, D1] {
                    cost.comp.observe(&format!("c{c}_{i}"), d, 1.0);
                }
            }
            lasts.push(prev);
        }
        let sink = g.add_op(Operation::new("sink", OpKind::Loss, [1])).unwrap();
        for l in lasts {
            g.connect(l, sink).unwrap();
        }
        for d in [D0, D1] {
            cost.comp.observe("src", d, 0.001);
            cost.comp.observe("sink", d, 0.001);
        }
        // fast profiled links both ways
        cost.comm.observe(D0, D1, 4, 0.01);
        cost.comm.observe(D1, D0, 4, 0.01);
        cost.comm.refit();
        g
    }

    #[test]
    fn parallelizes_independent_chains() {
        let mut cost = CostModels::new();
        let g = two_chain_graph(&mut cost);
        let topo = Topology::single_server(2);
        let s = dpos(&g, &topo, &cost, &HardwarePerf::new());
        // both devices must be used
        assert_eq!(s.placement.devices_used().len(), 2);
        // the estimate must beat serial execution (6s) clearly
        assert!(s.est_finish < 4.5, "est_finish = {}", s.est_finish);
    }

    #[test]
    fn single_device_schedule_is_serial_sum() {
        let mut cost = CostModels::new();
        let g = two_chain_graph(&mut cost);
        let topo = Topology::single_server(1);
        let s = dpos(&g, &topo, &cost, &HardwarePerf::new());
        assert!(
            (s.est_finish - 6.002).abs() < 1e-9,
            "est = {}",
            s.est_finish
        );
    }

    #[test]
    fn order_is_consistent_with_start_times() {
        let mut cost = CostModels::new();
        let g = two_chain_graph(&mut cost);
        let topo = Topology::single_server(2);
        let s = dpos(&g, &topo, &cost, &HardwarePerf::new());
        for w in s.order.windows(2) {
            assert!(s.start_times[w[0].index()] <= s.start_times[w[1].index()] + 1e-12);
        }
    }

    #[test]
    fn colocation_respected() {
        let mut cost = CostModels::new();
        let mut g = Graph::new();
        let v = g
            .add_op(Operation::new("v", OpKind::Variable, [1]).with_param_bytes(4))
            .unwrap();
        let a = g.add_op(Operation::new("a", OpKind::MatMul, [1])).unwrap();
        let u = g
            .add_op(Operation::new("u", OpKind::ApplyGradient, [1]))
            .unwrap();
        g.connect(v, a).unwrap();
        g.connect(a, u).unwrap();
        g.connect(v, u).unwrap();
        g.colocate(&[v, u]);
        for d in [D0, D1] {
            for n in ["v", "a", "u"] {
                cost.comp.observe(n, d, 0.5);
            }
        }
        let topo = Topology::single_server(2);
        let s = dpos(&g, &topo, &cost, &HardwarePerf::new());
        assert_eq!(s.placement.device_of(v), s.placement.device_of(u));
        s.placement.validate(&g, &topo).unwrap();
    }

    #[test]
    fn memory_pressure_spreads_ops() {
        // two huge variables cannot share one small device
        let mut cost = CostModels::new();
        let mut g = Graph::new();
        for i in 0..2 {
            g.add_op(
                Operation::new(format!("v{i}"), OpKind::Variable, [1]).with_param_bytes(10 << 30),
            )
            .unwrap();
            cost.comp.observe(&format!("v{i}"), D0, 0.001);
            cost.comp.observe(&format!("v{i}"), D1, 0.001);
        }
        let topo = Topology::single_server(2); // 15 GB per device; 40 GB needed per var pair
        let s = dpos(&g, &topo, &cost, &HardwarePerf::new());
        assert_ne!(
            s.placement.device_of(OpId(0)),
            s.placement.device_of(OpId(1)),
            "variables should spread under memory pressure"
        );
    }

    #[test]
    fn estimate_matches_simulation_closely() {
        // with perfect cost models, the DPOS estimate should be close to the
        // simulated makespan (modulo transfer-channel queueing)
        use fastt_sim::{simulate, ExecPolicy, SimConfig};
        let mut cost = CostModels::new();
        let g = two_chain_graph(&mut cost);
        let topo = Topology::single_server(2);
        let hw = HardwarePerf::new();
        let s = dpos(&g, &topo, &cost, &hw);
        // build a cost-model-faithful hardware? Here we check the *sim* runs
        // the schedule without deadlock and in bounded time instead.
        let cfg = SimConfig {
            iteration_overhead: 0.0,
            ..SimConfig::default()
        };
        let tr = simulate(
            &g,
            &topo,
            &s.placement,
            &hw,
            ExecPolicy::Priority(&s.order),
            &cfg,
        )
        .unwrap();
        assert!(tr.makespan > 0.0);
    }

    #[test]
    fn empty_cost_model_still_produces_valid_placement() {
        let cost = CostModels::new();
        let mut g = Graph::new();
        let a = g.add_op(Operation::new("a", OpKind::Relu, [1])).unwrap();
        let b = g.add_op(Operation::new("b", OpKind::Relu, [1])).unwrap();
        g.connect(a, b).unwrap();
        let topo = Topology::single_server(4);
        let s = dpos(&g, &topo, &cost, &HardwarePerf::new());
        s.placement.validate(&g, &topo).unwrap();
        assert_eq!(s.est_finish, 0.0);
    }

    /// An unprofiled cross-server link must not beat a profiled local one.
    /// Before the pessimistic fallback, a missing communication fit counted
    /// as a free transfer, so min-EFT happily shipped a 100 MB tensor to the
    /// other server "for free" instead of paying a profiled 2 ms NVLink hop.
    #[test]
    fn unprofiled_cross_server_edge_does_not_win_eft() {
        let topo = Topology::multi_server(2, 2); // GPUs 0..4, hosts 4 and 5
        let mut cost = CostModels::new(); // deliberately unbound: no priors
        let mut g = Graph::new();
        let a = g.add_op(Operation::new("a", OpKind::Relu, [1])).unwrap();
        let b = g.add_op(Operation::new("b", OpKind::Relu, [1])).unwrap();
        g.connect_bytes(a, b, 100_000_000).unwrap();
        // pin `a` to device 0 by making it expensive elsewhere
        cost.comp.observe("a", D0, 1e-6);
        for d in [D1, DeviceId(2), DeviceId(3)] {
            cost.comp.observe("a", d, 5.0);
        }
        // `b` is slow at home, fast everywhere else
        cost.comp.observe("b", D0, 10.0);
        for d in [D1, DeviceId(2), DeviceId(3)] {
            cost.comp.observe("b", d, 1.0);
        }
        // only the intra-server NVLink pair is profiled: 2 ms for 100 MB
        cost.comm.observe(D0, D1, 100_000_000, 2e-3);
        cost.comm.refit();
        // plain min-EFT (no CP grouping, which would colocate the chain)
        let flags = DposFlags {
            insertion: true,
            cp_grouping: false,
        };
        let s = dpos_with(&g, &topo, &cost, &HardwarePerf::new(), flags);
        // the profiled 2 ms hop to device 1 beats the analytic ~26 ms
        // staged route (PCIe + RDMA + PCIe) to either cross-server device
        assert_eq!(s.placement.device_of(a), D0);
        assert_eq!(s.placement.device_of(b), D1);
    }
}
