//! Strategies: the complete output of a placement computation
//! (the paper's Sec. 3 outputs (i)–(iii)), plus the baseline strategies
//! FastT is compared against.

use fastt_cluster::{DeviceId, Topology};
use fastt_graph::{Graph, OpId, ReplicatedGraph, SplitDecision};
use fastt_sim::{simulate, ExecPolicy, HardwarePerf, Placement, RunTrace, SimConfig, SimError};

/// A complete deployment plan: the (possibly rewritten) graph, the list of
/// split decisions that produced it, the device placement, and the
/// (optional) enforced execution order.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The graph to execute (original, replicated, and/or split).
    pub graph: Graph,
    /// Operation split list (paper output (i)).
    pub splits: Vec<SplitDecision>,
    /// Device placement (paper output (ii)).
    pub placement: Placement,
    /// Execution order (paper output (iii)); `None` runs the default FIFO
    /// executor instead of FastT's order enforcement.
    pub order: Option<Vec<OpId>>,
    /// Estimated finish time of the exit op under the cost models
    /// (`FT(o_exit)` from DPOS), or the measured time for baselines.
    pub est_finish: f64,
}

impl Plan {
    /// The executor policy this plan requests.
    pub fn policy(&self) -> ExecPolicy<'_> {
        match &self.order {
            Some(o) => ExecPolicy::Priority(o),
            None => ExecPolicy::Fifo,
        }
    }

    /// Executes one simulated training iteration of this plan.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (OOM, invalid placement).
    pub fn simulate(
        &self,
        topo: &Topology,
        hw: &HardwarePerf,
        config: &SimConfig,
    ) -> Result<RunTrace, SimError> {
        simulate(
            &self.graph,
            topo,
            &self.placement,
            hw,
            self.policy(),
            config,
        )
    }
}

/// The default data-parallel strategy (the paper's `DP` baseline, TF-slim
/// in-graph replication): replica `k`'s ops all go to GPU `k`; shared state
/// — variables, their updates and the gradient aggregation — lives on the
/// parameter-server device. TF-slim's default `variables_device` for
/// multi-clone deployments is `/device:CPU:0`, so with more than one replica
/// the PS is the server's CPU host (when the topology has one); a single
/// replica keeps everything on its GPU, as slim does.
///
/// A graph replicated with [`fastt_graph::ReplicationMode::AllReduce`] has no parameter
/// server: its aggregation is a ring collective over the replicas' GPUs, so
/// shared ops anchor on the first GPU instead of the host — staging gradients
/// through the CPU would put the host's PCIe funnel back on the path the
/// collective exists to avoid.
///
/// Use [`data_parallel_plan_on`] to pin the PS elsewhere (e.g. GPU 0, the
/// common convention for the NMT baselines that do not use slim).
///
/// # Panics
///
/// Panics if the replicated graph has more replicas than `topo` has GPUs.
pub fn data_parallel_plan(rep: &ReplicatedGraph, topo: &Topology) -> Plan {
    use fastt_graph::ReplicationMode;
    let first_gpu = topo.gpu_ids().next().unwrap_or(DeviceId(0));
    let ps = if rep.replicas > 1 && rep.mode == ReplicationMode::ParameterServer {
        // The PS host is resolved relative to the live GPUs, not server 0:
        // an allocation view whose slice lives on another server must plan
        // the same shape as its server-0 twin, or the plan cache's
        // shape-keyed sharing would disagree with fresh planning.
        topo.host_of(topo.server_of(first_gpu))
            .or_else(|| {
                topo.device_ids()
                    .find(|&d| topo.is_host(d) && !topo.is_failed(d))
            })
            .unwrap_or(first_gpu)
    } else {
        first_gpu
    };
    data_parallel_plan_on(rep, topo, ps)
}

/// [`data_parallel_plan`] with an explicit parameter-server device (used by
/// the parameter-server-placement ablation).
///
/// # Panics
///
/// Panics if the replicated graph has more replicas than `topo` has devices.
pub fn data_parallel_plan_on(rep: &ReplicatedGraph, topo: &Topology, ps: DeviceId) -> Plan {
    // Replica k runs on the k-th *live* GPU: after a device is blacklisted
    // the surviving GPUs may have non-contiguous ids, so replicas index into
    // the survivor list rather than assuming GPU ids are 0..n.
    let gpus: Vec<DeviceId> = topo.gpu_ids().collect();
    assert!(
        (rep.replicas as usize) <= gpus.len(),
        "need one device per replica"
    );
    let n = rep.graph.op_count();
    let mut placement = Placement::uniform(n, ps);
    for (oid, _) in rep.graph.iter_ops() {
        match rep.roles[oid.index()] {
            fastt_graph::ReplicaRole::Replica(k) => placement.set(oid, gpus[k as usize]),
            fastt_graph::ReplicaRole::ServerShared(s) => {
                // per-server caches/aggregators live on that server's PS:
                // its host when the global PS is a host, else its first GPU
                let local_ps = if topo.is_host(ps) {
                    topo.host_of(s).unwrap_or(ps)
                } else {
                    topo.gpu_ids()
                        .find(|&d| topo.server_of(d) == s)
                        .unwrap_or(ps)
                };
                placement.set(oid, local_ps);
            }
            fastt_graph::ReplicaRole::Shared => {} // stays on the PS
        }
    }
    Plan {
        graph: rep.graph.clone(),
        splits: Vec::new(),
        placement,
        order: None,
        est_finish: f64::NAN,
    }
}

/// A greedy layer-wise model-parallel strategy: ops in topological order are
/// packed onto consecutive devices, cutting over when a device reaches its
/// share of the total planning memory (respecting colocation groups). This
/// is both the paper's start strategy for models that cannot fit on one GPU
/// (Sec. 4) and the classical model-parallel baseline.
pub fn model_parallel_plan(graph: &Graph, topo: &Topology, hw: &HardwarePerf) -> Plan {
    // Consecutive "devices" are the live GPUs (possibly non-contiguous ids
    // after failures); per-device weights stay id-indexed.
    let gpus: Vec<DeviceId> = topo.gpu_ids().collect();
    assert!(!gpus.is_empty(), "model parallelism needs a live GPU");
    let n_dev = gpus.len();

    // Memory weight per op, by *liveness*: an output consumed only by
    // nearby ops (in topological order) is transient; an output held until
    // much later — a forward activation read by its backward op — pins
    // device memory for most of the iteration and must dominate the cut.
    let order = graph.topo_order().expect("model graphs are DAGs");
    let mut pos = vec![0usize; graph.op_count()];
    for (i, &o) in order.iter().enumerate() {
        pos[o.index()] = i;
    }
    let long_span = graph.op_count() / 4;
    let span_of = |o: fastt_graph::OpId| -> usize {
        graph
            .succs(o)
            .map(|s| pos[s.index()].saturating_sub(pos[o.index()]))
            .max()
            .unwrap_or(0)
    };
    let weight = |o: fastt_graph::OpId| -> u64 {
        let op = graph.op_ref(o);
        let act = hw.activation_bytes(op);
        let act = if span_of(o) > long_span { act } else { act / 5 };
        hw.resident_bytes(op) + act
    };

    let total: u64 = graph.op_ids().map(weight).sum();

    // Variables and optimizer updates are topological sources/sinks; placing
    // them in raw topological order would pile every variable onto the first
    // device. Instead they follow their first placed consumer/producer
    // (which also keeps weights next to the layer that uses them).
    let deferred = |o: &fastt_graph::Operation| {
        matches!(
            o.kind,
            fastt_graph::OpKind::Variable | fastt_graph::OpKind::ApplyGradient
        )
    };

    // One greedy pass at a given cut threshold (`share`). Returns the
    // placement and the resulting per-device weight totals; because
    // backward weight anchors *back* onto earlier devices, the best
    // threshold is found by searching over a few scale factors below.
    let run = |share: u64| -> (Placement, Vec<u64>) {
        let mut placement = Placement::uniform(graph.op_count(), gpus[0]);
        let mut forced: Vec<Option<DeviceId>> = vec![None; graph.op_count()];
        let mut placed = vec![false; graph.op_count()];
        let mut dev = 0usize;
        let mut used = vec![0u64; topo.device_count()];
        let place = |o: fastt_graph::OpId,
                     d: DeviceId,
                     placement: &mut Placement,
                     placed: &mut Vec<bool>,
                     forced: &mut Vec<Option<DeviceId>>| {
            placement.set(o, d);
            placed[o.index()] = true;
            if let Some(grp) = graph.colocation_group(o) {
                for &m in grp {
                    if forced[m.index()].is_none() {
                        forced[m.index()] = Some(d);
                    }
                }
            }
        };

        for &o in &order {
            if deferred(graph.op_ref(o)) || placed[o.index()] {
                continue;
            }
            // Short-lived ops (backward intermediates) run next to the
            // *forward activation* they consume — this keeps each layer's
            // forward and backward on the same device. Anchoring on a
            // long-lived predecessor (not just the biggest input) stops the
            // whole gradient chain from trailing after the loss device.
            let anchor = if span_of(o) <= long_span {
                graph
                    .in_edges(o)
                    .filter(|e| placed[e.src.index()] && span_of(e.src) > long_span)
                    .max_by_key(|e| e.bytes)
                    .map(|e| e.src)
            } else {
                None
            };
            let d = if let Some(f) = forced[o.index()] {
                used[f.index()] += weight(o);
                f
            } else if let Some(p) = anchor {
                let d = placement.device_of(p);
                used[d.index()] += weight(o);
                d
            } else {
                let mut need = weight(o);
                // the op drags its unplaced variables (and updates) along
                for p in graph.preds(o) {
                    if deferred(graph.op_ref(p))
                        && !placed[p.index()]
                        && forced[p.index()].is_none()
                    {
                        need += weight(p);
                    }
                }
                if used[gpus[dev].index()] + need > share && dev + 1 < n_dev {
                    dev += 1;
                }
                used[gpus[dev].index()] += need;
                gpus[dev]
            };
            place(o, d, &mut placement, &mut placed, &mut forced);
            for p in graph.preds(o).collect::<Vec<_>>() {
                if deferred(graph.op_ref(p)) && !placed[p.index()] {
                    let pd = forced[p.index()].unwrap_or(d);
                    place(p, pd, &mut placement, &mut placed, &mut forced);
                }
            }
        }
        // anything still unplaced (updates whose variable was placed late)
        for o in graph.op_ids() {
            if !placed[o.index()] {
                let d = forced[o.index()].unwrap_or(gpus[dev]);
                place(o, d, &mut placement, &mut placed, &mut forced);
            }
        }
        (placement, used)
    };

    // Search the cut scale that best balances the *simulated* peak memory:
    // a memory-unchecked dry run per candidate, mirroring how the paper's
    // workflow probes a strategy by actually running it before committing.
    let base_share = total / n_dev as u64 + 1;
    let probe = SimConfig {
        check_memory: false,
        ..SimConfig::default()
    };
    let mut best: Option<(u64, Placement)> = None;
    for pct in [100u64, 70, 80, 90, 110, 120, 130, 60, 50] {
        let (placement, used) = run(base_share * pct / 100);
        let peak = match simulate(graph, topo, &placement, hw, ExecPolicy::Fifo, &probe) {
            Ok(trace) => trace.max_peak_mem(),
            Err(_) => used.iter().copied().max().unwrap_or(u64::MAX),
        };
        if best.as_ref().map(|(b, _)| peak < *b).unwrap_or(true) {
            best = Some((peak, placement));
        }
    }
    let placement = best.expect("at least one pass").1;

    Plan {
        graph: graph.clone(),
        splits: Vec::new(),
        placement,
        order: None,
        est_finish: f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastt_graph::{build_training_graph, replicate, OpKind, Operation};

    fn training() -> Graph {
        let mut g = Graph::new();
        let x = g
            .add_op(Operation::new("x", OpKind::Input, [8, 4]))
            .unwrap();
        let w = g
            .add_op(Operation::new("w", OpKind::Variable, [4, 4]).with_param_bytes(64))
            .unwrap();
        let m = g
            .add_op(Operation::new("m", OpKind::MatMul, [8, 4]).with_flops(256))
            .unwrap();
        let l = g.add_op(Operation::new("l", OpKind::Loss, [])).unwrap();
        g.connect(x, m).unwrap();
        g.connect(w, m).unwrap();
        g.connect(m, l).unwrap();
        build_training_graph(&g).unwrap()
    }

    #[test]
    fn dp_places_each_replica_on_own_device() {
        let t = training();
        let rep = replicate(&t, 2).unwrap();
        let topo = Topology::single_server(2);
        let plan = data_parallel_plan(&rep, &topo);
        plan.placement.validate(&rep.graph, &topo).unwrap();
        for k in 0..2 {
            for o in rep.replica_ops(k) {
                assert_eq!(plan.placement.device_of(o), DeviceId(k as u16));
            }
        }
    }

    #[test]
    fn dp_runs_in_simulator() {
        let t = training();
        let rep = replicate(&t, 2).unwrap();
        let topo = Topology::single_server(2);
        let plan = data_parallel_plan(&rep, &topo);
        let tr = plan
            .simulate(&topo, &HardwarePerf::new(), &SimConfig::default())
            .unwrap();
        // gradient aggregation forces at least one cross-device transfer
        assert!(!tr.transfers.is_empty());
    }

    #[test]
    fn model_parallel_spreads_across_devices() {
        let t = fastt_models::Model::Vgg19.training_graph(8);
        let topo = Topology::single_server(4);
        let hw = HardwarePerf::new();
        let plan = model_parallel_plan(&t, &topo, &hw);
        plan.placement.validate(&t, &topo).unwrap();
        assert!(plan.placement.devices_used().len() >= 3);
    }

    #[test]
    fn model_parallel_respects_colocation() {
        let t = training();
        let topo = Topology::single_server(4);
        let plan = model_parallel_plan(&t, &topo, &HardwarePerf::new());
        plan.placement.validate(&t, &topo).unwrap();
    }

    #[test]
    fn plan_policy_selection() {
        let t = training();
        let topo = Topology::single_server(1);
        let mut plan = model_parallel_plan(&t, &topo, &HardwarePerf::new());
        assert!(matches!(plan.policy(), ExecPolicy::Fifo));
        plan.order = Some(t.topo_order().unwrap());
        assert!(matches!(plan.policy(), ExecPolicy::Priority(_)));
    }
}
