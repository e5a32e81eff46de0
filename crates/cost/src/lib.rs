//! # fastt-cost
//!
//! Adaptive cost models for the FastT reproduction (Sec. 4 of the paper):
//! the **computation** cost model (execution time of a (sub-)operation on a
//! device, keyed by op name and device) and the **communication** cost model
//! (per-device-pair linear regression of tensor size vs. transfer time).
//!
//! Both models are *learned from profiled traces* — the simulator's
//! [`fastt_sim::RunTrace`] plays the role of TensorFlow's `RunMetadata` —
//! never read directly from the hardware ground truth. Bound to a topology
//! ([`CostModels::bind_topology`]), the communication model keys its
//! regressions on link *classes* and composes them along physical routes;
//! unprofiled computation entries stay at zero cost so the algorithms
//! explore (Sec. 4), while unprofiled communication falls back to seeded
//! link-spec priors — treating an unprofiled NIC as free distorts every
//! earliest-finish-time comparison it appears in.
//!
//! # Examples
//!
//! ```
//! use fastt_cluster::{DeviceId, Topology};
//! use fastt_cost::CostModels;
//! use fastt_graph::{Graph, OpKind, Operation};
//! use fastt_sim::{simulate, ExecPolicy, HardwarePerf, Placement, SimConfig};
//!
//! let mut g = Graph::new();
//! let a = g.add_op(Operation::new("a", OpKind::Input, [1 << 20]))?;
//! let b = g.add_op(Operation::new("b", OpKind::Relu, [1 << 20]))?;
//! g.connect(a, b)?;
//! let topo = Topology::single_server(2);
//! let mut p = Placement::uniform(g.op_count(), DeviceId(0));
//! p.set(b, DeviceId(1));
//!
//! let trace = simulate(&g, &topo, &p, &HardwarePerf::new(),
//!                      ExecPolicy::Fifo, &SimConfig::default())?;
//! let mut cost = CostModels::new();
//! cost.update_from_trace(&g, &trace);
//! assert!(cost.comp.get("a", DeviceId(0)).is_some());
//! assert!(cost.comm.predict(DeviceId(0), DeviceId(1), 4 << 20).is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comm;
mod comp;
mod linreg;

pub use comm::{CommCostModel, ResolvedMaxComm, ResolvedPair, DEFAULT_DISTRUST_FACTOR};
pub use comp::{canonical_name, CompCostModel, OpTimes};
pub use linreg::LinReg;

use fastt_graph::Graph;
use fastt_sim::RunTrace;
use fastt_telemetry::{jobj, Collector};
use std::sync::Arc;

/// The pair of adaptive cost models FastT maintains (Sec. 3, input (c)).
#[derive(Debug, Clone, Default)]
pub struct CostModels {
    /// Execution time of each (sub-)operation per device.
    pub comp: CompCostModel,
    /// Tensor transfer time per device pair.
    pub comm: CommCostModel,
    collector: Option<Arc<Collector>>,
}

impl CostModels {
    /// Creates empty cost models.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds the communication model to a cluster (see
    /// [`CommCostModel::bind_topology`]): class-keyed fits, route-composed
    /// predictions, and link-spec priors for never-profiled classes. Does
    /// not advance [`CostModels::generation`] unless pre-bind per-pair
    /// samples had to be re-bucketed.
    pub fn bind_topology(&mut self, topo: &fastt_cluster::Topology) {
        self.comm.bind_topology(topo);
    }

    /// Attaches a telemetry collector: each subsequent
    /// [`CostModels::update_from_trace`] scores the *pre-update* models
    /// against the fresh trace (a `cost.error` event plus the `cost.mape`
    /// gauge and `cost.rel_error` histogram).
    pub fn set_collector(&mut self, collector: Arc<Collector>) {
        self.collector = Some(collector);
    }

    /// Ingests one profiled iteration: op records feed the computation
    /// model, transfer records feed the communication model.
    pub fn update_from_trace(&mut self, graph: &Graph, trace: &RunTrace) {
        if let Some(col) = self.collector.clone() {
            self.score_trace(graph, trace, &col);
        }
        self.comp.update_from_trace(graph, trace);
        self.comm.update_from_trace(trace);
    }

    /// Prediction-vs-actual accuracy of the current models on `trace`,
    /// *before* the trace is ingested: mean absolute percentage error over
    /// every record the models can predict.
    fn score_trace(&self, graph: &Graph, trace: &RunTrace, col: &Collector) {
        let mut sum = 0.0f64;
        let mut n = 0u64;
        let mut worst = 0.0f64;
        for r in &trace.op_records {
            let actual = r.duration();
            if actual <= 0.0 {
                continue;
            }
            if let Some(pred) = self.comp.get(&graph.op_ref(r.op).name, r.device) {
                let rel = (pred - actual).abs() / actual;
                col.metrics().observe("cost.rel_error", rel);
                sum += rel;
                worst = worst.max(rel);
                n += 1;
            }
        }
        let mut comm_sum = 0.0f64;
        let mut comm_n = 0u64;
        for t in &trace.transfers {
            let actual = t.duration();
            if actual <= 0.0 {
                continue;
            }
            if let Some(pred) = self.comm.predict(t.src_dev, t.dst_dev, t.bytes) {
                let rel = (pred - actual).abs() / actual;
                col.metrics().observe("cost.rel_error", rel);
                comm_sum += rel;
                worst = worst.max(rel);
                comm_n += 1;
            }
        }
        if n + comm_n == 0 {
            return; // nothing predictable yet (first profile)
        }
        let mape = (sum + comm_sum) / (n + comm_n) as f64;
        col.metrics().set_gauge("cost.mape", mape);
        col.emit(
            "cost.error",
            jobj! {
                "mape" => mape,
                "worst" => worst,
                "comp_samples" => n,
                "comm_samples" => comm_n,
            },
        );
    }

    /// Re-seeds a pessimistic communication prior for one directed hop after
    /// a link health change (see [`CommCostModel::distrust_link`]): the
    /// hop's line is scaled by `factor` via a per-pair override, leaving the
    /// healthy same-class fit untouched. Advances [`CostModels::generation`].
    pub fn distrust_link(
        &mut self,
        src: fastt_cluster::DeviceId,
        dst: fastt_cluster::DeviceId,
        factor: f64,
    ) -> bool {
        self.comm.distrust_link(src, dst, factor)
    }

    /// Drops the distrust override for a directed hop (see
    /// [`CommCostModel::trust_link`]).
    pub fn trust_link(&mut self, src: fastt_cluster::DeviceId, dst: fastt_cluster::DeviceId) {
        self.comm.trust_link(src, dst)
    }

    /// Whether every op of `graph` has at least one profiled execution.
    pub fn covers(&self, graph: &Graph) -> bool {
        self.comp.covers(graph)
    }

    /// Whether computation times have drifted less than `eps` (relative)
    /// since the last [`CostModels::snapshot`] — the paper's pre-training
    /// termination condition.
    pub fn is_stable(&self, eps: f64) -> bool {
        self.comp.max_drift() <= eps
    }

    /// Remembers current means for the next stability check.
    pub fn snapshot(&mut self) {
        self.comp.snapshot();
    }

    /// Combined monotonic model generation: advances whenever the
    /// computation model absorbs a real measurement or the communication
    /// model refits its per-pair lines. Analytic seeding
    /// ([`CompCostModel::seed`]) deliberately does *not* advance it — seeds
    /// are derived from existing knowledge and never invalidate a cached
    /// plan on their own.
    pub fn generation(&self) -> u64 {
        self.comp.generation() + self.comm.generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastt_cluster::{DeviceId, Topology};
    use fastt_graph::{OpKind, Operation};
    use fastt_sim::{simulate, ExecPolicy, HardwarePerf, Placement, SimConfig};

    fn tiny() -> (Graph, Topology, Placement) {
        let mut g = Graph::new();
        let a = g
            .add_op(Operation::new("a", OpKind::Input, [1 << 20]))
            .unwrap();
        let b = g
            .add_op(Operation::new("b", OpKind::MatMul, [1 << 18]).with_flops(1 << 30))
            .unwrap();
        g.connect(a, b).unwrap();
        let topo = Topology::single_server(2);
        let mut p = Placement::uniform(g.op_count(), DeviceId(0));
        p.set(b, DeviceId(1));
        (g, topo, p)
    }

    #[test]
    fn bootstraps_from_trace() {
        let (g, topo, p) = tiny();
        let trace = simulate(
            &g,
            &topo,
            &p,
            &HardwarePerf::new(),
            ExecPolicy::Fifo,
            &SimConfig::default(),
        )
        .unwrap();
        let mut cm = CostModels::new();
        assert!(!cm.covers(&g));
        cm.update_from_trace(&g, &trace);
        assert!(cm.covers(&g));
        assert_eq!(cm.comm.pair_count(), 1);
    }

    #[test]
    fn learned_times_match_ground_truth() {
        let (g, topo, p) = tiny();
        let hw = HardwarePerf::new();
        let trace = simulate(&g, &topo, &p, &hw, ExecPolicy::Fifo, &SimConfig::default()).unwrap();
        let mut cm = CostModels::new();
        cm.update_from_trace(&g, &trace);
        let learned = cm.comp.get("b", DeviceId(1)).unwrap();
        let truth = hw.exec_time(&g, g.by_name("b").unwrap(), topo.device(DeviceId(1)));
        assert!((learned - truth).abs() / truth < 1e-9);
    }

    #[test]
    fn stability_after_repeated_identical_runs() {
        let (g, topo, p) = tiny();
        let hw = HardwarePerf::new();
        let mut cm = CostModels::new();
        let trace = simulate(&g, &topo, &p, &hw, ExecPolicy::Fifo, &SimConfig::default()).unwrap();
        cm.update_from_trace(&g, &trace);
        cm.snapshot();
        cm.update_from_trace(&g, &trace);
        assert!(cm.is_stable(0.01));
    }

    #[test]
    fn generation_tracks_measurements_not_seeds() {
        let (g, topo, p) = tiny();
        let mut cm = CostModels::new();
        assert_eq!(cm.generation(), 0);

        // seeding is an analytic prior, not new knowledge
        cm.comp.seed("b", &[DeviceId(0), DeviceId(1)], 1e-3);
        assert_eq!(cm.generation(), 0);

        // a real observation bumps the computation side
        cm.comp.observe("b", DeviceId(0), 2e-3);
        let after_obs = cm.generation();
        assert!(after_obs > 0);

        // a comm refit bumps the communication side
        cm.comm.refit();
        assert!(cm.generation() > after_obs);

        // trace ingestion (observe + refit) advances it too
        let before = cm.generation();
        let trace = simulate(
            &g,
            &topo,
            &p,
            &HardwarePerf::new(),
            ExecPolicy::Fifo,
            &SimConfig::default(),
        )
        .unwrap();
        cm.update_from_trace(&g, &trace);
        assert!(cm.generation() > before);
    }

    #[test]
    fn jittered_runs_converge_with_more_samples() {
        let (g, topo, p) = tiny();
        let hw = HardwarePerf::new();
        let mut cm = CostModels::new();
        for it in 0..30 {
            let cfg = SimConfig {
                jitter_pct: 0.05,
                iteration: it,
                ..SimConfig::default()
            };
            let trace = simulate(&g, &topo, &p, &hw, ExecPolicy::Fifo, &cfg).unwrap();
            cm.update_from_trace(&g, &trace);
        }
        let learned = cm.comp.get("b", DeviceId(1)).unwrap();
        let truth = hw.exec_time(&g, g.by_name("b").unwrap(), topo.device(DeviceId(1)));
        // mean of ±5% jitter over 30 samples should be within ~3%
        assert!((learned - truth).abs() / truth < 0.03);
    }
}
