//! The fuzzer's scenario model: one value per axis of the scenario space
//! (graph shape, topology, fault/lifecycle schedule, planner choice, fleet
//! workload), each axis independently generatable from a [`SeedStream`]
//! and independently shrinkable by the minimizer.
//!
//! The fault and lifecycle axes hold `fastt-sim`'s own [`Fault`] and
//! [`LifecycleEvent`] values, whose scenario-line codec round-trips every
//! value exactly, so the replay codec ([`crate::replay`]) does too.

use fastt_cluster::{Device, DeviceId, Topology, TopologyBuilder};
use fastt_graph::{build_training_graph, Graph};
use fastt_models::LayerStack;
use fastt_sim::seed::{domains, SeedStream};
use fastt_sim::{Fault, FaultKind, FaultSchedule, LifecycleEvent, LifecycleKind};

/// One unit of the layer grammar. The grammar spans the shapes the paper's
/// planners are sensitive to: plain chains (`Dense`), width fan-outs that
/// re-join (`Fan`), residual stacked blocks (`Block`), and normalization
/// layers that break splittability (`Norm`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerSpec {
    /// A fully-connected layer of the given width.
    Dense {
        /// Output features.
        width: u64,
    },
    /// `branches` parallel fully-connected layers concatenated back
    /// together (inception-style width).
    Fan {
        /// Per-branch output features.
        width: u64,
        /// Parallel branches (≥ 2).
        branches: u64,
    },
    /// A residual block: two width-preserving dense layers with a ReLU
    /// between, added back onto the input.
    Block,
    /// Layer normalization (not splittable — exercises the planners'
    /// non-splittable paths).
    Norm,
}

/// Seed-derived graph shape: an optional convolutional stem on an 8×8×3
/// image, then a run of grammar layers on the flattened features.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSpec {
    /// Mini-batch size.
    pub batch: u64,
    /// Convolutional stem layers (0–2) before the flatten.
    pub conv_prefix: u8,
    /// Grammar layers after the (possibly empty) stem.
    pub layers: Vec<LayerSpec>,
}

impl GraphSpec {
    /// Builds the forward graph the spec describes.
    pub fn forward(&self) -> Graph {
        let mut s = if self.conv_prefix > 0 {
            let mut s = LayerStack::new("in", [self.batch, 8, 8, 3]);
            for i in 0..self.conv_prefix {
                s.conv(&format!("stem{i}"), 4 << i, 3, 1);
                s.relu(&format!("stem{i}_relu"));
            }
            s.flatten();
            s
        } else {
            LayerStack::new("in", [self.batch, 16])
        };
        for (i, layer) in self.layers.iter().enumerate() {
            match layer {
                LayerSpec::Dense { width } => {
                    s.fc(&format!("l{i}_fc"), *width);
                }
                LayerSpec::Fan { width, branches } => {
                    let fork = s.mark();
                    let mut arms = Vec::new();
                    for b in 0..*branches {
                        s.goto(&fork);
                        s.fc(&format!("l{i}_b{b}"), *width);
                        arms.push(s.mark());
                    }
                    let (first, rest) = arms.split_first().expect("branches >= 2");
                    s.goto(first);
                    s.concat(&format!("l{i}_join"), rest);
                }
                LayerSpec::Block => {
                    let w = s.shape().dim(s.shape().rank() - 1);
                    let skip = s.mark();
                    s.fc(&format!("l{i}_fc_a"), w);
                    s.relu(&format!("l{i}_relu"));
                    s.fc(&format!("l{i}_fc_b"), w);
                    s.add_residual(&format!("l{i}_res"), &skip);
                }
                LayerSpec::Norm => {
                    s.layer_norm(&format!("l{i}_ln"));
                }
            }
        }
        s.finish_with_loss("loss")
    }

    /// Builds the per-iteration training graph (forward + backward +
    /// optimizer), the graph every scenario actually plans and runs.
    pub fn training(&self) -> Graph {
        build_training_graph(&self.forward()).expect("grammar produces valid DAGs")
    }

    /// Number of ops in the forward graph — the "graph ops" budget the
    /// minimizer reports (the training graph is a fixed multiple of it).
    pub fn forward_op_count(&self) -> usize {
        self.forward().op_count()
    }
}

/// Link wiring profile for generated topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkProfile {
    /// NVLink intra-server, 25 GbE inter-server (the default
    /// `Topology::multi_server` wiring).
    Nvlink,
    /// PCIe everywhere intra-server (older hosts), 25 GbE inter-server.
    Pcie,
    /// NVLink intra-server with 100 G RDMA between servers.
    Rdma,
}

impl LinkProfile {
    /// Stable lowercase label for the replay codec.
    pub fn as_str(self) -> &'static str {
        match self {
            LinkProfile::Nvlink => "nvlink",
            LinkProfile::Pcie => "pcie",
            LinkProfile::Rdma => "rdma",
        }
    }
}

/// Seed-derived topology shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoSpec {
    /// Server count (≥ 1).
    pub servers: u16,
    /// GPUs per server (≥ 1).
    pub gpus: u16,
    /// Link classes.
    pub links: LinkProfile,
}

impl TopoSpec {
    /// Total GPU count.
    pub fn total_gpus(&self) -> u16 {
        self.servers * self.gpus
    }

    /// Builds the topology. Matches `Topology::multi_server`'s GPU-first
    /// id layout (GPU ids `0..servers*gpus`, hosts after) so device ids
    /// drawn by the fault axis line up.
    pub fn build(&self) -> Topology {
        if matches!(self.links, LinkProfile::Nvlink) {
            return Topology::multi_server(self.servers, self.gpus);
        }
        use fastt_cluster::Link;
        let mut b = TopologyBuilder::new();
        for srv in 0..self.servers {
            for g in 0..self.gpus {
                b.add_device(Device::v100(format!("srv{srv}/gpu{g}")), srv);
            }
        }
        for srv in 0..self.servers {
            b.add_device(Device::host(format!("srv{srv}/cpu")), srv);
        }
        match self.links {
            LinkProfile::Pcie => {
                b.connect_intra_server(Link::pcie());
                b.connect_inter_server(Link::ethernet_25g());
            }
            LinkProfile::Rdma => {
                b.connect_intra_server(Link::nvlink());
                b.connect_inter_server(Link::rdma_100g());
            }
            LinkProfile::Nvlink => unreachable!(),
        }
        b.connect_host_pcie(Link::pcie());
        b.build()
    }
}

/// Which planner path the scenario exercises for the plan-level
/// invariants (placement validity, comm-plan lowering, cache identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerChoice {
    /// Flat DPOS only.
    Flat,
    /// The portfolio slate: DPOS, the data-parallel start strategy, and
    /// the hierarchical planner, each checked independently.
    Portfolio,
    /// Hierarchical (decompose → quotient DPOS → refine) only.
    Hierarchical,
}

impl PlannerChoice {
    /// Stable lowercase label for the replay codec.
    pub fn as_str(self) -> &'static str {
        match self {
            PlannerChoice::Flat => "flat",
            PlannerChoice::Portfolio => "portfolio",
            PlannerChoice::Hierarchical => "hierarchical",
        }
    }
}

/// One fleet job riding the scenario's shared cluster. All jobs train the
/// scenario's graph (deliberately: identical model + shape admissions are
/// the shared-plan-cache twin path the PR 8 equivariance bug hid in).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzJob {
    /// Scheduler tick the job arrives at.
    pub arrival: u64,
    /// Iterations the job runs.
    pub iters: u64,
    /// GPUs requested.
    pub gpus: usize,
    /// Preemption floor.
    pub min_gpus: usize,
    /// Priority (higher wins).
    pub priority: u8,
}

/// A full fuzz scenario: one point in the cross-product of every axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Root seed: drives the session's jitter stream and all derived
    /// sub-streams.
    pub seed: u64,
    /// Iterations the single-session run executes.
    pub iters: u64,
    /// Graph-shape axis.
    pub graph: GraphSpec,
    /// Topology axis.
    pub topo: TopoSpec,
    /// Fault-schedule axis.
    pub faults: Vec<Fault>,
    /// Lifecycle (churn) axis.
    pub lifecycle: Vec<LifecycleEvent>,
    /// Planner-choice axis.
    pub planner: PlannerChoice,
    /// Fleet-workload axis (empty = single-session scenario).
    pub jobs: Vec<FuzzJob>,
}

impl Scenario {
    /// Lowers the fault + lifecycle axes to a [`FaultSchedule`].
    pub fn fault_schedule(&self) -> FaultSchedule {
        self.lifecycle.iter().cloned().fold(
            FaultSchedule::new(self.faults.clone()),
            FaultSchedule::with_lifecycle,
        )
    }

    /// Drops any fault/lifecycle/job entry that no longer fits the
    /// topology or iteration budget — called by the minimizer after every
    /// axis reduction so shrunk scenarios stay well-formed.
    pub fn sanitize(&mut self) {
        let (gpus, servers) = (self.topo.total_gpus(), self.topo.servers);
        self.faults.retain(|f| f.fits(gpus, servers));
        self.lifecycle.retain(|l| l.fits(gpus));
        let total = gpus as usize;
        if total < 4 {
            // the fleet scheduler needs at least 4 GPUs of headroom
            self.jobs.clear();
        }
        for j in &mut self.jobs {
            j.gpus = j.gpus.clamp(1, total);
            j.min_gpus = j.min_gpus.clamp(1, j.gpus);
        }
    }

    /// Deterministically generates scenario `index` of the sweep rooted
    /// at `root_seed`. Every axis draws from its own collision-free
    /// sub-stream ([`SeedStream::split`]), so axes can be varied or
    /// shrunk independently without perturbing each other.
    pub fn generate(root_seed: u64, index: u64) -> Scenario {
        let root = SeedStream::domain(root_seed, domains::FUZZ).split(index);
        let (gs, ts, fs, ls, ps, js) = (
            root.split(1),
            root.split(2),
            root.split(3),
            root.split(4),
            root.split(5),
            root.split(6),
        );

        // --- topology axis ---
        let servers = 1 + ts.pick(0, 3) as u16; // 1..=3
        let gpus = 1 + ts.pick(1, 4) as u16; // 1..=4
        let links = match ts.pick(2, 3) {
            0 => LinkProfile::Nvlink,
            1 => LinkProfile::Pcie,
            _ => LinkProfile::Rdma,
        };
        let topo = TopoSpec {
            servers,
            gpus,
            links,
        };
        let total = topo.total_gpus();

        // --- graph axis ---
        let conv_prefix = gs.pick(0, 3) as u8; // 0..=2
        let n_layers = 1 + gs.pick(1, 5) as usize; // 1..=5
        let layers = (0..n_layers)
            .map(|i| {
                let s = gs.split(10 + i as u64);
                match s.pick(0, 6) {
                    0 | 1 => LayerSpec::Dense {
                        width: 8 << s.pick(1, 4), // 8..=64
                    },
                    2 => LayerSpec::Fan {
                        width: 8 << s.pick(1, 3),
                        branches: 2 + s.pick(2, 2), // 2..=3
                    },
                    3 | 4 => LayerSpec::Block,
                    _ => LayerSpec::Norm,
                }
            })
            .collect();
        let graph = GraphSpec {
            batch: 2 << gs.pick(2, 3), // 2, 4, 8
            conv_prefix,
            layers,
        };

        let iters = 12 + root.pick(7, 17); // 12..=28

        // --- fault axis ---
        let n_faults = fs.pick(0, 4); // 0..=3
        let mut faults = Vec::new();
        for i in 0..n_faults {
            let s = fs.split(20 + i);
            let dev = s.pick(0, total as u64) as u16;
            let device = DeviceId(dev);
            let other = |salt| DeviceId((dev + 1 + s.pick(salt, total as u64 - 1) as u16) % total);
            let from = s.pick(1, iters / 2);
            let to = from + 1 + s.pick(2, iters / 3);
            let windowed = |kind| Fault::windowed(kind, from, to);
            // factors carry one decimal place, probabilities whole percent
            let tenths = |salt, base, span| (base + s.pick(salt, span)) as f64 / 10.0;
            let percent = |salt, base, span| (base + s.pick(salt, span)) as f64 / 100.0;
            let fault = match s.pick(3, 10) {
                0 => windowed(FaultKind::Straggler {
                    device,
                    slowdown: tenths(4, 20, 40),
                }),
                1 if total >= 2 => windowed(FaultKind::LinkDegrade {
                    src: device,
                    dst: other(4),
                    factor: tenths(5, 20, 60),
                }),
                2 => windowed(FaultKind::TransientOp {
                    device,
                    prob: percent(4, 30, 60),
                }),
                3 => Fault::from(
                    FaultKind::ProfileFailure {
                        device,
                        fail_attempts: 1 + s.pick(4, 6) as u32,
                    },
                    0,
                ),
                4 if total >= 2 => Fault::from(
                    FaultKind::Crash { device },
                    iters / 3 + s.pick(4, iters / 3),
                ),
                5 => windowed(FaultKind::MemPressure {
                    device,
                    reserve_bytes: (256 << s.pick(4, 5)) << 20,
                }),
                6 if total >= 2 => windowed(FaultKind::LinkFlap {
                    src: device,
                    dst: other(4),
                    prob: percent(5, 10, 40),
                }),
                7 if servers >= 2 => Fault::from(
                    FaultKind::HostPartition {
                        server: s.pick(4, servers as u64) as u16,
                    },
                    iters / 2 + s.pick(5, iters / 4),
                ),
                8 => windowed(FaultKind::CollectiveStraggler {
                    device,
                    slowdown: tenths(4, 30, 40),
                }),
                _ => windowed(FaultKind::NicDegrade {
                    server: s.pick(4, servers as u64) as u16,
                    factor: tenths(5, 40, 80),
                }),
            };
            faults.push(fault);
        }

        // --- lifecycle axis ---
        let n_life = ls.pick(0, 3); // 0..=2
        let mut lifecycle = Vec::new();
        for i in 0..n_life {
            let s = ls.split(30 + i);
            let device = DeviceId(s.pick(0, total as u64) as u16);
            let at = 2 + s.pick(1, iters / 2);
            let event = match s.pick(2, 4) {
                0 if total >= 2 => LifecycleEvent::at(
                    LifecycleKind::SpotRevocation {
                        device,
                        notice_iters: 2 + s.pick(3, 3),
                    },
                    at,
                ),
                1 => LifecycleEvent::at(LifecycleKind::DeviceRestore { device }, at + 4),
                2 => LifecycleEvent::at(
                    LifecycleKind::HostArrival {
                        gpus: 1 + s.pick(3, 2) as u16,
                    },
                    at,
                ),
                _ => LifecycleEvent::at(LifecycleKind::DeviceArrival { device }, at + 3),
            };
            lifecycle.push(event);
        }

        // --- planner axis ---
        let planner = match ps.pick(0, 3) {
            0 => PlannerChoice::Flat,
            1 => PlannerChoice::Portfolio,
            _ => PlannerChoice::Hierarchical,
        };

        // --- fleet axis: only on clusters with scheduler headroom, and
        // only for a third of scenarios (fleet runs are the costliest) ---
        let mut jobs: Vec<FuzzJob> = Vec::new();
        if total >= 4 && js.pick(0, 3) == 0 {
            let n_jobs = 2 + js.pick(1, 3); // 2..=4, always includes a twin pair
            for i in 0..n_jobs {
                let s = js.split(40 + i);
                let twin_of_first = i == 1; // job 1 mirrors job 0: the cache-twin path
                let gpus = if twin_of_first {
                    jobs[0].gpus
                } else {
                    1 + s.pick(0, (total as u64 / 2).max(1)) as usize
                };
                jobs.push(FuzzJob {
                    arrival: i + s.pick(1, 3),
                    iters: 4 + s.pick(2, 6),
                    gpus,
                    min_gpus: 1,
                    priority: 1 + s.pick(3, 4) as u8,
                });
            }
        }

        let mut sc = Scenario {
            seed: root.subseed(8),
            iters,
            graph,
            topo,
            faults,
            lifecycle,
            planner,
            jobs,
        };
        sc.sanitize();
        sc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_index_sensitive() {
        let a = Scenario::generate(0, 3);
        let b = Scenario::generate(0, 3);
        assert_eq!(a, b);
        let c = Scenario::generate(0, 4);
        assert_ne!(a, c);
    }

    /// The fault and lifecycle axes generate exactly these schedules.
    #[test]
    fn generated_fault_schedules_are_pinned() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (root, count) in [(0, 200), (7, 48)] {
            for i in 0..count {
                let schedule = format!("{:?}", Scenario::generate(root, i).fault_schedule());
                for b in schedule.bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(h, 9842495519432885326);
    }

    #[test]
    fn generated_graphs_are_valid_dags() {
        for i in 0..24 {
            let sc = Scenario::generate(1, i);
            let g = sc.graph.training();
            assert!(g.op_count() > 0, "scenario {i} built an empty graph");
            assert!(
                sc.topo.build().validate().is_ok(),
                "scenario {i} built an invalid topology"
            );
        }
    }

    #[test]
    fn sanitize_drops_out_of_range_references() {
        let mut sc = Scenario::generate(0, 0);
        sc.faults.push(Fault::from(
            FaultKind::Crash {
                device: DeviceId(250),
            },
            1,
        ));
        sc.lifecycle.push(LifecycleEvent::at(
            LifecycleKind::DeviceRestore {
                device: DeviceId(251),
            },
            1,
        ));
        sc.sanitize();
        let (gpus, servers) = (sc.topo.total_gpus(), sc.topo.servers);
        assert!(sc.faults.iter().all(|f| f.fits(gpus, servers)));
        assert!(sc.lifecycle.iter().all(|l| l.fits(gpus)));
    }
}
