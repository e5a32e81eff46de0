//! Properties of the discrete-event engine: schedule invariants that must
//! hold for every graph, placement and policy, and bit-identical replay,
//! checked over a fixed range of seeded random DAGs.

use fastt_cluster::{DeviceId, Topology};
use fastt_graph::{Graph, OpId, OpKind, Operation};
use fastt_sim::{
    simulate, ExecPolicy, Fault, FaultKind, FaultSchedule, HardwarePerf, Placement, RunTrace,
    SimConfig,
};
use std::sync::Arc;

/// Every property runs once per seed in this range.
const SEEDS: std::ops::Range<u64> = 0..48;

/// xorshift64: the deterministic source of every random instance here.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A random DAG of 2–39 ops of mixed kinds, each with 0–2 predecessors
/// among the earlier ops.
fn random_dag(rng: &mut Rng) -> Graph {
    let kinds = [
        OpKind::MatMul,
        OpKind::Relu,
        OpKind::Conv2D,
        OpKind::Add,
        OpKind::Pool,
    ];
    let mut g = Graph::new();
    let n = 2 + rng.below(38);
    for i in 0..n {
        let kind = kinds[rng.below(kinds.len() as u64) as usize];
        let flops = 1 << (16 + rng.below(12));
        let elems = 1 << (8 + rng.below(8));
        let id = g
            .add_op(Operation::new(format!("o{i}"), kind, [elems]).with_flops(flops))
            .unwrap();
        if i > 0 {
            for _ in 0..rng.below(3) {
                let _ = g.connect(OpId(rng.below(i) as u32), id);
            }
        }
    }
    g
}

fn cfg() -> SimConfig {
    SimConfig {
        iteration_overhead: 0.0,
        check_memory: false,
        ..SimConfig::default()
    }
}

fn check_schedule_invariants(g: &Graph, topo: &Topology, p: &Placement, tr: &RunTrace) {
    // 1. every op executed exactly once with non-negative duration
    assert_eq!(tr.op_records.len(), g.op_count());
    for r in &tr.op_records {
        assert!(r.start >= 0.0, "{} never ran", r.op);
        assert!(r.end >= r.start);
    }
    // 2. records on one device never overlap
    let mut by_dev: std::collections::HashMap<DeviceId, Vec<(f64, f64)>> = Default::default();
    for r in &tr.op_records {
        by_dev.entry(r.device).or_default().push((r.start, r.end));
    }
    for (d, mut v) in by_dev {
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in v.windows(2) {
            assert!(
                w[1].0 >= w[0].1 - 1e-12,
                "overlap on {d}: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }
    // 3. precedence: a consumer starts at/after its producer ends
    //    (plus the transfer when remote)
    for e in g.iter_edges() {
        let src = tr.op_record(e.src);
        let dst = tr.op_record(e.dst);
        assert!(
            dst.start >= src.end - 1e-12,
            "{} started before {} finished",
            e.dst,
            e.src
        );
        if p.device_of(e.src) != p.device_of(e.dst) {
            // some transfer carrying this tensor must end before dst starts
            let ok = tr.transfers.iter().any(|t| {
                t.src_op == e.src && t.dst_dev == p.device_of(e.dst) && t.end <= dst.start + 1e-12
            });
            assert!(ok, "no arriving transfer for {} -> {}", e.src, e.dst);
        }
    }
    // 4. makespan covers everything; busy time never exceeds it
    let max_end = tr.op_records.iter().map(|r| r.end).fold(0.0f64, f64::max);
    assert!((tr.makespan - max_end).abs() < 1e-9);
    for d in topo.device_ids() {
        assert!(tr.device_busy[d.index()] <= tr.makespan + 1e-9);
    }
}

/// The schedule invariants hold on 1–4 GPUs under FIFO on a single
/// device, under a topology-order priority (which does the same total
/// work), and under a random placement (which never loses an op).
#[test]
fn schedule_invariants_hold() {
    let hw = HardwarePerf::new();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let g = random_dag(&mut rng);
        let gpus = 1 + rng.below(4) as u16;
        let topo = Topology::single_server(gpus);

        let single = Placement::uniform(g.op_count(), DeviceId(0));
        let fifo = simulate(&g, &topo, &single, &hw, ExecPolicy::Fifo, &cfg()).unwrap();
        check_schedule_invariants(&g, &topo, &single, &fifo);

        let order = g.topo_order().unwrap();
        let prio = simulate(
            &g,
            &topo,
            &single,
            &hw,
            ExecPolicy::Priority(&order),
            &cfg(),
        )
        .unwrap();
        check_schedule_invariants(&g, &topo, &single, &prio);
        assert!(
            (fifo.total_compute_time() - prio.total_compute_time()).abs() < 1e-9,
            "seed {seed}: policy changed the total work"
        );

        let spread = Placement::new(
            (0..g.op_count())
                .map(|_| DeviceId(rng.below(u64::from(gpus)) as u16))
                .collect(),
        );
        let tr = simulate(&g, &topo, &spread, &hw, ExecPolicy::Fifo, &cfg()).unwrap();
        check_schedule_invariants(&g, &topo, &spread, &tr);
    }
}

/// Runs replay bit-identically with jitter on, both fault-free and under a
/// four-fault schedule (straggler, degraded link, transient op failures,
/// memory pressure) whose window, severity and iteration vary per seed.
#[test]
fn simulation_is_deterministic() {
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let g = random_dag(&mut rng);
        let gpus = 2 + rng.below(3) as u16;
        let topo = Topology::single_server(gpus);
        let p = Placement::uniform(g.op_count(), DeviceId(0));
        let (d0, d1) = (DeviceId(0), DeviceId(gpus - 1));
        let factor = rng.range(1.5, 8.0);
        let prob = rng.range(0.0, 1.0);
        let from = rng.below(30);
        let window = |kind| Fault::windowed(kind, from, from + 10);
        let four_faults = Arc::new(FaultSchedule::new(vec![
            window(FaultKind::Straggler {
                device: d0,
                slowdown: factor,
            }),
            window(FaultKind::LinkDegrade {
                src: d0,
                dst: d1,
                factor,
            }),
            window(FaultKind::TransientOp { device: d0, prob }),
            window(FaultKind::MemPressure {
                device: d1,
                reserve_bytes: 1 << 30,
            }),
        ]));
        let c = SimConfig {
            jitter_pct: 0.05,
            seed: rng.next(),
            iteration: rng.below(40),
            ..cfg()
        };
        for faults in [None, Some(four_faults)] {
            let c = SimConfig {
                faults: faults.clone(),
                ..c.clone()
            };
            let run = || simulate(&g, &topo, &p, &HardwarePerf::new(), ExecPolicy::Fifo, &c);
            let ctx = format!("seed {seed}, faults: {}", faults.is_some());
            match (run(), run()) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.makespan, b.makespan, "{ctx}");
                    assert_eq!(a.reexecutions, b.reexecutions, "{ctx}");
                    assert_eq!(a.op_records, b.op_records, "{ctx}");
                    assert_eq!(a.transfers, b.transfers, "{ctx}");
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{ctx}"),
                (a, b) => panic!("{ctx}: diverged: {:?} vs {:?}", a.is_ok(), b.is_ok()),
            }
        }
    }
}
