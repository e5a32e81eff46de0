//! Properties of the graph substrate, checked exhaustively over small
//! layered networks: autodiff, replication and splitting keep their
//! structural invariants on every net in the domain.

use fastt_graph::{
    build_training_graph, replicate, split_operation, Graph, OpKind, Operation, SplitDim,
};

/// Builds a layered forward network: `layers` MatMul stages, each with
/// its own variable, ending in a Loss. Batch and width are powers of two so
/// splits always divide evenly.
fn layered_forward(layers: usize, batch: u64, width: u64) -> Graph {
    let mut g = Graph::new();
    let x = g
        .add_op(Operation::new("x", OpKind::Input, [batch, width]))
        .unwrap();
    let mut prev = x;
    for i in 0..layers {
        let w = g
            .add_op(
                Operation::new(format!("w{i}"), OpKind::Variable, [width, width])
                    .with_param_bytes(width * width * 4),
            )
            .unwrap();
        let mm = g
            .add_op(
                Operation::new(format!("mm{i}"), OpKind::MatMul, [batch, width])
                    .with_flops(2 * batch * width * width),
            )
            .unwrap();
        g.connect(prev, mm).unwrap();
        g.connect(w, mm).unwrap();
        let r = g
            .add_op(Operation::new(
                format!("relu{i}"),
                OpKind::Relu,
                [batch, width],
            ))
            .unwrap();
        g.connect(mm, r).unwrap();
        prev = r;
    }
    let loss = g.add_op(Operation::new("loss", OpKind::Loss, [])).unwrap();
    g.connect(prev, loss).unwrap();
    g
}

/// Autodiff always produces a valid DAG with exactly one grad op per
/// differentiable forward op and one apply op per variable: layers 1–7 ×
/// batch 2^0–2^3 × width 2^2–2^5.
#[test]
fn autodiff_structure() {
    for layers in 1..8 {
        for batch in (0..4).map(|p| 1u64 << p) {
            for width in (2..6).map(|p| 1u64 << p) {
                let fwd = layered_forward(layers, batch, width);
                let t = build_training_graph(&fwd).unwrap();
                t.validate().unwrap();
                let ctx = format!("{layers} layers, batch {batch}, width {width}");

                let fwd_diff = fwd
                    .iter_ops()
                    .filter(|(_, o)| !matches!(o.kind, OpKind::Input | OpKind::Variable))
                    .count();
                let n_grad = t
                    .iter_ops()
                    .filter(|(_, o)| o.name.starts_with("grad/"))
                    .count();
                assert_eq!(fwd_diff, n_grad, "{ctx}: grad ops");

                let n_vars = fwd.iter_ops().filter(|(_, o)| o.kind.is_variable()).count();
                let n_apply = t
                    .iter_ops()
                    .filter(|(_, o)| o.kind == OpKind::ApplyGradient)
                    .count();
                assert_eq!(n_vars, n_apply, "{ctx}: apply ops");
            }
        }
    }
}

/// Parameter-server replication keeps variables and updates shared,
/// multiplies everything else, and adds one aggregation op per variable
/// (when n > 1): layers 1–4 × n 1–8.
#[test]
fn replicate_counts() {
    for layers in 1..5 {
        let t = build_training_graph(&layered_forward(layers, 8, 16)).unwrap();
        let n_vars = t.iter_ops().filter(|(_, o)| o.kind.is_variable()).count();
        let shared = 2 * n_vars; // each variable + its update
        for n in 1..9u32 {
            let r = replicate(&t, n).unwrap();
            r.graph.validate().unwrap();
            let expected_agg = if n > 1 { n_vars } else { 0 };
            assert_eq!(
                r.graph.op_count(),
                (t.op_count() - shared) * n as usize + shared + expected_agg,
                "{layers} layers, {n} replicas"
            );
            // shared state is untagged; per-replica ops are tagged
            for (oid, op) in r.graph.iter_ops() {
                let is_shared = matches!(
                    op.kind,
                    OpKind::AggregateGradients | OpKind::Variable | OpKind::ApplyGradient
                );
                assert_eq!(
                    r.replica_of(oid).is_none(),
                    is_shared,
                    "{layers} layers, {n} replicas: {}",
                    op.name
                );
            }
        }
    }
}

/// Splitting preserves the split op's total flops up to integer division
/// and keeps the graph valid: n ∈ {2, 4, 8} over a batch of 64.
#[test]
fn split_preserves_flops() {
    let t = build_training_graph(&layered_forward(2, 64, 64)).unwrap();
    let target = t.by_name("mm0").unwrap();
    let before = t.op_ref(target).flops;
    for n in [2u32, 4, 8] {
        let res = split_operation(&t, target, SplitDim::Batch, n).unwrap();
        res.graph.validate().unwrap();
        let part_total: u64 = res.parts.iter().map(|&p| res.graph.op_ref(p).flops).sum();
        // integer division may lose at most n-1 flops
        assert!(before - part_total < n as u64, "{n} parts");
    }
}

/// A split's `id_map` covers every surviving op and the new graph can
/// still be topologically sorted: n ∈ {2, 4} over a width of 32.
#[test]
fn split_id_map_total() {
    let t = build_training_graph(&layered_forward(3, 32, 32)).unwrap();
    let target = t.by_name("mm1").unwrap();
    for n in [2u32, 4] {
        let res = split_operation(&t, target, SplitDim::Channel, n).unwrap();
        for (oid, _) in t.iter_ops() {
            if oid == target {
                assert_eq!(res.id_map[oid.index()], None);
            } else {
                let nid = res.id_map[oid.index()].unwrap();
                assert_eq!(res.graph.op_ref(nid).name, t.op_ref(oid).name);
            }
        }
        assert!(res.graph.topo_order().is_ok(), "{n} parts");
    }
}

/// The graph's topological order is a linear extension — every edge goes
/// forward — for layers 1–9.
#[test]
fn topo_is_linear_extension() {
    for layers in 1..10 {
        let t = build_training_graph(&layered_forward(layers, 4, 8)).unwrap();
        let order = t.topo_order().unwrap();
        let mut pos = vec![0usize; t.op_count()];
        for (i, o) in order.iter().enumerate() {
            pos[o.index()] = i;
        }
        for e in t.iter_edges() {
            assert!(
                pos[e.src.index()] < pos[e.dst.index()],
                "{layers} layers: {} -> {}",
                e.src,
                e.dst
            );
        }
    }
}
