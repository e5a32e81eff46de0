//! Copy-on-write storage semantics: clones are independent graphs, the
//! memoized structure hash always equals a fresh computation, and every
//! mutator clears the memo.

use fastt_graph::{replicate_grouped, split_operation, Graph, OpKind, Operation, ReplicationMode};
use fastt_models::Model;

/// Rebuilds `g` op by op, edge by edge and group by group, querying the
/// hash after each phase so a mutator that left the memo in place would
/// leave a stale hash behind. Returns the rebuild and the two
/// intermediate hashes.
fn rebuild(g: &Graph) -> (Graph, [u64; 2]) {
    let mut r = Graph::new();
    for (_, op) in g.iter_ops() {
        r.add_op(op.clone()).unwrap();
    }
    let ops_only = r.structure_hash();
    for e in g.iter_edges() {
        r.connect_bytes(e.src, e.dst, e.bytes).unwrap();
    }
    let with_edges = r.structure_hash();
    for grp in g.colocation_groups() {
        r.colocate(grp);
    }
    (r, [ops_only, with_edges])
}

fn assert_memo_matches_rebuild(what: &str, g: &Graph) {
    let memo = g.structure_hash();
    assert_eq!(memo, g.structure_hash(), "{what}: memo is stable");
    let (r, [ops_only, with_edges]) = rebuild(g);
    assert_eq!(r.structure_hash(), memo, "{what}: memo equals a rebuild");
    assert_ne!(ops_only, memo, "{what}: edges moved the hash");
    if g.colocation_groups().next().is_some() {
        assert_ne!(with_edges, memo, "{what}: groups moved the hash");
    }
}

#[test]
fn memoized_hash_equals_rebuild_for_paper_models_and_rewrites() {
    for model in Model::all() {
        let g = model.training_graph(model.paper_batch());
        assert_memo_matches_rebuild(model.name(), &g);

        let rep = replicate_grouped(&g, &[0, 1], ReplicationMode::ParameterServer).unwrap();
        assert_memo_matches_rebuild(&format!("{} x2 PS", model.name()), &rep.graph);
        let ar = replicate_grouped(&g, &[0, 0], ReplicationMode::AllReduce).unwrap();
        assert_memo_matches_rebuild(&format!("{} x2 all-reduce", model.name()), &ar.graph);

        let split = g
            .iter_ops()
            .find_map(|(id, op)| {
                let dim = *op.kind.split_dims().first()?;
                split_operation(&g, id, dim, 2).ok()
            })
            .unwrap_or_else(|| panic!("{}: some op splits two ways", model.name()));
        assert_ne!(split.graph.structure_hash(), g.structure_hash());
        assert_memo_matches_rebuild(&format!("{} split", model.name()), &split.graph);
    }
}

fn diamond() -> Graph {
    let mut g = Graph::new();
    let a = g.add_op(Operation::new("a", OpKind::Input, [4])).unwrap();
    let b = g.add_op(Operation::new("b", OpKind::Relu, [4])).unwrap();
    let c = g.add_op(Operation::new("c", OpKind::Relu, [4])).unwrap();
    let d = g.add_op(Operation::new("d", OpKind::Add, [4])).unwrap();
    g.connect(a, b).unwrap();
    g.connect(a, c).unwrap();
    g.connect(b, d).unwrap();
    g.connect(c, d).unwrap();
    g.colocate(&[b, c]);
    g
}

#[test]
fn clone_then_mutate_leaves_the_original_unchanged() {
    let g = diamond();
    let hash = g.structure_hash();
    let before = format!("{g:?}");
    let [a, b, _, d] = [0, 1, 2, 3].map(fastt_graph::OpId);

    let mut c = g.clone();
    assert_eq!(c.structure_hash(), hash, "a clone shares the memo");
    let e = c.add_op(Operation::new("e", OpKind::Relu, [4])).unwrap();
    c.connect(d, e).unwrap();
    c.connect_bytes(a, e, 8).unwrap();
    c.colocate(&[b, d, e]);

    assert_eq!(format!("{g:?}"), before);
    assert_eq!(g.op_count(), 4);
    assert_eq!(g.edge_count(), 4);
    assert_eq!(g.by_name("e"), None);
    assert_eq!(g.out_edges(d).count(), 0);
    assert_eq!(g.colocation_group(d), None);
    assert_eq!(g.colocation_groups().count(), 1);
    assert_eq!(g.structure_hash(), hash);
    assert_eq!(diamond().structure_hash(), hash);

    assert_eq!(c.op_count(), 5);
    assert_eq!(c.edge_count(), 6);
    assert_eq!(c.colocation_group(e).map(<[_]>::len), Some(4));
    assert_ne!(c.structure_hash(), hash);
    assert_eq!(c.structure_hash(), rebuild(&c).0.structure_hash());
}

#[test]
fn every_mutator_clears_the_memo() {
    let mut g = diamond();
    let [a, _, _, d] = [0, 1, 2, 3].map(fastt_graph::OpId);

    let h0 = g.structure_hash();
    let e = g.add_op(Operation::new("e", OpKind::Relu, [4])).unwrap();
    let h1 = g.structure_hash();
    assert_ne!(h1, h0, "add_op clears the memo");
    assert_eq!(h1, rebuild(&g).0.structure_hash());

    g.connect_bytes(d, e, 16).unwrap();
    let h2 = g.structure_hash();
    assert_ne!(h2, h1, "connect_bytes clears the memo");
    assert_eq!(h2, rebuild(&g).0.structure_hash());

    g.colocate(&[a, e]);
    let h3 = g.structure_hash();
    assert_ne!(h3, h2, "colocate clears the memo");
    assert_eq!(h3, rebuild(&g).0.structure_hash());

    // failed mutations leave the graph and its memo alone
    assert!(g.add_op(Operation::new("e", OpKind::Relu, [4])).is_err());
    assert!(g.connect(e, e).is_err());
    assert_eq!(g.structure_hash(), h3);
}

#[test]
fn debug_output_shows_the_graph_not_its_handle() {
    let g = diamond();
    g.structure_hash();
    let s = format!("{g:?}");
    assert!(s.starts_with("Graph { ops: ["), "{s}");
    for field in [
        "edges",
        "in_edges",
        "out_edges",
        "names",
        "groups",
        "group_of",
    ] {
        assert!(s.contains(&format!("{field}: ")), "{field} missing: {s}");
    }
    assert!(!s.contains("GraphData") && !s.contains("hash"), "{s}");
}
