//! Property-based tests of the graph substrate over arbitrary inputs:
//! CSR invariants, edge-list round-trips, and algebraic laws of the graph
//! operations.

use proptest::prelude::*;
use rumor_spreading::graph::dynamic::MutableGraph;
use rumor_spreading::graph::{generators, io, ops, props, Graph, GraphBuilder, Node};
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;

/// Strategy: an arbitrary simple graph on 1..=30 nodes (possibly
/// disconnected, possibly empty of edges).
fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (1usize..=30).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0usize..n, 0usize..n), 0..60);
        (Just(n), edges).prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in edges {
                if u != v {
                    b.add_edge(u as u32, v as u32);
                }
            }
            b.build().expect("n >= 1")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR invariants: sorted adjacency, symmetry, handshake lemma.
    #[test]
    fn csr_invariants(g in arbitrary_graph()) {
        let mut degree_sum = 0usize;
        for v in g.nodes() {
            let nbrs = g.neighbors(v);
            degree_sum += nbrs.len();
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "unsorted adjacency");
            for &w in nbrs {
                prop_assert!(g.has_edge(w, v), "asymmetric edge {v}-{w}");
                prop_assert_ne!(w, v, "self loop");
            }
        }
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
        prop_assert_eq!(g.edges().count(), g.edge_count());
    }

    /// Edge-list serialization round-trips losslessly.
    #[test]
    fn edge_list_round_trip(g in arbitrary_graph()) {
        let text = io::to_edge_list(&g);
        let back = io::from_edge_list(&text).expect("own output parses");
        prop_assert_eq!(g, back);
    }

    /// The largest component really is the largest, is connected, and
    /// preserves adjacency under the mapping.
    #[test]
    fn largest_component_laws(g in arbitrary_graph()) {
        let (giant, mapping) = props::largest_component(&g);
        prop_assert!(props::is_connected(&giant));
        prop_assert_eq!(giant.node_count(), mapping.len());
        // No component is bigger.
        let total_components = props::component_count(&g);
        prop_assert!(giant.node_count() >= g.node_count() / total_components.max(1));
        // Edges map back to edges of the original graph.
        for (u, v) in giant.edges() {
            prop_assert!(g.has_edge(mapping[u as usize], mapping[v as usize]));
        }
    }

    /// Disjoint union: counts add, components add.
    #[test]
    fn disjoint_union_laws(a in arbitrary_graph(), b in arbitrary_graph()) {
        let u = ops::disjoint_union(&a, &b);
        prop_assert_eq!(u.node_count(), a.node_count() + b.node_count());
        prop_assert_eq!(u.edge_count(), a.edge_count() + b.edge_count());
        prop_assert_eq!(
            props::component_count(&u),
            props::component_count(&a) + props::component_count(&b)
        );
    }

    /// Cartesian product: `|V| = |V_a|·|V_b|`,
    /// `|E| = |E_a|·|V_b| + |V_a|·|E_b|`, degrees add.
    #[test]
    fn cartesian_product_laws(a in arbitrary_graph(), b in arbitrary_graph()) {
        let p = ops::cartesian_product(&a, &b);
        prop_assert_eq!(p.node_count(), a.node_count() * b.node_count());
        prop_assert_eq!(
            p.edge_count(),
            a.edge_count() * b.node_count() + a.node_count() * b.edge_count()
        );
        let nb = b.node_count();
        for i in a.nodes() {
            for j in b.nodes() {
                let v = (i as usize * nb + j as usize) as u32;
                prop_assert_eq!(p.degree(v), a.degree(i) + b.degree(j));
            }
        }
    }

    /// Triangle count is invariant under node relabeling (tested through
    /// the subgraph of all nodes in a shuffled order).
    #[test]
    fn triangle_count_is_relabel_invariant(g in arbitrary_graph(), seed in 0u64..1000) {
        use rumor_spreading::sim::rng::Xoshiro256PlusPlus;
        let mut order: Vec<u32> = g.nodes().collect();
        let mut rng = Xoshiro256PlusPlus::seed_from(seed);
        for i in (1..order.len()).rev() {
            let j = rng.range_usize(i + 1);
            order.swap(i, j);
        }
        let (shuffled, _) = ops::induced_subgraph(&g, &order);
        prop_assert_eq!(props::triangle_count(&g), props::triangle_count(&shuffled));
        prop_assert_eq!(shuffled.edge_count(), g.edge_count());
    }

    /// BFS distances satisfy the triangle inequality along edges.
    #[test]
    fn bfs_distances_are_consistent(g in arbitrary_graph()) {
        let dist = props::bfs_distances(&g, 0);
        prop_assert_eq!(dist[0], 0);
        for (u, v) in g.edges() {
            let (du, dv) = (dist[u as usize], dist[v as usize]);
            if du != props::UNREACHABLE && dv != props::UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1, "edge {u}-{v}: {du} vs {dv}");
            } else {
                // An edge cannot connect a reachable and an unreachable node.
                prop_assert_eq!(du, dv);
            }
        }
    }
}

/// Strategy: a node count in 1..64 and a raw edge list over it. Some
/// nodes stay isolated; self-loops are dropped by the test.
fn raw_edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (1usize..64).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `GraphBuilder::build` agrees with a reference adjacency (a
    /// `BTreeSet` per node) on edge lists that repeat edges, list them
    /// in both orientations and in any order.
    #[test]
    fn builder_matches_a_reference_adjacency(list in raw_edge_list(), seed in 0u64..1000) {
        use rumor_spreading::sim::rng::Xoshiro256PlusPlus;
        use std::collections::BTreeSet;
        let n = list.0;
        let edges: Vec<(u32, u32)> = list.1.iter().copied().filter(|(u, v)| u != v).collect();
        let mut fed = edges.clone();
        fed.extend(edges.iter().step_by(2).map(|&(u, v)| (v, u)));
        fed.extend(edges.iter().step_by(3));
        let mut rng = Xoshiro256PlusPlus::seed_from(seed);
        for i in (1..fed.len()).rev() {
            fed.swap(i, rng.range_usize(i + 1));
        }

        let mut reference = vec![BTreeSet::new(); n];
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &fed {
            b.add_edge(u, v);
            reference[u as usize].insert(v);
            reference[v as usize].insert(u);
        }
        let g = b.build().expect("n >= 1");
        prop_assert_eq!(g.node_count(), n);
        for v in g.nodes() {
            let want: Vec<u32> = reference[v as usize].iter().copied().collect();
            prop_assert_eq!(g.neighbors(v), want.as_slice(), "row {}", v);
        }
        prop_assert_eq!(g.edge_count(), reference.iter().map(BTreeSet::len).sum::<usize>() / 2);
    }
}

/// The builder's `K_n`, every pair added once, larger label first.
fn built_complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n as Node {
        for v in u + 1..n as Node {
            b.add_edge(v, u);
        }
    }
    b.build().unwrap()
}

/// The implicit `K_n` answers every accessor as the builder's `K_n`
/// does: closed-form counts, degrees, edge tests and neighbour draws,
/// and rows written on demand — through clones taken before and after
/// the first row read, and through a `MutableGraph` base.
#[test]
fn complete_matches_the_builder() {
    for n in (2..=300usize).chain([513]) {
        let built = built_complete(n);
        let g = generators::complete(n);
        let early = g.clone();
        assert!(g == built, "n = {n}");
        assert!(built == g, "n = {n}");
        // Rows, written on first use, array for array.
        for v in g.nodes() {
            assert_eq!(g.neighbors(v), built.neighbors(v), "n = {n}: row {v}");
        }
        // Every other accessor, on the small sizes and one past 512.
        if n > 40 && n != 513 {
            continue;
        }
        assert!(g != generators::complete(n + 1) && generators::complete(n + 1) != built);
        assert_eq!(g.node_count(), built.node_count());
        assert_eq!(g.edge_count(), built.edge_count());
        assert_eq!((g.min_degree(), g.max_degree()), (n - 1, n - 1));
        assert_eq!(g.avg_degree(), built.avg_degree());
        assert_eq!(g.regular_degree(), Some(n - 1));
        assert!(!g.has_isolated_nodes());
        let beyond = [n as Node, n as Node + 7, Node::MAX];
        for u in g.nodes() {
            assert_eq!(g.degree(u), built.degree(u));
            for v in g.nodes().chain(beyond) {
                assert_eq!(g.has_edge(u, v), built.has_edge(u, v), "n = {n}: ({u}, {v})");
            }
        }
        let (mut a, mut b) =
            (Xoshiro256PlusPlus::seed_from(n as u64), Xoshiro256PlusPlus::seed_from(n as u64));
        for i in 0..10_000 {
            let v = (i % n) as Node;
            assert_eq!(g.random_neighbor(v, &mut a), built.random_neighbor(v, &mut b), "n = {n}");
        }
        assert_eq!(a.next_u64(), b.next_u64());
        // Clones taken before and after the rows were written see them.
        let late = g.clone();
        for h in [&early, &late] {
            assert!(*h == built);
            assert!(h.nodes().all(|v| h.neighbors(v) == built.neighbors(v)), "n = {n}");
            assert!(h.edges().eq(built.edges()), "n = {n}");
            assert_eq!(h.contact_probability(0), built.contact_probability(0));
        }
        assert_eq!(io::to_edge_list(&g), io::to_edge_list(&built));
        let (net, reference) = (MutableGraph::from_graph(&early), MutableGraph::from_graph(&built));
        assert_eq!(net.edge_count(), reference.edge_count());
        assert!(g.nodes().all(|v| net.neighbors(v) == reference.neighbors(v)), "n = {n}");
    }
}

/// Deterministic sanity check: the hypercube equals the iterated product
/// of `K₂`, exactly — node labels included.
#[test]
fn hypercube_is_iterated_k2_product() {
    let k2 = generators::complete(2);
    let mut product = k2.clone();
    for d in 2..=6u32 {
        product = ops::cartesian_product(&product, &k2);
        let q = generators::hypercube(d);
        assert_eq!(product.node_count(), q.node_count(), "d = {d}");
        assert_eq!(product.edge_count(), q.edge_count(), "d = {d}");
        assert_eq!(product.regular_degree(), q.regular_degree(), "d = {d}");
        assert_eq!(props::diameter(&product), props::diameter(&q), "d = {d}");
    }
}
