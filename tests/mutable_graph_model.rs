//! Model-based equivalence of the flat-memory `MutableGraph` (CSR
//! base plus delta overlay plus compaction) against a naive
//! `Vec<Vec<Node>>` reference under random operation sequences.
//!
//! The reference keeps per-node adjacency vectors plus activation
//! flags and mutates them the obvious order-relaxed way: insertion
//! pushes, removal swap-removes. Every property drives both structures
//! through the same sequence of add/remove/activate/deactivate/replace
//! (and compaction-threshold changes, which must be invisible) and then
//! demands identical observable state — identical row *order*, the
//! same change journal (its four typed runs, entry for entry, compared
//! after every operation), and identical `random_neighbor` selections
//! from the same RNG state, which is the replay contract the golden
//! tests pin.

use proptest::prelude::*;
use rumor_spreading::graph::dynamic::{ChangeJournal, MutableGraph};
use rumor_spreading::graph::{generators, Graph, Node};
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;

/// Naive reference model: push/swap-remove `Vec<Vec<Node>>` adjacency,
/// activation flags, and the journal of effective changes in its four
/// typed runs.
struct Reference {
    adj: Vec<Vec<Node>>,
    active: Vec<bool>,
    edge_count: usize,
    journal: ChangeJournal,
}

/// Swap-removes `x` from `row`; returns whether it was present.
fn swap_remove_value(row: &mut Vec<Node>, x: Node) -> bool {
    match row.iter().position(|&w| w == x) {
        Some(i) => {
            row.swap_remove(i);
            true
        }
        None => false,
    }
}

impl Reference {
    fn from_graph(g: &Graph) -> Self {
        Self {
            adj: g.nodes().map(|v| g.neighbors(v).to_vec()).collect(),
            active: vec![true; g.node_count()],
            edge_count: g.edge_count(),
            journal: ChangeJournal::default(),
        }
    }

    fn degree(&self, v: Node) -> usize {
        self.neighbors(v).len()
    }

    fn neighbors(&self, v: Node) -> &[Node] {
        if self.active[v as usize] {
            &self.adj[v as usize]
        } else {
            &[]
        }
    }

    fn has_edge(&self, u: Node, v: Node) -> bool {
        self.neighbors(u).contains(&v)
    }

    fn add_edge(&mut self, u: Node, v: Node) -> bool {
        if self.adj[u as usize].contains(&v) {
            return false;
        }
        self.adj[u as usize].push(v);
        self.adj[v as usize].push(u);
        self.edge_count += 1;
        self.journal.added.push((u.min(v), u.max(v)));
        true
    }

    fn remove_edge(&mut self, u: Node, v: Node) -> bool {
        if !swap_remove_value(&mut self.adj[u as usize], v) {
            return false;
        }
        assert!(swap_remove_value(&mut self.adj[v as usize], u), "symmetric");
        self.edge_count -= 1;
        self.journal.removed.push((u.min(v), u.max(v)));
        true
    }

    fn deactivate(&mut self, v: Node) -> usize {
        if !self.active[v as usize] {
            return 0;
        }
        let nbrs = std::mem::take(&mut self.adj[v as usize]);
        for &w in &nbrs {
            assert!(swap_remove_value(&mut self.adj[w as usize], v), "symmetric");
            self.journal.removed.push((v.min(w), v.max(w)));
        }
        self.edge_count -= nbrs.len();
        self.active[v as usize] = false;
        self.journal.deactivated.push(v);
        nbrs.len()
    }

    fn activate(&mut self, v: Node) {
        if !self.active[v as usize] {
            self.active[v as usize] = true;
            self.journal.activated.push(v);
        }
    }

    /// Adopts `snapshot`'s sorted CSR rows, dropping edges at inactive
    /// nodes; journals the edge diff per node in ascending order, so
    /// both edge runs grow in ascending order.
    fn replace_edges_with(&mut self, snapshot: &Graph) {
        let n = self.adj.len();
        let new: Vec<Vec<Node>> = (0..n as Node)
            .map(|v| {
                if !self.active[v as usize] {
                    return Vec::new();
                }
                let row = snapshot.neighbors(v).iter().copied();
                row.filter(|&w| self.active[w as usize]).collect()
            })
            .collect();
        for v in 0..n as Node {
            let (old, fresh) = (&self.adj[v as usize], &new[v as usize]);
            let mut union: Vec<Node> =
                old.iter().chain(fresh).copied().filter(|&w| w > v).collect();
            union.sort_unstable();
            union.dedup();
            for w in union {
                match (old.contains(&w), fresh.contains(&w)) {
                    (true, false) => self.journal.removed.push((v, w)),
                    (false, true) => self.journal.added.push((v, w)),
                    _ => {}
                }
            }
        }
        self.edge_count = new.iter().map(Vec::len).sum::<usize>() / 2;
        self.adj = new;
    }

    /// The reference neighbor draw: one `range_usize(deg)` selecting
    /// the k-th stored neighbor — what the CSR graph does on an
    /// untouched row, and what the overlay graph must reproduce exactly.
    fn random_neighbor(&self, v: Node, rng: &mut Xoshiro256PlusPlus) -> Node {
        let nbrs = &self.adj[v as usize];
        nbrs[rng.range_usize(nbrs.len())]
    }
}

/// One random mutation; fields are interpreted modulo the node count.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add(usize, usize),
    Remove(usize, usize),
    Deactivate(usize),
    Activate(usize),
    /// Re-tune compaction: 0 = always, 1 = default-ish, 2 = never.
    Threshold(usize),
    /// Replace every edge with a `G(n, 0.3)` snapshot of this seed.
    Replace(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..17, 0usize..64, 0usize..64).prop_map(|(kind, a, b)| match kind {
        0..=5 => Op::Add(a, b),
        6..=9 => Op::Remove(a, b),
        10..=11 => Op::Deactivate(a),
        12..=13 => Op::Activate(a),
        14..=15 => Op::Threshold(a % 3),
        _ => Op::Replace(a),
    })
}

fn apply_op(net: &mut MutableGraph, reference: &mut Reference, op: Op, n: usize) {
    match op {
        Op::Add(a, b) => {
            let (u, v) = ((a % n) as Node, (b % n) as Node);
            if u != v && reference.active[u as usize] && reference.active[v as usize] {
                assert_eq!(net.add_edge(u, v), reference.add_edge(u, v), "add ({u}, {v})");
            }
        }
        Op::Remove(a, b) => {
            let (u, v) = ((a % n) as Node, (b % n) as Node);
            if u != v {
                assert_eq!(net.remove_edge(u, v), reference.remove_edge(u, v), "remove ({u}, {v})");
            }
        }
        Op::Deactivate(a) => {
            let v = (a % n) as Node;
            assert_eq!(net.deactivate(v), reference.deactivate(v), "deactivate {v}");
        }
        Op::Activate(a) => {
            let v = (a % n) as Node;
            net.activate(v);
            reference.activate(v);
        }
        Op::Threshold(which) => {
            net.set_compaction_threshold(match which {
                0 => 0,
                1 => 32,
                _ => usize::MAX,
            });
        }
        Op::Replace(seed) => {
            let snapshot = generators::gnp(n, 0.3, &mut Xoshiro256PlusPlus::seed_from(seed as u64));
            net.replace_edges_with(&snapshot);
            reference.replace_edges_with(&snapshot);
        }
    }
    assert_eq!(net.changes(), &reference.journal, "change journal after {op:?}");
}

/// Identical state, row order included, and the identical journal.
fn assert_equivalent(net: &MutableGraph, reference: &Reference, n: usize) {
    assert_eq!(net.edge_count(), reference.edge_count, "edge count");
    assert_eq!(net.changes(), &reference.journal, "change journal");
    for v in 0..n as Node {
        assert_eq!(net.is_active(v), reference.active[v as usize], "active {v}");
        assert_eq!(net.degree(v), reference.degree(v), "degree {v}");
        assert_eq!(net.neighbors(v), reference.neighbors(v), "neighbors {v}");
        for w in 0..n as Node {
            assert_eq!(net.has_edge(v, w), reference.has_edge(v, w), "has_edge ({v}, {w})");
        }
    }
}

/// What [`MutableGraph::set_neighbors`] batches: the drops in `v`'s row
/// order, then the adds in `new`'s order, one edge at a time.
fn set_neighbors_stepwise(net: &mut MutableGraph, v: Node, new: &[Node]) {
    let old = net.neighbors(v).to_vec();
    for &w in old.iter().filter(|w| !new.contains(w)) {
        assert!(net.remove_edge(v, w));
    }
    for &w in new {
        net.add_edge(v, w);
    }
}

/// The replay contract: from the same RNG state, both structures must
/// consume one draw per call and select the identical neighbor.
fn assert_identical_draws(net: &MutableGraph, reference: &Reference, n: usize, seed: u64) {
    let mut a = Xoshiro256PlusPlus::seed_from(seed);
    let mut b = Xoshiro256PlusPlus::seed_from(seed);
    for v in 0..n as Node {
        if net.degree(v) == 0 {
            continue;
        }
        for _ in 0..8 {
            assert_eq!(
                net.random_neighbor(v, &mut a),
                reference.random_neighbor(v, &mut b),
                "draw at {v}"
            );
        }
    }
    assert_eq!(a.next_u64(), b.next_u64(), "RNG streams diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Overlay graph == naive model after any operation sequence
    /// starting from a connected G(n, p) snapshot, at every compaction
    /// tuning the sequence visits.
    #[test]
    fn overlay_matches_reference_from_snapshot(
        n in 8usize..24,
        seed in 0u64..1_000,
        ops in proptest::collection::vec(op_strategy(), 0..120),
    ) {
        let p = 2.5 * (n as f64).ln() / n as f64;
        let g = generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(seed), 200);
        let mut net = MutableGraph::from_graph(&g);
        net.track_changes(true);
        let mut reference = Reference::from_graph(&g);
        for &op in &ops {
            apply_op(&mut net, &mut reference, op, n);
        }
        assert_equivalent(&net, &reference, n);
        assert_identical_draws(&net, &reference, n, seed ^ 0xD1CE);
        // Freezing to CSR canonicalizes each row into sorted order.
        let frozen = net.to_graph();
        for v in 0..n as Node {
            let mut row = reference.neighbors(v).to_vec();
            row.sort_unstable();
            prop_assert_eq!(frozen.neighbors(v), row.as_slice());
        }
    }

    /// Same equivalence starting from an edgeless graph (`empty` is the
    /// construction path the node-churn bugfix regression lives on).
    #[test]
    fn overlay_matches_reference_from_empty(
        n in 4usize..16,
        seed in 0u64..1_000,
        ops in proptest::collection::vec(op_strategy(), 0..160),
    ) {
        let mut net = MutableGraph::empty(n);
        net.track_changes(true);
        let mut reference = Reference {
            adj: vec![Vec::new(); n],
            active: vec![true; n],
            edge_count: 0,
            journal: ChangeJournal::default(),
        };
        for &op in &ops {
            apply_op(&mut net, &mut reference, op, n);
        }
        assert_equivalent(&net, &reference, n);
        assert_identical_draws(&net, &reference, n, seed ^ 0xBEEF);
    }

    /// A batched row rewrite leaves every row (in order), the journal,
    /// the edge count and the frozen graph exactly as the edge-by-edge
    /// sequence it replaces, at every compaction policy: after every
    /// edit, never, and the default.
    #[test]
    fn set_neighbors_matches_stepwise_edits(
        n in 4usize..40,
        seed in 0u64..1_000,
        rewrites in 1usize..60,
        policy in 0usize..3,
        density in 0usize..4,
    ) {
        let p = 2.5 * (n as f64).ln() / n as f64;
        let g = generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(seed), 200);
        let mut batched = MutableGraph::from_graph(&g);
        match policy {
            0 => batched.set_compaction_threshold(0),
            1 => batched.set_compaction_threshold(usize::MAX),
            _ => {}
        }
        batched.track_changes(true);
        let mut stepwise = batched.clone();
        let mut rng = Xoshiro256PlusPlus::seed_from(seed ^ 0x5E7);
        // Departed nodes must stay out of every target.
        for _ in 0..n / 8 {
            let v = rng.range_usize(n) as Node;
            batched.deactivate(v);
            stepwise.deactivate(v);
        }
        // How likely a target keeps a current neighbor, and takes a new one.
        let (keep, take) = [(0.0, 0.0), (0.8, 0.1), (0.5, 0.5), (1.0, 1.0)][density];
        for _ in 0..rewrites {
            let v = rng.range_usize(n) as Node;
            if !batched.is_active(v) {
                continue;
            }
            let new: Vec<Node> = (0..n as Node)
                .filter(|&w| w != v && batched.is_active(w))
                .filter(|&w| rng.f64_unit() < if batched.has_edge(v, w) { keep } else { take })
                .collect();
            batched.set_neighbors(v, &new);
            set_neighbors_stepwise(&mut stepwise, v, &new);
        }
        for v in 0..n as Node {
            prop_assert_eq!(batched.neighbors(v), stepwise.neighbors(v));
        }
        prop_assert_eq!(batched.changes(), stepwise.changes());
        prop_assert_eq!(batched.edge_count(), stepwise.edge_count());
        prop_assert_eq!(batched.to_graph(), stepwise.to_graph());
    }
}
