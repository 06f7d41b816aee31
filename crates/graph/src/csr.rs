//! Compressed sparse row (CSR) graph representation.

use std::sync::Arc;

use rumor_sim::rng::Xoshiro256PlusPlus;

/// A node index. Graphs in this workspace are bounded by `u32`, which keeps
/// adjacency arrays half the size of `usize` indices and comfortably covers
/// every experiment (n ≤ a few million).
pub type Node = u32;

/// The largest node count a graph may have: every label `0..n` and the
/// count itself fit in a [`Node`].
pub const MAX_NODES: usize = Node::MAX as usize;

/// An immutable, undirected, simple graph in CSR form.
///
/// Invariants (established by [`crate::GraphBuilder`] or by a generator
/// that writes its rows directly, and preserved by immutability):
///
/// * no self-loops, no parallel edges;
/// * adjacency lists are sorted ascending;
/// * symmetry: `w ∈ N(v)` ⟺ `v ∈ N(w)`.
///
/// # Example
///
/// ```
/// use rumor_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g = b.build()?;
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.has_edge(0, 1) && !g.has_edge(0, 2));
/// # Ok::<(), rumor_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors` for node `v`.
    ///
    /// Shared (`Arc`) so that cloning a graph — and seeding a
    /// [`crate::dynamic::MutableGraph`] base from one — is O(1): the
    /// arrays are immutable for the lifetime of the graph, so every
    /// consumer can alias them safely.
    offsets: Arc<[usize]>,
    /// Concatenated, per-node-sorted adjacency lists (length `2·edge_count`).
    neighbors: Arc<[Node]>,
}

impl Graph {
    /// Assembles a graph from raw CSR arrays. Either array may come as a
    /// `Vec` (copied once into shared storage) or as an `Arc<[_]>`
    /// already built in place (taken as is).
    ///
    /// Callers are expected to uphold the documented invariants; this is
    /// `pub(crate)` so all public construction funnels through the builder
    /// or the generators.
    pub(crate) fn from_csr(
        offsets: impl Into<Arc<[usize]>>,
        neighbors: impl Into<Arc<[Node]>>,
    ) -> Self {
        let (offsets, neighbors) = (offsets.into(), neighbors.into());
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), neighbors.len());
        Self { offsets, neighbors }
    }

    /// The shared offset array (O(1) clone of the `Arc`).
    pub(crate) fn offsets_arc(&self) -> Arc<[usize]> {
        Arc::clone(&self.offsets)
    }

    /// The shared adjacency array (O(1) clone of the `Arc`).
    pub(crate) fn neighbors_arc(&self) -> Arc<[Node]> {
        Arc::clone(&self.neighbors)
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: Node) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The sorted adjacency list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: Node) -> &[Node] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// A uniformly random neighbor of `v`.
    ///
    /// This is the primitive that every protocol in the paper is built on:
    /// “node `v` contacts a uniformly random neighbor”.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or isolated (degree 0) — protocols
    /// require minimum degree 1.
    #[inline]
    pub fn random_neighbor(&self, v: Node, rng: &mut Xoshiro256PlusPlus) -> Node {
        let nbrs = self.neighbors(v);
        assert!(!nbrs.is_empty(), "node {v} is isolated; protocols need degree >= 1");
        nbrs[rng.range_usize(nbrs.len())]
    }

    /// Whether the undirected edge `{u, v}` exists (binary search).
    pub fn has_edge(&self, u: Node, v: Node) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all node indices `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        0..self.node_count() as Node
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> Edges<'_> {
        Edges { graph: self, u: 0, idx: 0 }
    }

    /// Minimum degree over all nodes.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no nodes.
    pub fn min_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).min().expect("graph has nodes")
    }

    /// Maximum degree over all nodes.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no nodes.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().expect("graph has nodes")
    }

    /// Average degree `2m/n`.
    pub fn avg_degree(&self) -> f64 {
        2.0 * self.edge_count() as f64 / self.node_count() as f64
    }

    /// If every node has the same degree `d`, returns `Some(d)`.
    ///
    /// Corollary 3 of the paper applies exactly to such graphs.
    pub fn regular_degree(&self) -> Option<usize> {
        let d = self.degree(0);
        if self.nodes().all(|v| self.degree(v) == d) {
            Some(d)
        } else {
            None
        }
    }

    /// Whether any node has degree 0 (such graphs cannot run the
    /// protocols, since every node must have a neighbor to contact).
    pub fn has_isolated_nodes(&self) -> bool {
        self.nodes().any(|v| self.degree(v) == 0)
    }

    /// Sum over nodes `v` of `π(v) = (1/n) Σ_{w ∈ Γ(v)} 1/deg(w)` — the
    /// probability that `v` is *contacted* in a uniformly random step of
    /// the asynchronous protocol. Section 5 of the paper uses
    /// `Σ_v π(v) = 1`; exposed for the block-accounting experiment.
    pub fn contact_probability(&self, v: Node) -> f64 {
        let n = self.node_count() as f64;
        self.neighbors(v).iter().map(|&w| 1.0 / self.degree(w) as f64).sum::<f64>() / n
    }
}

/// Iterator over undirected edges; see [`Graph::edges`].
#[derive(Debug)]
pub struct Edges<'a> {
    graph: &'a Graph,
    u: Node,
    idx: usize,
}

impl Iterator for Edges<'_> {
    type Item = (Node, Node);

    fn next(&mut self) -> Option<(Node, Node)> {
        let n = self.graph.node_count() as Node;
        while self.u < n {
            let nbrs = self.graph.neighbors(self.u);
            while self.idx < nbrs.len() {
                let v = nbrs[self.idx];
                self.idx += 1;
                if self.u < v {
                    return Some((self.u, v));
                }
            }
            self.u += 1;
            self.idx = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.build().unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.min_degree(), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
        assert_eq!(g.regular_degree(), Some(2));
        assert!(!g.has_isolated_nodes());
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = triangle();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        for (u, v) in g.edges() {
            assert!(g.has_edge(u, v));
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle();
        let edges: Vec<(Node, Node)> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn random_neighbor_is_uniform() {
        let g = triangle();
        let mut rng = Xoshiro256PlusPlus::seed_from(11);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[g.random_neighbor(0, &mut rng) as usize] += 1;
        }
        assert_eq!(counts[0], 0, "never returns the node itself");
        for &c in &counts[1..] {
            assert!((c as f64 - 15_000.0).abs() < 800.0, "biased: {counts:?}");
        }
    }

    #[test]
    fn irregular_graph_detected() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        assert_eq!(g.regular_degree(), None);
        assert_eq!(g.min_degree(), 1);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn isolated_node_detected() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        assert!(g.has_isolated_nodes());
    }

    #[test]
    #[should_panic(expected = "isolated")]
    fn random_neighbor_panics_on_isolated() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let mut b2 = GraphBuilder::new(3);
        b2.add_edge(0, 1);
        drop(b);
        let g = b2.build().unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from(1);
        g.random_neighbor(2, &mut rng);
    }

    #[test]
    fn contact_probabilities_sum_to_one() {
        let g = triangle();
        let total: f64 = g.nodes().map(|v| g.contact_probability(v)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Also on an irregular graph (star).
        let g = crate::generators::star(5);
        let total: f64 = g.nodes().map(|v| g.contact_probability(v)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
