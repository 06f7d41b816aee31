//! Compressed sparse row (CSR) graph representation.

use std::sync::{Arc, OnceLock};

use rumor_sim::rng::Xoshiro256PlusPlus;

/// A node index. Graphs in this workspace are bounded by `u32`, which keeps
/// adjacency arrays half the size of `usize` indices and comfortably covers
/// every experiment (n ≤ a few million).
pub type Node = u32;

/// The largest node count a graph may have: every label `0..n` and the
/// count itself fit in a [`Node`].
pub const MAX_NODES: usize = Node::MAX as usize;

/// An immutable, undirected, simple graph with sorted adjacency rows.
///
/// Rows are either *stored* in CSR arrays (every graph the
/// [`crate::GraphBuilder`] or a generator writes) or *implicit*: the
/// complete graph [`crate::generators::complete`] stores only `n`, since
/// the `k`-th neighbour of `v` in `K_n` is `k + (k >= v)`. Degrees, edge
/// counts, [`Graph::has_edge`] and [`Graph::random_neighbor`] answer an
/// implicit graph in closed form. Consumers that need row slices —
/// [`Graph::neighbors`], [`Graph::edges`], a
/// [`crate::dynamic::MutableGraph`] base — materialize the CSR arrays
/// on first use, once per graph and shared by its clones. The two forms
/// of one graph compare equal, and draw the same neighbours from the
/// same RNG stream.
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
#[derive(Debug, Clone)]
pub struct Graph {
    rows: Rows,
}

/// Where a graph's rows live.
#[derive(Debug, Clone)]
enum Rows {
    /// CSR arrays written at construction.
    Stored(Csr),
    /// `K_n`, `n >= 2`: closed-form rows, and the CSR arrays once a
    /// consumer has asked for slices (shared by every clone).
    Complete { n: usize, csr: Arc<OnceLock<Csr>> },
}

/// CSR arrays: `offsets[v]..offsets[v + 1]` indexes `neighbors` for
/// node `v`; `neighbors` concatenates the per-node sorted rows (length
/// `2·edge_count`).
///
/// Shared (`Arc`) so that cloning a graph — and seeding a
/// [`crate::dynamic::MutableGraph`] base from one — is O(1): the arrays
/// are immutable for the lifetime of the graph, so every consumer can
/// alias them safely.
#[derive(Debug, Clone)]
struct Csr {
    offsets: Arc<[usize]>,
    neighbors: Arc<[Node]>,
    /// The tail of every arc (`u` for each entry of `u`'s row), written
    /// on the first [`Graph::arc_endpoints`] call, once per graph and
    /// shared by its clones.
    tails: Arc<OnceLock<Box<[Node]>>>,
}

impl Csr {
    /// The CSR arrays of `K_n`, written in place: row `v` is `0..v`
    /// followed by `v+1..n`, so its `k`-th entry is `k`, or `k + 1` once
    /// `k` reaches `v`. The exact-size iterator is collected straight
    /// into the shared array, one allocation and no copy.
    fn complete(n: usize) -> Self {
        let degree = n - 1;
        let offsets: Arc<[usize]> = (0..=n).map(|v| v * degree).collect();
        let (mut v, mut k) = (0, 0);
        let neighbors: Arc<[Node]> = (0..n * degree)
            .map(|_| {
                let w = if k < v { k } else { k + 1 };
                k += 1;
                if k == degree {
                    (v, k) = (v + 1, 0);
                }
                w as Node
            })
            .collect();
        Self { offsets, neighbors, tails: Arc::default() }
    }

    #[inline]
    fn rows(&self) -> CsrRows<'_> {
        CsrRows { offsets: &self.offsets, neighbors: &self.neighbors }
    }
}

/// A uniformly random neighbour draw, monomorphized per row kind: the
/// engines' hot loops take one of these from [`Graph::with_rows`].
pub trait RandomNeighbor: Copy {
    /// A uniformly random neighbour of `v`: one `range_usize(deg(v))`
    /// draw, indexing `v`'s sorted row.
    ///
    /// # Panics
    ///
    /// Panics if `v` is isolated, and may panic if it is out of range.
    fn random_neighbor(self, v: Node, rng: &mut Xoshiro256PlusPlus) -> Node;
}

/// Stored CSR rows.
#[derive(Debug, Clone, Copy)]
struct CsrRows<'a> {
    offsets: &'a [usize],
    neighbors: &'a [Node],
}

impl<'a> CsrRows<'a> {
    #[inline]
    fn row(self, v: Node) -> &'a [Node] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }
}

impl RandomNeighbor for CsrRows<'_> {
    // Forced, not hinted: this is one draw per contact in the static
    // loops, and where the inliner declined the hint the synchronous
    // loop paid a call per contact (14% more CPU time for push–pull on
    // G(2048, 0.01)).
    #[inline(always)]
    fn random_neighbor(self, v: Node, rng: &mut Xoshiro256PlusPlus) -> Node {
        let nbrs = self.row(v);
        assert!(!nbrs.is_empty(), "node {v} is isolated; protocols need degree >= 1");
        nbrs[rng.range_usize(nbrs.len())]
    }
}

/// The closed-form rows of `K_n`.
#[derive(Debug, Clone, Copy)]
struct CompleteRows {
    n: usize,
}

impl RandomNeighbor for CompleteRows {
    /// Draws `k` from `0..n-1` and skips `v`: the node at slot `k` of
    /// `v`'s sorted row, from the same draw.
    #[inline]
    fn random_neighbor(self, v: Node, rng: &mut Xoshiro256PlusPlus) -> Node {
        let k = rng.range_usize(self.n - 1);
        (k + usize::from(k >= v as usize)) as Node
    }
}

/// Receives a graph's rows from [`Graph::with_rows`] as their concrete
/// type, so a loop generic over [`RandomNeighbor`] is compiled once per
/// row kind: the stored-row instance reads the CSR slices exactly as a
/// loop over one kind would, and the `K_n` instance reads no rows.
pub trait RowVisitor {
    /// What the visit produces.
    type Output;

    /// Called once with the graph's rows.
    fn visit<R: RandomNeighbor>(self, rows: R) -> Self::Output;
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
        Self { rows: Rows::Stored(Csr { offsets, neighbors, tails: Arc::default() }) }
    }

    /// The complete graph `K_n` with implicit rows; the caller checks
    /// `2 <= n <= MAX_NODES`.
    pub(crate) fn complete(n: usize) -> Self {
        Self { rows: Rows::Complete { n, csr: Arc::default() } }
    }

    /// The CSR arrays, written on first use for an implicit graph.
    fn csr(&self) -> &Csr {
        match &self.rows {
            Rows::Stored(csr) => csr,
            Rows::Complete { n, csr } => csr.get_or_init(|| Csr::complete(*n)),
        }
    }

    /// Panics unless `v` is a node of the implicit `K_n`, as a stored
    /// row lookup would.
    #[inline]
    fn check_complete_node(n: usize, v: Node) {
        assert!((v as usize) < n, "node {v} out of range for {n} nodes");
    }

    /// The shared offset array (O(1) clone of the `Arc`).
    pub(crate) fn offsets_arc(&self) -> Arc<[usize]> {
        Arc::clone(&self.csr().offsets)
    }

    /// The shared adjacency array (O(1) clone of the `Arc`).
    pub(crate) fn neighbors_arc(&self) -> Arc<[Node]> {
        Arc::clone(&self.csr().neighbors)
    }

    /// Hands this graph's rows to `visitor` as their concrete type — one
    /// dispatch per call, for loops that draw neighbours in their hot
    /// path. Same draws and same nodes as [`Graph::random_neighbor`].
    pub fn with_rows<V: RowVisitor>(&self, visitor: V) -> V::Output {
        match &self.rows {
            Rows::Stored(csr) => visitor.visit(csr.rows()),
            Rows::Complete { n, .. } => visitor.visit(CompleteRows { n: *n }),
        }
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        match &self.rows {
            Rows::Stored(csr) => csr.offsets.len() - 1,
            Rows::Complete { n, .. } => *n,
        }
    }

    /// Number of undirected edges `m`.
    pub fn edge_count(&self) -> usize {
        match &self.rows {
            Rows::Stored(csr) => csr.neighbors.len() / 2,
            Rows::Complete { n, .. } => n * (n - 1) / 2,
        }
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: Node) -> usize {
        match &self.rows {
            Rows::Stored(csr) => {
                let v = v as usize;
                csr.offsets[v + 1] - csr.offsets[v]
            }
            Rows::Complete { n, .. } => {
                Self::check_complete_node(*n, v);
                n - 1
            }
        }
    }

    /// The sorted adjacency list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: Node) -> &[Node] {
        self.csr().rows().row(v)
    }

    /// A uniformly random neighbor of `v`.
    ///
    /// This is the primitive that every protocol in the paper is built on:
    /// “node `v` contacts a uniformly random neighbor”. One
    /// `range_usize(deg(v))` draw picks the slot in `v`'s sorted row.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or isolated (degree 0) — protocols
    /// require minimum degree 1.
    #[inline]
    pub fn random_neighbor(&self, v: Node, rng: &mut Xoshiro256PlusPlus) -> Node {
        match &self.rows {
            Rows::Stored(csr) => csr.rows().random_neighbor(v, rng),
            Rows::Complete { n, .. } => {
                Self::check_complete_node(*n, v);
                CompleteRows { n: *n }.random_neighbor(v, rng)
            }
        }
    }

    /// Whether the undirected edge `{u, v}` exists (binary search).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: Node, v: Node) -> bool {
        match &self.rows {
            Rows::Stored(csr) => csr.rows().row(u).binary_search(&v).is_ok(),
            Rows::Complete { n, .. } => {
                Self::check_complete_node(*n, u);
                u != v && (v as usize) < *n
            }
        }
    }

    /// The index of the arc `(u, w)` among the graph's `2m` arcs, or
    /// `None` if `{u, w}` is no edge: `u`'s row offset plus the rank of
    /// `w` in `u`'s sorted row. Rows are sorted, so arc order is the
    /// lexicographic order of the `(u, w)` pairs. O(log deg(u)) for
    /// stored rows, O(1) for `K_n`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn arc(&self, u: Node, w: Node) -> Option<usize> {
        match &self.rows {
            Rows::Stored(csr) => {
                let rank = csr.rows().row(u).binary_search(&w).ok()?;
                Some(csr.offsets[u as usize] + rank)
            }
            Rows::Complete { n, .. } => {
                Self::check_complete_node(*n, u);
                let (u, w) = (u as usize, w as usize);
                (u != w && w < *n).then(|| u * (n - 1) + w - usize::from(w > u))
            }
        }
    }

    /// The endpoints `(u, w)` of arc `a`, the inverse of
    /// [`arc`](Self::arc): O(1). The first call on a stored graph
    /// writes the tail of every arc (4 bytes per arc, O(m)), shared by
    /// the graph's clones; `K_n` answers in closed form.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not below `2m`.
    pub fn arc_endpoints(&self, a: usize) -> (Node, Node) {
        match &self.rows {
            Rows::Stored(csr) => {
                let tails = csr.tails.get_or_init(|| {
                    let rows = csr.offsets.windows(2).enumerate();
                    rows.flat_map(|(u, o)| std::iter::repeat_n(u as Node, o[1] - o[0])).collect()
                });
                (tails[a], csr.neighbors[a])
            }
            Rows::Complete { n, .. } => {
                assert!(a < n * (n - 1), "arc {a} out of range for K_{n}");
                let (u, k) = (a / (n - 1), a % (n - 1));
                (u as Node, (k + usize::from(k >= u)) as Node)
            }
        }
    }

    /// Iterator over all node indices `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        0..self.node_count() as Node
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> Edges<'_> {
        Edges { rows: self.csr().rows(), u: 0, idx: 0 }
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

/// Graphs are equal when their rows are: an implicit `K_n` equals a
/// stored one.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        match (&self.rows, &other.rows) {
            (Rows::Stored(a), Rows::Stored(b)) => {
                a.offsets == b.offsets && a.neighbors == b.neighbors
            }
            (Rows::Complete { n: a, .. }, Rows::Complete { n: b, .. }) => a == b,
            // A simple graph on n nodes with n(n-1)/2 edges is K_n.
            (Rows::Complete { n, .. }, Rows::Stored(csr))
            | (Rows::Stored(csr), Rows::Complete { n, .. }) => {
                csr.offsets.len() == n + 1 && csr.neighbors.len() == n * (n - 1)
            }
        }
    }
}

impl Eq for Graph {}

/// Iterator over undirected edges; see [`Graph::edges`].
#[derive(Debug)]
pub struct Edges<'a> {
    rows: CsrRows<'a>,
    u: Node,
    idx: usize,
}

impl Iterator for Edges<'_> {
    type Item = (Node, Node);

    fn next(&mut self) -> Option<(Node, Node)> {
        let n = (self.rows.offsets.len() - 1) as Node;
        while self.u < n {
            let nbrs = self.rows.row(self.u);
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

    /// Arc indices enumerate the stored rows in order, for stored rows
    /// and for the implicit `K_n` alike, and `arc_endpoints` inverts
    /// them.
    #[test]
    fn arcs_number_rows_in_order() {
        let star = crate::generators::star(5);
        for g in [triangle(), star, crate::generators::complete(6)] {
            let mut a = 0;
            for u in g.nodes() {
                for &w in g.neighbors(u) {
                    assert_eq!(g.arc(u, w), Some(a), "arc ({u}, {w})");
                    assert_eq!(g.arc_endpoints(a), (u, w));
                    a += 1;
                }
                assert_eq!(g.arc(u, u), None, "a self-pair is no arc");
            }
            assert_eq!(a, 2 * g.edge_count());
        }
        assert_eq!(crate::generators::star(5).arc(1, 2), None, "leaves are not adjacent");
        assert_eq!(crate::generators::complete(6).arc(0, 6), None, "out of range");
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
