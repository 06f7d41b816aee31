//! Incremental graph construction with validation.

use crate::csr::{Graph, Node, MAX_NODES};
use crate::error::GraphError;

/// Accumulates edges and produces a validated [`Graph`].
///
/// Duplicate edges are tolerated and deduplicated at [`build`] time, so
/// random generators can add edges freely. Self-loops and out-of-range
/// endpoints are rejected immediately — those are programming errors in a
/// generator, not data conditions.
///
/// [`build`]: GraphBuilder::build
///
/// # Example
///
/// ```
/// use rumor_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1);
/// b.add_edge(1, 0); // duplicate, deduplicated at build time
/// b.add_edge(2, 3);
/// let g = b.build()?;
/// assert_eq!(g.edge_count(), 2);
/// # Ok::<(), rumor_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<(Node, Node)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `node_count` nodes (labeled
    /// `0..node_count`).
    pub fn new(node_count: usize) -> Self {
        Self { node_count, edges: Vec::new() }
    }

    /// Creates a builder expecting roughly `edge_hint` edges.
    pub fn with_edge_capacity(node_count: usize, edge_hint: usize) -> Self {
        Self { node_count, edges: Vec::with_capacity(edge_hint) }
    }

    /// Number of nodes the graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges added so far (duplicates included).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loop) or either endpoint is out of range.
    /// Generators must never produce such edges; failing fast here keeps
    /// the CSR invariants airtight.
    pub fn add_edge(&mut self, u: Node, v: Node) -> &mut Self {
        assert!(u != v, "self-loop at node {u}");
        assert!(
            (u as usize) < self.node_count && (v as usize) < self.node_count,
            "edge ({u}, {v}) out of range for {} nodes",
            self.node_count
        );
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
        self
    }

    /// Like [`add_edge`](Self::add_edge) but returns an error instead of
    /// panicking; used by the edge-list parser where endpoints come from
    /// untrusted input.
    pub fn try_add_edge(&mut self, u: u64, v: u64) -> Result<&mut Self, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let nc = self.node_count as u64;
        if self.node_count > MAX_NODES {
            return Err(GraphError::TooManyNodes { node_count: nc });
        }
        if u >= nc || v >= nc {
            return Err(GraphError::NodeOutOfRange { node: u.max(v), node_count: nc });
        }
        Ok(self.add_edge(u as Node, v as Node))
    }

    /// Finalizes the graph in O(n + m), with no comparison sort.
    ///
    /// Counts degrees over the added pairs, prefix-sums them into the CSR
    /// offsets and scatters both endpoints of every pair into their rows.
    /// If a row then is not strictly ascending, the rows are transposed
    /// once, which writes every row in ascending order, and repeated
    /// entries are compacted away. The result has sorted rows and no
    /// parallel edges, and depends only on the set of edges added, not on
    /// their order, orientation or repetition.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`] if the builder was created with
    /// zero nodes, and [`GraphError::TooManyNodes`] if its node count
    /// exceeds [`MAX_NODES`].
    pub fn build(self) -> Result<Graph, GraphError> {
        let n = self.node_count;
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if n > MAX_NODES {
            return Err(GraphError::TooManyNodes { node_count: n as u64 });
        }
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut neighbors = vec![0 as Node; offsets[n]];
        for (u, v) in self.edges {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        if !rows_ascending(&offsets, &neighbors) {
            // Row w holds x as often as row x holds w, so appending w to
            // the row of every x in row w, for w in node order, refills
            // each row with the same entries in ascending order.
            cursor.copy_from_slice(&offsets[..n]);
            let mut sorted = vec![0 as Node; offsets[n]];
            for w in 0..n {
                for &x in &neighbors[offsets[w]..offsets[w + 1]] {
                    sorted[cursor[x as usize]] = w as Node;
                    cursor[x as usize] += 1;
                }
            }
            neighbors = sorted;
            // Compact each row's distinct entries down to `write`; row
            // v's bounds are read before `offsets[v]` moves.
            let mut write = 0;
            for v in 0..n {
                let (start, end) = (offsets[v], offsets[v + 1]);
                offsets[v] = write;
                for i in start..end {
                    let w = neighbors[i];
                    if write == offsets[v] || neighbors[write - 1] != w {
                        neighbors[write] = w;
                        write += 1;
                    }
                }
            }
            offsets[n] = write;
            neighbors.truncate(write);
        }
        debug_assert!(rows_ascending(&offsets, &neighbors));
        Ok(Graph::from_csr(offsets, neighbors))
    }
}

/// Whether every CSR row is strictly ascending: sorted, with no repeats.
fn rows_ascending(offsets: &[usize], neighbors: &[Node]) -> bool {
    offsets.windows(2).all(|r| neighbors[r[0]..r[1]].windows(2).all(|w| w[0] < w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_graph() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(3, 0).add_edge(1, 2).add_edge(0, 1);
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn deduplicates_edges_in_both_orientations() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).add_edge(1, 0).add_edge(0, 1);
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        GraphBuilder::new(2).add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        GraphBuilder::new(2).add_edge(0, 2);
    }

    #[test]
    fn try_add_edge_reports_errors() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(b.try_add_edge(1, 1).unwrap_err(), GraphError::SelfLoop { node: 1 });
        assert_eq!(
            b.try_add_edge(0, 7).unwrap_err(),
            GraphError::NodeOutOfRange { node: 7, node_count: 3 }
        );
        assert!(b.try_add_edge(0, 2).is_ok());
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn node_count_beyond_node_labels_is_an_error() {
        let mut b = GraphBuilder::new(5_000_000_000);
        let too_many = GraphError::TooManyNodes { node_count: 5_000_000_000 };
        assert_eq!(b.try_add_edge(0, 4_294_967_296).unwrap_err(), too_many);
        assert_eq!(b.build().unwrap_err(), too_many);
    }

    #[test]
    fn empty_graph_is_an_error() {
        assert_eq!(GraphBuilder::new(0).build().unwrap_err(), GraphError::EmptyGraph);
    }

    #[test]
    fn single_node_no_edges_builds() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(0), 0);
    }

    #[test]
    fn edge_capacity_constructor() {
        let b = GraphBuilder::with_edge_capacity(10, 100);
        assert_eq!(b.node_count(), 10);
        assert_eq!(b.edge_count(), 0);
    }
}
