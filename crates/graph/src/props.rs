//! Structural graph properties: BFS, connectivity, diameter, degrees.

use crate::csr::{Graph, Node};

/// Sentinel distance for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `src`; unreachable nodes get [`UNREACHABLE`].
///
/// # Panics
///
/// Panics if `src` is out of range.
///
/// # Example
///
/// ```
/// use rumor_graph::{generators, props};
/// let g = generators::path(4);
/// assert_eq!(props::bfs_distances(&g, 0), vec![0, 1, 2, 3]);
/// ```
pub fn bfs_distances(g: &Graph, src: Node) -> Vec<u32> {
    assert!((src as usize) < g.node_count(), "source out of range");
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = std::collections::VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        for &w in g.neighbors(v) {
            if dist[w as usize] == UNREACHABLE {
                dist[w as usize] = d + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Whether the graph is connected (single node counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    // A simple graph with every possible edge is K_n: connected, and a
    // search would write an implicit K_n's rows for nothing.
    let n = g.node_count();
    (n >= 2 && g.edge_count() == n * (n - 1) / 2)
        || bfs_distances(g, 0).iter().all(|&d| d != UNREACHABLE)
}

/// Eccentricity of `src`: the largest BFS distance from it, or `None` if
/// the graph is disconnected.
pub fn eccentricity(g: &Graph, src: Node) -> Option<usize> {
    let dist = bfs_distances(g, src);
    let max = *dist.iter().max().expect("graph has nodes");
    if max == UNREACHABLE {
        None
    } else {
        Some(max as usize)
    }
}

/// Exact diameter by all-pairs BFS (`O(n·m)`), or `None` if disconnected.
///
/// Fine for the experiment sizes in this workspace (n ≤ ~10⁴); not meant
/// for web-scale graphs.
pub fn diameter(g: &Graph) -> Option<usize> {
    let mut best = 0usize;
    for v in g.nodes() {
        best = best.max(eccentricity(g, v)?);
    }
    Some(best)
}

/// Summary of a graph's degree sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Average degree `2m/n`.
    pub mean: f64,
    /// `Some(d)` if the graph is `d`-regular.
    pub regular: Option<usize>,
}

/// Computes [`DegreeStats`] for a graph.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    DegreeStats {
        min: g.min_degree(),
        max: g.max_degree(),
        mean: g.avg_degree(),
        regular: g.regular_degree(),
    }
}

/// Extracts the largest connected component as a new graph.
///
/// Returns the component graph and the mapping from new node indices to
/// the original ones (`mapping[new] == old`). Heavy-tailed random graphs
/// (Chung–Lu at moderate average degree) almost always contain a few
/// isolated vertices; the literature the paper cites studies rumor
/// spreading on the giant component, and so do the experiments here.
///
/// # Example
///
/// ```
/// use rumor_graph::{props, GraphBuilder};
/// let mut b = GraphBuilder::new(5);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(3, 4);
/// let g = b.build()?;
/// let (giant, mapping) = props::largest_component(&g);
/// assert_eq!(giant.node_count(), 3);
/// assert_eq!(mapping, vec![0, 1, 2]);
/// # Ok::<(), rumor_graph::GraphError>(())
/// ```
pub fn largest_component(g: &Graph) -> (Graph, Vec<Node>) {
    let n = g.node_count();
    // Label components.
    let mut comp = vec![usize::MAX; n];
    let mut sizes = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let id = sizes.len();
        let mut size = 0usize;
        comp[start] = id;
        queue.push_back(start as Node);
        while let Some(v) = queue.pop_front() {
            size += 1;
            for &w in g.neighbors(v) {
                if comp[w as usize] == usize::MAX {
                    comp[w as usize] = id;
                    queue.push_back(w);
                }
            }
        }
        sizes.push(size);
    }
    let best =
        sizes.iter().enumerate().max_by_key(|(_, &s)| s).map(|(i, _)| i).expect("graph has nodes");
    // Relabel the winning component's nodes in ascending order.
    let mut mapping = Vec::with_capacity(sizes[best]);
    let mut new_id = vec![u32::MAX; n];
    for v in 0..n {
        if comp[v] == best {
            new_id[v] = mapping.len() as u32;
            mapping.push(v as Node);
        }
    }
    let mut b = crate::GraphBuilder::with_edge_capacity(mapping.len(), g.edge_count());
    for (u, v) in g.edges() {
        if comp[u as usize] == best && comp[v as usize] == best {
            b.add_edge(new_id[u as usize], new_id[v as usize]);
        }
    }
    (b.build().expect("component is non-empty"), mapping)
}

/// Number of triangles in the graph (each counted once).
///
/// Uses the sorted-adjacency merge: for each edge `(u, v)` with `u < v`,
/// counts common neighbors `w > v`. `O(Σ_e (deg(u) + deg(v)))`.
pub fn triangle_count(g: &Graph) -> u64 {
    let mut count = 0u64;
    for (u, v) in g.edges() {
        let (mut i, mut j) = (0usize, 0usize);
        let (nu, nv) = (g.neighbors(u), g.neighbors(v));
        while i < nu.len() && j < nv.len() {
            let (a, b) = (nu[i], nv[j]);
            if a == b {
                if a > v {
                    count += 1;
                }
                i += 1;
                j += 1;
            } else if a < b {
                i += 1;
            } else {
                j += 1;
            }
        }
    }
    count
}

/// Global clustering coefficient: `3·triangles / open-or-closed wedges`
/// (`Σ_v deg(v)·(deg(v)−1)/2`). Returns 0 for graphs with no wedges.
pub fn global_clustering(g: &Graph) -> f64 {
    let wedges: u64 = g
        .nodes()
        .map(|v| {
            let d = g.degree(v) as u64;
            d * d.saturating_sub(1) / 2
        })
        .sum();
    if wedges == 0 {
        0.0
    } else {
        3.0 * triangle_count(g) as f64 / wedges as f64
    }
}

/// Degree histogram: `hist[d]` = number of nodes of degree `d`
/// (length `max_degree + 1`).
pub fn degree_histogram(g: &Graph) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_degree() + 1];
    for v in g.nodes() {
        hist[g.degree(v)] += 1;
    }
    hist
}

/// Number of edges with exactly one endpoint in `set` (given as a
/// membership mask).
///
/// # Panics
///
/// Panics if `mask.len() != g.node_count()`.
pub fn edge_boundary(g: &Graph, mask: &[bool]) -> usize {
    assert_eq!(mask.len(), g.node_count(), "mask size mismatch");
    g.edges().filter(|&(u, v)| mask[u as usize] != mask[v as usize]).count()
}

/// Conductance of the cut `(S, V∖S)`:
/// `|∂S| / min(vol(S), vol(V∖S))`, with volume = sum of degrees.
/// Returns `None` if either side is empty (no cut).
///
/// # Panics
///
/// Panics if `mask.len() != g.node_count()`.
pub fn cut_conductance(g: &Graph, mask: &[bool]) -> Option<f64> {
    assert_eq!(mask.len(), g.node_count(), "mask size mismatch");
    let vol_s: usize = g.nodes().filter(|&v| mask[v as usize]).map(|v| g.degree(v)).sum();
    let vol_rest = 2 * g.edge_count() - vol_s;
    if vol_s == 0 || vol_rest == 0 {
        return None;
    }
    Some(edge_boundary(g, mask) as f64 / vol_s.min(vol_rest) as f64)
}

/// An upper bound on the graph conductance `Φ(G)` from a BFS sweep: the
/// minimum cut conductance over all prefixes of a breadth-first order
/// from `src`.
///
/// The paper's Theorem 1 transfers the known conductance-based bounds
/// (`T(pp) = O(log n / Φ)`, Giakkoupis 2011) to the asynchronous model;
/// this estimator gives the `Φ` to plug in.
///
/// # Panics
///
/// Panics if `src` is out of range or the graph is disconnected.
pub fn sweep_conductance_upper_bound(g: &Graph, src: Node) -> f64 {
    let dist = bfs_distances(g, src);
    assert!(dist.iter().all(|&d| d != UNREACHABLE), "sweep conductance requires a connected graph");
    let mut order: Vec<Node> = g.nodes().collect();
    order.sort_by_key(|&v| dist[v as usize]);
    let mut mask = vec![false; g.node_count()];
    let mut best = f64::INFINITY;
    for &v in order.iter().take(g.node_count() - 1) {
        mask[v as usize] = true;
        if let Some(phi) = cut_conductance(g, &mask) {
            best = best.min(phi);
        }
    }
    best
}

/// Number of connected components.
pub fn component_count(g: &Graph) -> usize {
    let n = g.node_count();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = count;
        queue.push_back(start as Node);
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                if comp[w as usize] == usize::MAX {
                    comp[w as usize] = count;
                    queue.push_back(w);
                }
            }
        }
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;

    #[test]
    fn bfs_on_cycle() {
        let g = generators::cycle(6);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build().unwrap();
        assert!(!is_connected(&g));
        assert_eq!(component_count(&g), 2);
        assert_eq!(diameter(&g), None);
        assert_eq!(eccentricity(&g, 0), None);
    }

    #[test]
    fn diameter_of_known_families() {
        assert_eq!(diameter(&generators::complete(7)), Some(1));
        assert_eq!(diameter(&generators::star(10)), Some(2));
        assert_eq!(diameter(&generators::path(10)), Some(9));
        assert_eq!(diameter(&generators::cycle(9)), Some(4));
    }

    #[test]
    fn complete_graph_is_connected_without_its_rows() {
        // The rows of K_1000000 would take 4 TB.
        assert!(is_connected(&generators::complete(1_000_000)));
    }

    #[test]
    fn singleton_is_connected() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert!(is_connected(&g));
        assert_eq!(component_count(&g), 1);
        assert_eq!(diameter(&g), Some(0));
    }

    #[test]
    fn degree_stats_star() {
        let s = degree_stats(&generators::star(5));
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert_eq!(s.regular, None);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn degree_stats_regular() {
        let s = degree_stats(&generators::hypercube(4));
        assert_eq!(s.regular, Some(4));
        assert_eq!(s.min, 4);
        assert_eq!(s.max, 4);
    }

    #[test]
    fn component_count_isolated_nodes() {
        let g = GraphBuilder::new(3).build().unwrap();
        assert_eq!(component_count(&g), 3);
    }

    #[test]
    fn triangle_counts_of_known_graphs() {
        assert_eq!(triangle_count(&generators::complete(4)), 4);
        assert_eq!(triangle_count(&generators::complete(5)), 10);
        assert_eq!(triangle_count(&generators::cycle(3)), 1);
        assert_eq!(triangle_count(&generators::cycle(5)), 0);
        assert_eq!(triangle_count(&generators::star(10)), 0);
        assert_eq!(triangle_count(&generators::hypercube(4)), 0); // bipartite
    }

    #[test]
    fn clustering_of_complete_graph_is_one() {
        assert!((global_clustering(&generators::complete(6)) - 1.0).abs() < 1e-12);
        assert_eq!(global_clustering(&generators::star(6)), 0.0);
        // Necklace of cliques: high clustering.
        let g = generators::necklace_of_cliques(3, 5);
        assert!(global_clustering(&g) > 0.7);
    }

    #[test]
    fn degree_histogram_star() {
        let hist = degree_histogram(&generators::star(5));
        assert_eq!(hist[1], 4);
        assert_eq!(hist[4], 1);
        assert_eq!(hist.iter().sum::<usize>(), 5);
    }

    #[test]
    fn edge_boundary_and_conductance() {
        let g = generators::cycle(8);
        let mut mask = vec![false; 8];
        mask[..4].fill(true); // an arc: boundary = 2 edges
        assert_eq!(edge_boundary(&g, &mask), 2);
        // vol(S) = 8, vol(rest) = 8 → Φ = 2/8.
        assert!((cut_conductance(&g, &mask).unwrap() - 0.25).abs() < 1e-12);
        // Degenerate cuts return None.
        assert_eq!(cut_conductance(&g, &[false; 8]), None);
        assert_eq!(cut_conductance(&g, &[true; 8]), None);
    }

    #[test]
    fn sweep_conductance_detects_bottleneck() {
        // Two cliques joined by one bridge: conductance ~ 1/vol(clique).
        let clique = generators::complete(8);
        let g = crate::ops::connect_with_bridge(&clique, &clique, 0, 0);
        let phi = sweep_conductance_upper_bound(&g, 0);
        assert!(phi < 0.05, "bottleneck missed: {phi}");
        // An expander-ish graph has much larger sweep conductance.
        let phi_k = sweep_conductance_upper_bound(&generators::complete(16), 0);
        assert!(phi_k > 0.4, "complete graph conductance {phi_k}");
    }

    #[test]
    fn largest_component_of_connected_graph_is_identity() {
        let g = generators::cycle(8);
        let (giant, mapping) = largest_component(&g);
        assert_eq!(giant, g);
        assert_eq!(mapping, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn largest_component_picks_biggest() {
        let mut b = GraphBuilder::new(7);
        // Component A: 0-1; Component B: 2-3-4-5 (path); isolated: 6.
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        b.add_edge(3, 4);
        b.add_edge(4, 5);
        let g = b.build().unwrap();
        let (giant, mapping) = largest_component(&g);
        assert_eq!(giant.node_count(), 4);
        assert_eq!(giant.edge_count(), 3);
        assert_eq!(mapping, vec![2, 3, 4, 5]);
        assert!(is_connected(&giant));
        // Edges preserved under relabeling.
        assert!(giant.has_edge(0, 1));
        assert!(giant.has_edge(1, 2));
        assert!(giant.has_edge(2, 3));
        assert!(!giant.has_edge(0, 3));
    }
}
