//! Elementary deterministic families: complete, star, path, cycle, and the
//! star-like worst cases for push-only spreading.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, Node, MAX_NODES};

/// The complete graph `K_n`, with implicit rows: it stores `n`, not
/// `n(n − 1)` adjacency entries, answers degrees, edge counts,
/// [`Graph::has_edge`] and [`Graph::random_neighbor`] in closed form,
/// and writes its CSR arrays only when a consumer asks for row slices
/// (see [`Graph`]).
///
/// Sync push–pull informs everyone in `O(log n)` rounds; used as the
/// classical “both models within constants” baseline.
///
/// # Panics
///
/// Panics if `n < 2` or `n > MAX_NODES`.
pub fn complete(n: usize) -> Graph {
    assert!(n >= 2, "complete graph needs n >= 2");
    assert!(n <= MAX_NODES, "complete graph needs n <= {MAX_NODES}");
    Graph::complete(n)
}

/// The star `S_n`: node 0 is the center, nodes `1..n` are leaves.
///
/// The paper's marquee example — synchronous push–pull finishes in at most
/// two rounds, while the asynchronous protocol needs `Θ(log n)` time —
/// which is exactly why Theorem 1 carries an additive `O(log n)` term.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "star needs n >= 2");
    let mut b = GraphBuilder::with_edge_capacity(n, n - 1);
    for v in 1..n as Node {
        b.add_edge(0, v);
    }
    b.build().expect("n >= 2")
}

/// The path `P_n`: nodes `0..n` in a line.
///
/// Spreading time `Θ(n)` for both models — a worst case for diameter.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn path(n: usize) -> Graph {
    assert!(n >= 2, "path needs n >= 2");
    let mut b = GraphBuilder::with_edge_capacity(n, n - 1);
    for v in 0..(n - 1) as Node {
        b.add_edge(v, v + 1);
    }
    b.build().expect("n >= 2")
}

/// The cycle `C_n` — the simplest 2-regular graph, used in Corollary 3's
/// regular-graph experiments.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs n >= 3");
    let mut b = GraphBuilder::with_edge_capacity(n, n);
    for v in 0..n as Node {
        b.add_edge(v, ((v as usize + 1) % n) as Node);
    }
    b.build().expect("n >= 3")
}

/// A double star: two adjacent centers with `left` and `right` leaves
/// respectively (`n = left + right + 2`).
///
/// On this graph synchronous push needs `Θ(k log k)` rounds (coupon
/// collector on the leaves) while push–pull needs `O(1)` — the canonical
/// non-regular family where pull matters, complementing Corollary 3's
/// statement that on *regular* graphs it does not.
///
/// # Panics
///
/// Panics if `left == 0` or `right == 0`.
pub fn double_star(left: usize, right: usize) -> Graph {
    assert!(left > 0 && right > 0, "double star needs leaves on both sides");
    let n = left + right + 2;
    let mut b = GraphBuilder::with_edge_capacity(n, n - 1);
    let c0: Node = 0;
    let c1: Node = 1;
    b.add_edge(c0, c1);
    for i in 0..left {
        b.add_edge(c0, (2 + i) as Node);
    }
    for i in 0..right {
        b.add_edge(c1, (2 + left + i) as Node);
    }
    b.build().expect("n >= 4")
}

/// A broom: a path of `handle` nodes whose far end carries `bristles`
/// leaves (`n = handle + bristles`). Mixes diameter-bound spreading with a
/// star-like finish.
///
/// # Panics
///
/// Panics if `handle == 0` or `bristles == 0`.
pub fn broom(handle: usize, bristles: usize) -> Graph {
    assert!(handle > 0 && bristles > 0, "broom needs a handle and bristles");
    let n = handle + bristles;
    let mut b = GraphBuilder::with_edge_capacity(n, n - 1);
    for v in 0..handle.saturating_sub(1) as Node {
        b.add_edge(v, v + 1);
    }
    let hub = (handle - 1) as Node;
    for i in 0..bristles {
        b.add_edge(hub, (handle + i) as Node);
    }
    b.build().expect("n >= 2")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props;

    #[test]
    fn complete_graph_shape() {
        let g = complete(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.regular_degree(), Some(4));
        assert!(props::is_connected(&g));
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.degree(0), 5);
        for v in 1..6 {
            assert_eq!(g.degree(v), 1);
            assert_eq!(g.neighbors(v), &[0]);
        }
        assert!(props::is_connected(&g));
    }

    #[test]
    fn path_shape() {
        let g = path(4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(props::diameter(&g), Some(3));
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.regular_degree(), Some(2));
        assert_eq!(props::diameter(&g), Some(3));
    }

    #[test]
    fn cycle_of_three_is_triangle() {
        let g = cycle(3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn double_star_shape() {
        let g = double_star(3, 4);
        assert_eq!(g.node_count(), 9);
        assert_eq!(g.degree(0), 4); // 3 leaves + other center
        assert_eq!(g.degree(1), 5); // 4 leaves + other center
        assert!(props::is_connected(&g));
        assert_eq!(props::diameter(&g), Some(3));
    }

    #[test]
    fn broom_shape() {
        let g = broom(4, 3);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.degree(3), 1 + 3); // hub: path predecessor + bristles
        assert!(props::is_connected(&g));
        assert_eq!(props::diameter(&g), Some(4));
    }

    #[test]
    fn broom_with_unit_handle_is_star() {
        let g = broom(1, 5);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.degree(0), 5);
    }

    #[test]
    #[should_panic(expected = "n >= 2")]
    fn star_rejects_tiny() {
        star(1);
    }
}
