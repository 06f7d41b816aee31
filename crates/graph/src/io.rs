//! Plain-text edge-list serialization.
//!
//! Format: first non-comment line is `n m` (node and edge counts); each
//! subsequent line is an edge `u v`. Lines starting with `#` are comments.
//! This is the lingua franca accepted by most graph tools, so generated
//! instances can be inspected or exported.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, MAX_NODES};
use crate::error::GraphError;

/// Serializes a graph to edge-list text.
///
/// # Example
///
/// ```
/// use rumor_graph::{generators, io};
/// let g = generators::path(3);
/// let text = io::to_edge_list(&g);
/// let g2 = io::from_edge_list(&text)?;
/// assert_eq!(g, g2);
/// # Ok::<(), rumor_graph::GraphError>(())
/// ```
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = String::with_capacity(16 + g.edge_count() * 8);
    out.push_str(&format!("{} {}\n", g.node_count(), g.edge_count()));
    for (u, v) in g.edges() {
        out.push_str(&format!("{u} {v}\n"));
    }
    out
}

/// Parses edge-list text produced by [`to_edge_list`] (or compatible).
///
/// # Errors
///
/// Returns [`GraphError::ParseEdgeList`] for malformed headers or edge
/// lines, [`GraphError::TooManyNodes`] for a node count above
/// [`MAX_NODES`], and the usual construction errors for self-loops or
/// out-of-range endpoints.
pub fn from_edge_list(text: &str) -> Result<Graph, GraphError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (line_no, header) = lines
        .next()
        .ok_or(GraphError::ParseEdgeList { line: 1, message: "missing header line".into() })?;
    let mut parts = header.split_whitespace();
    let parse_num = |tok: Option<&str>, line: usize| -> Result<u64, GraphError> {
        tok.ok_or(GraphError::ParseEdgeList { line, message: "expected two integers".into() })?
            .parse::<u64>()
            .map_err(|e| GraphError::ParseEdgeList { line, message: e.to_string() })
    };
    let n = parse_num(parts.next(), line_no)?;
    let m = parse_num(parts.next(), line_no)?;
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if n > MAX_NODES as u64 {
        return Err(GraphError::TooManyNodes { node_count: n });
    }

    // The header is untrusted: reserve no more edges than the text can
    // hold (an edge line takes at least 4 bytes, "0 1\n").
    let edge_hint = m.min((text.len() / 4) as u64) as usize;
    let mut b = GraphBuilder::with_edge_capacity(n as usize, edge_hint);
    let mut seen_edges = 0u64;
    for (line_no, line) in lines {
        let mut parts = line.split_whitespace();
        let u = parse_num(parts.next(), line_no)?;
        let v = parse_num(parts.next(), line_no)?;
        if parts.next().is_some() {
            return Err(GraphError::ParseEdgeList {
                line: line_no,
                message: "trailing tokens after edge".into(),
            });
        }
        b.try_add_edge(u, v)?;
        seen_edges += 1;
    }
    if seen_edges != m {
        return Err(GraphError::ParseEdgeList {
            line: 1,
            message: format!("header declared {m} edges but found {seen_edges}"),
        });
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn round_trip_various_graphs() {
        for g in [
            generators::star(8),
            generators::cycle(5),
            generators::hypercube(3),
            generators::complete(6),
        ] {
            let text = to_edge_list(&g);
            let back = from_edge_list(&text).unwrap();
            assert_eq!(g, back);
        }
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# a triangle\n\n3 3\n0 1\n# middle comment\n1 2\n0 2\n";
        let g = from_edge_list(text).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn missing_header_is_error() {
        assert!(matches!(from_edge_list("").unwrap_err(), GraphError::ParseEdgeList { .. }));
    }

    #[test]
    fn edge_count_mismatch_is_error() {
        let err = from_edge_list("3 5\n0 1\n").unwrap_err();
        assert!(matches!(err, GraphError::ParseEdgeList { .. }));
        assert!(err.to_string().contains("declared 5"));
    }

    #[test]
    fn bad_tokens_are_errors() {
        assert!(from_edge_list("3 1\n0 x\n").is_err());
        assert!(from_edge_list("3 1\n0 1 9\n").is_err());
        assert!(from_edge_list("zzz\n").is_err());
    }

    #[test]
    fn self_loop_rejected() {
        assert_eq!(from_edge_list("3 1\n1 1\n").unwrap_err(), GraphError::SelfLoop { node: 1 });
    }

    #[test]
    fn out_of_range_rejected() {
        assert_eq!(
            from_edge_list("3 1\n0 3\n").unwrap_err(),
            GraphError::NodeOutOfRange { node: 3, node_count: 3 }
        );
    }

    #[test]
    fn zero_nodes_rejected() {
        assert_eq!(from_edge_list("0 0\n").unwrap_err(), GraphError::EmptyGraph);
    }

    #[test]
    fn huge_edge_count_header_is_an_error_not_an_abort() {
        let err = from_edge_list("4 1000000000000000\n0 1\n1 2\n").unwrap_err();
        assert!(err.to_string().contains("declared 1000000000000000"), "{err}");
    }

    #[test]
    fn node_count_beyond_node_labels_is_rejected() {
        assert_eq!(
            from_edge_list("1000000000000 1\n0 1\n").unwrap_err(),
            GraphError::TooManyNodes { node_count: 1_000_000_000_000 }
        );
    }

    #[test]
    fn endpoint_beyond_node_labels_never_wraps() {
        assert_eq!(
            from_edge_list("5000000000 1\n0 4294967296\n").unwrap_err(),
            GraphError::TooManyNodes { node_count: 5_000_000_000 }
        );
    }
}
