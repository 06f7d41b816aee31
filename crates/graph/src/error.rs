//! Error type for graph construction and parsing.

use std::error::Error;
use std::fmt;

/// Errors produced when building or parsing a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referred to a node ≥ the declared node count.
    NodeOutOfRange {
        /// The offending node index.
        node: u64,
        /// The declared number of nodes.
        node_count: u64,
    },
    /// An edge connected a node to itself.
    SelfLoop {
        /// The node with the self-loop.
        node: u64,
    },
    /// The graph had zero nodes.
    EmptyGraph,
    /// The node count exceeds [`crate::MAX_NODES`], so labels would not
    /// fit in a [`crate::Node`].
    TooManyNodes {
        /// The declared number of nodes.
        node_count: u64,
    },
    /// An edge-list line could not be parsed.
    ParseEdgeList {
        /// 1-based line number of the malformed line.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(f, "node {node} out of range for graph with {node_count} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::EmptyGraph => write!(f, "graph must have at least one node"),
            GraphError::TooManyNodes { node_count } => {
                write!(f, "{node_count} nodes exceed the limit of {}", crate::MAX_NODES)
            }
            GraphError::ParseEdgeList { line, message } => {
                write!(f, "edge list parse error at line {line}: {message}")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = GraphError::NodeOutOfRange { node: 9, node_count: 5 };
        assert_eq!(e.to_string(), "node 9 out of range for graph with 5 nodes");
        let e = GraphError::SelfLoop { node: 3 };
        assert_eq!(e.to_string(), "self-loop at node 3");
        let e = GraphError::EmptyGraph;
        assert!(e.to_string().contains("at least one node"));
        let e = GraphError::TooManyNodes { node_count: 1 << 40 };
        assert_eq!(e.to_string(), "1099511627776 nodes exceed the limit of 4294967295");
        let e = GraphError::ParseEdgeList { line: 2, message: "bad token".into() };
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn error_is_send_sync_static() {
        fn check<T: std::error::Error + Send + Sync + 'static>() {}
        check::<GraphError>();
    }
}
