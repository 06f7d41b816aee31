//! Graph substrate for rumor spreading.
//!
//! Provides a compact CSR graph representation ([`Graph`]), a validating
//! [`GraphBuilder`], generators for every graph family used by the
//! PODC 2016 paper (see [`generators`]), structural properties
//! ([`props`]), plain-text edge-list I/O ([`io`]), a mutable
//! adjacency adapter for temporal-graph simulation ([`dynamic`]), a
//! grid spatial index for geometric mobility models ([`geometry`]), and
//! a thread-local scratch pool that recycles per-trial buffers
//! ([`arena`]).
//!
//! The paper's protocols only ever ask two things of a graph: *“what is
//! `deg(v)`?”* and *“give me a uniformly random neighbor of `v`”*. CSR
//! adjacency answers both in O(1) with cache-friendly layout, which is why
//! this crate does not pull in a general-purpose graph library. The
//! complete graph answers both in closed form and stores no rows until
//! a consumer asks for them (see [`Graph`]).
//!
//! # Example
//!
//! ```
//! use rumor_graph::{generators, props};
//! use rumor_sim::rng::Xoshiro256PlusPlus;
//!
//! let g = generators::hypercube(4);
//! assert_eq!(g.node_count(), 16);
//! assert_eq!(g.degree(0), 4);
//! assert!(props::is_connected(&g));
//!
//! let mut rng = Xoshiro256PlusPlus::seed_from(1);
//! let w = g.random_neighbor(3, &mut rng);
//! assert!(g.neighbors(3).contains(&w));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
mod builder;
mod csr;
pub mod dynamic;
mod error;
pub mod generators;
pub mod geometry;
pub mod io;
pub mod ops;
pub mod props;

pub use builder::GraphBuilder;
pub use csr::{Graph, Node, RandomNeighbor, RowVisitor, MAX_NODES};
pub use error::GraphError;
