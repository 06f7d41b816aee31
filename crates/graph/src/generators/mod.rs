//! Graph generators covering every family the PODC 2016 paper mentions.
//!
//! Deterministic families (star, path, cycle, complete, hypercube, torus,
//! trees, diamonds) take size parameters and always return the same graph.
//! Random families (`G(n,p)`, random regular, Chung–Lu, preferential
//! attachment) take an explicit RNG so experiments stay reproducible, and
//! have `*_connected` wrappers that retry until the sample is connected.
//!
//! | Paper reference | Generator |
//! |---|---|
//! | star example (§1): sync ≤ 2, async Θ(log n) | [`star`] |
//! | regular graphs for Corollary 3 | [`cycle`], [`torus`], [`hypercube`], [`random_regular`], [`complete`] |
//! | social-network topologies (§1) | [`chung_lu`], [`preferential_attachment`] |
//! | classical graphs (§1): both models within O(1) | [`hypercube`], [`gnp`], [`random_regular`], [`complete`] |
//! | Acan et al. sync-Θ(n^⅓)-vs-async-log separation | [`string_of_diamonds`] |
//! | push worst case (star-like, §1) | [`double_star`] |

mod basic;
mod diamonds;
mod hypercube;
mod lattice;
mod powerlaw;
mod random;
mod tree;

pub use basic::{broom, complete, cycle, double_star, path, star};
pub use diamonds::{diamond_parameters, necklace_of_cliques, string_of_diamonds};
pub use hypercube::hypercube;
pub use lattice::{grid, torus};
pub use powerlaw::{chung_lu, chung_lu_connected, chung_lu_giant, preferential_attachment};
pub use random::{
    gnm, gnp, gnp_connected, random_regular, random_regular_connected, try_gnp_connected,
    try_random_regular_connected,
};
pub use tree::{caterpillar, complete_binary_tree};
