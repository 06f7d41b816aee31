//! The run configuration of the static engines: sources, mode and
//! message loss.
//!
//! The paper's model has one source and perfectly reliable exchanges; two
//! generalizations matter for a practical gossip library and for the
//! robustness experiments (E18). Both are parameters of the one loop per
//! protocol — [`run_sync_probed`](crate::sync::run_sync_probed) and
//! [`run_async_probed`](crate::asynchronous::run_async_probed), in every
//! clock view — not separate engines:
//!
//! * **multiple sources** — the rumor may be injected at a set of nodes
//!   (e.g. replicated writes in the Demers et al. anti-entropy setting);
//! * **lossy contacts** — every contact independently fails to transmit
//!   with probability `loss`, modelling message loss. Since each round's
//!   contacts are independent, a loss rate `p` simply thins transmissions
//!   by `1 − p`, and spreading times scale like `1/(1 − p)` on
//!   bottleneck-free graphs — which E18 measures.

use rumor_graph::Node;

use crate::mode::Mode;

/// Configuration for a spreading run: sources, mode, and loss rate.
///
/// Built with a consuming builder:
///
/// ```
/// use rumor_core::spread::SpreadConfig;
/// use rumor_core::Mode;
/// let cfg = SpreadConfig::new(0)
///     .with_sources(&[0, 5])
///     .with_mode(Mode::Push)
///     .with_loss_probability(0.25);
/// assert_eq!(cfg.sources(), &[0, 5]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpreadConfig {
    sources: Vec<Node>,
    mode: Mode,
    loss_probability: f64,
}

impl SpreadConfig {
    /// A reliable single-source push–pull configuration.
    pub fn new(source: Node) -> Self {
        Self { sources: vec![source], mode: Mode::PushPull, loss_probability: 0.0 }
    }

    /// Replaces the source set (deduplicated, order preserved).
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty.
    pub fn with_sources(mut self, sources: &[Node]) -> Self {
        assert!(!sources.is_empty(), "need at least one source");
        let mut seen = std::collections::HashSet::new();
        self.sources = sources.iter().copied().filter(|s| seen.insert(*s)).collect();
        self
    }

    /// Replaces the communication mode.
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the per-contact loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `loss ∈ [0, 1)` (at 1 nothing ever spreads).
    pub fn with_loss_probability(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        self.loss_probability = loss;
        self
    }

    /// The source set.
    pub fn sources(&self) -> &[Node] {
        &self.sources
    }

    /// The communication mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The per-contact loss probability.
    pub fn loss_probability(&self) -> f64 {
        self.loss_probability
    }

    /// Checks every source against the node count `n`.
    pub(crate) fn validate(&self, n: usize) {
        for &s in &self.sources {
            assert!((s as usize) < n, "source out of range: {s} >= {n}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_and_dedups() {
        let cfg = SpreadConfig::new(3).with_sources(&[1, 2, 1, 3, 2]);
        assert_eq!(cfg.sources(), &[1, 2, 3]);
        assert_eq!(cfg.mode(), Mode::PushPull);
        assert_eq!(cfg.loss_probability(), 0.0);
    }

    #[test]
    #[should_panic(expected = "loss must be in")]
    fn rejects_loss_of_one() {
        SpreadConfig::new(0).with_loss_probability(1.0);
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn rejects_empty_sources() {
        SpreadConfig::new(0).with_sources(&[]);
    }
}
