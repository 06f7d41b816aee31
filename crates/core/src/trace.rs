//! Transmission traces: the full causal history of a spreading run.
//!
//! The plain engines report *when* each node was informed; a [`Trace`]
//! additionally records *who informed whom and how* (push or pull), which
//! is what downstream analyses need — rumor paths (the `π_v` of the
//! paper's proofs), informer fan-out, push/pull accounting.
//!
//! A trace is a [`Probe`]: pass one to
//! [`run_sync_probed`](crate::sync::run_sync_probed) or
//! [`run_async_probed`](crate::asynchronous::run_async_probed) (any
//! clock view, any [`SpreadConfig`](crate::spread::SpreadConfig)) and it
//! records every transmission of the run. Recording draws no randomness,
//! so a traced run replays its untraced twin seed-for-seed.
//!
//! ```
//! use rumor_core::spread::SpreadConfig;
//! use rumor_core::sync::run_sync_probed;
//! use rumor_core::trace::Trace;
//! use rumor_graph::generators;
//! use rumor_sim::rng::Xoshiro256PlusPlus;
//!
//! let g = generators::complete(16);
//! let mut trace = Trace::new();
//! let mut rng = Xoshiro256PlusPlus::seed_from(4);
//! run_sync_probed(&g, &SpreadConfig::new(0), &mut rng, 1_000, &mut trace);
//! assert!(trace.complete());
//! let path = trace.rumor_path(7).expect("informed");
//! assert_eq!(path[0], 0);
//! assert_eq!(*path.last().unwrap(), 7);
//! ```

use rumor_graph::Node;

use crate::obs::Probe;

/// How a node learned the rumor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transmission {
    /// The informer called the learner (informer pushed).
    Push,
    /// The learner called the informer (learner pulled).
    Pull,
}

impl Transmission {
    /// `(informer, learner)` of a transmission in which `caller`
    /// contacted `callee`.
    pub(crate) fn roles(self, caller: Node, callee: Node) -> (Node, Node) {
        match self {
            Transmission::Push => (caller, callee),
            Transmission::Pull => (callee, caller),
        }
    }
}

impl std::fmt::Display for Transmission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Transmission::Push => "push",
            Transmission::Pull => "pull",
        })
    }
}

/// One informing event: `learner` got the rumor from `informer`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// The node that became informed.
    pub learner: Node,
    /// The already-informed node it learned from.
    pub informer: Node,
    /// Push or pull.
    pub how: Transmission,
    /// Round number (synchronous) or time (asynchronous) of the event.
    pub at: f64,
}

/// The causal record of one spreading run, filled in as a [`Probe`].
///
/// Events are ordered by time; every informed node other than a source
/// appears as `learner` exactly once. A trace records one trial: the
/// next trial started on it replaces the record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    sources: Vec<Node>,
    node_count: usize,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace, ready to be passed to a run.
    pub fn new() -> Self {
        Self::default()
    }

    /// The rumor's origins.
    pub fn sources(&self) -> &[Node] {
        &self.sources
    }

    /// Number of nodes in the underlying graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The informing events, in chronological order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Whether the run informed every node.
    pub fn complete(&self) -> bool {
        self.events.len() + self.sources.len() == self.node_count
    }

    /// The number of events that were pushes.
    pub fn push_count(&self) -> usize {
        self.events.iter().filter(|e| e.how == Transmission::Push).count()
    }

    /// The number of events that were pulls.
    pub fn pull_count(&self) -> usize {
        self.events.iter().filter(|e| e.how == Transmission::Pull).count()
    }

    /// The rumor path `π_v = u, …, v` along which `v` was informed — the
    /// object every proof in the paper inducts over; `u` is the source
    /// the path reaches. Returns `None` if `v` was never informed.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn rumor_path(&self, v: Node) -> Option<Vec<Node>> {
        assert!((v as usize) < self.node_count, "node out of range");
        let mut informer = vec![None; self.node_count];
        for e in &self.events {
            informer[e.learner as usize] = Some(e.informer);
        }
        let mut path = vec![v];
        let mut cur = v;
        while !self.sources.contains(&cur) {
            cur = informer[cur as usize]?;
            path.push(cur);
            if path.len() > self.node_count {
                unreachable!("informer links form a forest rooted at the sources");
            }
        }
        path.reverse();
        Some(path)
    }

    /// Fan-out of each node: how many others it directly informed.
    pub fn informer_fanout(&self) -> Vec<usize> {
        let mut fanout = vec![0usize; self.node_count];
        for e in &self.events {
            fanout[e.informer as usize] += 1;
        }
        fanout
    }
}

impl Probe for Trace {
    fn trial_start(&mut self, n: usize, sources: &[Node]) {
        self.sources.clear();
        self.sources.extend_from_slice(sources);
        self.node_count = n;
        self.events.clear();
        self.events.reserve(n.saturating_sub(sources.len()));
    }

    fn transmitted(&mut self, informer: Node, learner: Node, how: Transmission, at: f64) {
        self.events.push(TraceEvent { learner, informer, how, at });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_graph::{generators, Graph};
    use rumor_sim::rng::Xoshiro256PlusPlus;

    use crate::asynchronous::{run_async, run_async_probed, AsyncView};
    use crate::mode::Mode;
    use crate::spread::SpreadConfig;
    use crate::sync::{run_sync, run_sync_probed};

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from(seed)
    }

    fn sync_trace(g: &Graph, config: &SpreadConfig, seed: u64, max_rounds: u64) -> Trace {
        let mut trace = Trace::new();
        run_sync_probed(g, config, &mut rng(seed), max_rounds, &mut trace);
        trace
    }

    fn async_trace(g: &Graph, config: &SpreadConfig, view: AsyncView, seed: u64) -> Trace {
        let mut trace = Trace::new();
        run_async_probed(g, config, view, &mut rng(seed), 10_000_000, &mut trace);
        trace
    }

    fn from(source: Node, mode: Mode) -> SpreadConfig {
        SpreadConfig::new(source).with_mode(mode)
    }

    #[test]
    fn every_node_learns_exactly_once() {
        let g = generators::gnp_connected(48, 0.2, &mut rng(1), 100);
        let trace = sync_trace(&g, &SpreadConfig::new(0), 2, 100_000);
        assert!(trace.complete());
        let mut seen = [false; 48];
        seen[0] = true;
        for e in trace.events() {
            assert!(!seen[e.learner as usize], "node {} informed twice", e.learner);
            seen[e.learner as usize] = true;
            assert!(g.has_edge(e.learner, e.informer), "transmission along a non-edge");
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn events_are_chronological_and_causal() {
        // The informer was informed strictly earlier: in an earlier
        // round (sync), at an earlier time (async).
        let g = generators::hypercube(5);
        let cfg = SpreadConfig::new(0).with_loss_probability(0.2);
        let mut traces = vec![sync_trace(&g, &cfg, 3, 100_000)];
        traces.extend(AsyncView::ALL.map(|view| async_trace(&g, &cfg, view, 4)));
        for trace in traces {
            assert!(trace.complete());
            let mut informed_at = vec![f64::INFINITY; trace.node_count()];
            informed_at[0] = 0.0;
            let mut last = 0.0;
            for e in trace.events() {
                assert!(e.at >= last, "events out of order");
                last = e.at;
                assert!(
                    informed_at[e.informer as usize] < e.at,
                    "informer {} not informed before {}",
                    e.informer,
                    e.at
                );
                informed_at[e.learner as usize] = e.at;
            }
        }
    }

    #[test]
    fn rumor_paths_lead_back_to_source() {
        let g = generators::cycle(16);
        let trace = sync_trace(&g, &SpreadConfig::new(3), 5, 100_000);
        assert!(trace.complete());
        for v in g.nodes() {
            let path = trace.rumor_path(v).expect("complete run");
            assert_eq!(path[0], 3);
            assert_eq!(*path.last().unwrap(), v);
            // Consecutive path nodes are adjacent.
            for pair in path.windows(2) {
                assert!(g.has_edge(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn several_sources_root_a_forest() {
        let g = generators::cycle(96);
        let sources = [0, 32, 64];
        let cfg = SpreadConfig::new(0).with_sources(&sources);
        let mut traces = vec![sync_trace(&g, &cfg, 6, 100_000)];
        traces.extend(AsyncView::ALL.map(|view| async_trace(&g, &cfg, view, 7)));
        for trace in traces {
            assert_eq!(trace.sources(), &sources);
            assert!(trace.complete());
            assert_eq!(trace.events().len(), 93);
            for v in g.nodes() {
                let path = trace.rumor_path(v).expect("complete run");
                assert!(sources.contains(&path[0]), "path to {v} starts at {}", path[0]);
                assert_eq!(sources.iter().filter(|&&s| path.contains(&s)).count(), 1);
            }
            let fanout = trace.informer_fanout();
            assert_eq!(fanout.iter().sum::<usize>(), trace.events().len());
        }
    }

    #[test]
    fn push_only_trace_has_no_pulls() {
        let g = generators::cycle(16);
        let trace = sync_trace(&g, &from(0, Mode::Push), 6, 1_000_000);
        assert!(trace.complete());
        assert_eq!(trace.pull_count(), 0);
        assert_eq!(trace.push_count(), 15);
    }

    #[test]
    fn pull_only_trace_has_no_pushes() {
        let g = generators::complete(16);
        let trace = async_trace(&g, &from(0, Mode::Pull), AsyncView::GlobalClock, 7);
        assert!(trace.complete());
        assert_eq!(trace.push_count(), 0);
        assert_eq!(trace.pull_count(), 15);
    }

    #[test]
    fn fanout_sums_to_events() {
        let g = generators::star(32);
        let trace = sync_trace(&g, &SpreadConfig::new(1), 8, 1_000);
        assert!(trace.complete());
        let fanout = trace.informer_fanout();
        assert_eq!(fanout.iter().sum::<usize>(), trace.events().len());
        // On the star, the center informs almost everyone.
        assert!(fanout[0] >= 29);
    }

    #[test]
    fn traced_runs_replay_untraced_runs_seed_for_seed() {
        let g = generators::hypercube(5);
        for seed in 0..20 {
            let mut trace = Trace::new();
            let cfg = SpreadConfig::new(0);
            let traced = run_sync_probed(&g, &cfg, &mut rng(seed), 100_000, &mut trace);
            assert_eq!(traced, run_sync(&g, 0, Mode::PushPull, &mut rng(seed), 100_000));
            assert_eq!(trace.events().last().unwrap().at, traced.rounds as f64);
            for view in AsyncView::ALL {
                let traced = run_async_probed(&g, &cfg, view, &mut rng(seed), 1 << 20, &mut trace);
                let plain = run_async(&g, 0, Mode::PushPull, view, &mut rng(seed), 1 << 20);
                assert_eq!(traced, plain, "view {view}");
                assert_eq!(trace.events().last().unwrap().at, traced.time, "view {view}");
            }
        }
    }

    #[test]
    fn incomplete_trace_reports_incomplete() {
        let g = generators::path(64);
        let trace = sync_trace(&g, &SpreadConfig::new(0), 9, 2);
        assert!(!trace.complete());
        assert!(trace.rumor_path(63).is_none());
    }
}
