//! Edge-Markov dynamics with **lazy per-edge clocks**.
//!
//! The sequential dynamic engine simulates edge-Markov churn eagerly:
//! every flip of every base edge is drawn (one superposed arrival plus
//! a thinning draw) and applied to the adjacency, so a run pays an
//! O(edges) edge table up front and `m·ν·T` flips for a run of length
//! `T`, whether or not the protocol ever looks at the flipped edges. At
//! `n ≫ 10⁵` the flips dominate everything.
//!
//! Memorylessness makes all of that skippable. Each edge's on/off chain
//! is independent of everything else, so its trajectory can be resolved
//! **when a contact touches the edge** and not before — that is
//! [`LazyMarkovClock`]. This engine keeps *no pending flip events at
//! all*: a protocol tick of `v` resolves the chains of `v`'s base-incident
//! edges up to the tick time, contacts a uniformly live neighbor, and
//! moves on. Edges the protocol never touches never materialize a clock
//! — topology bookkeeping is O(touched edges), reported as
//! [`LazyOutcome::clocks_touched`].
//!
//! The observed process is exact in distribution: at every touch the
//! resolved chain state has the exact conditional law given all earlier
//! touches (memorylessness), chains are independent across edges, and
//! the contact rule — uniform over currently-present incident edges —
//! is the same one [`crate::run_dynamic`] applies through
//! [`MutableGraph`](rumor_graph::dynamic::MutableGraph). The flip
//! *sequence* of each individual edge is likewise the one an eager
//! per-edge queue would draw from the same stream (property-tested in
//! `rumor_sim::events` and `tests/lazy_clocks.rs`).

use std::collections::HashMap;

use rumor_graph::{Graph, Node};
use rumor_sim::events::{LazyMarkovClock, Superposition};
use rumor_sim::rng::Xoshiro256PlusPlus;

use crate::dynamic::EdgeMarkov;
use crate::engine::{drive, Control};
use crate::mode::Mode;
use crate::obs::{Probe, ProbeEvent};
use crate::outcome::AsyncOutcome;

/// Result of a lazy-clock edge-Markov run.
///
/// Individual flips are implicit in this engine (each edge resolves its
/// own chain on demand), so unlike
/// [`DynamicOutcome`](crate::DynamicOutcome) there is no global
/// `topology_events` count; the bookkeeping metric is
/// [`clocks_touched`](Self::clocks_touched).
#[derive(Debug, Clone, PartialEq)]
pub struct LazyOutcome {
    /// Time at which the last node was informed (or of the last step
    /// taken, if `completed` is false).
    pub time: f64,
    /// Protocol steps (node activations) taken.
    pub steps: u64,
    /// Whether all nodes were informed within the step budget.
    pub completed: bool,
    /// Per node: the time at which it was informed (source: 0.0; never:
    /// `f64::INFINITY`).
    pub informed_time: Vec<f64>,
    /// Number of edges whose lazy clock was ever materialized — the
    /// engine's entire topology bookkeeping, versus the `base_edges`
    /// pending events the eager engine would keep.
    pub clocks_touched: usize,
    /// Number of base edges (the eager engine's queue size).
    pub base_edges: usize,
}

impl LazyOutcome {
    /// Projects onto the static outcome type for reuse of its
    /// accessors and comparison with other engines.
    pub fn to_async(&self) -> AsyncOutcome {
        AsyncOutcome {
            time: self.time,
            steps: self.steps,
            completed: self.completed,
            informed_time: self.informed_time.clone(),
        }
    }
}

/// Splits `seed` into well-separated per-edge clock seeds.
#[inline]
fn edge_seed(seed: u64, eid: u32) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(eid) + 1)
}

/// Runs the asynchronous push/pull/push–pull protocol under edge-Markov
/// churn with lazy per-edge clocks, from `source`, until every node is
/// informed or `max_steps` protocol steps have been taken.
///
/// Equivalent in distribution to
/// [`run_dynamic`](crate::run_dynamic) with
/// [`DynamicModel::EdgeMarkov`](crate::DynamicModel::EdgeMarkov) —
/// statistically, not seed-for-seed: the whole point is to consume
/// randomness per *touched edge* instead of per global flip. Use it
/// when `n` (and the edge count) is large enough that the eager flips
/// are the bottleneck; `n = 10⁶` runs fit comfortably.
///
/// Any per-edge-memoryless model runs here through its chain rates
/// ([`TopologyModel::memoryless_edge_rates`]: [`Static`] is `(0, 0)`);
/// models whose evolution couples edges to each other or to the
/// informed state (rewiring, node churn, random walks, mobility, the
/// adversary) have none and need the sequential or sharded engine.
///
/// The `probe` observes the run; probes are passive — a probed run
/// replays its unprobed twin seed-for-seed — and a [`NoProbe`]
/// compiles every hook out.
///
/// [`TopologyModel::memoryless_edge_rates`]: crate::engine::TopologyModel::memoryless_edge_rates
/// [`Static`]: crate::DynamicModel::Static
/// [`NoProbe`]: crate::obs::NoProbe
///
/// # Panics
///
/// Panics if `source` is out of range or the base graph has isolated
/// nodes.
#[allow(clippy::too_many_arguments)]
pub fn run_edge_markov_lazy<P: Probe>(
    g: &Graph,
    source: Node,
    mode: Mode,
    model: EdgeMarkov,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
    probe: &mut P,
) -> LazyOutcome {
    let n = g.node_count();
    assert!((source as usize) < n, "source out of range");
    assert!(n == 1 || !g.has_isolated_nodes(), "graph has isolated nodes");
    let base_edges = g.edge_count();

    let mut informed_time = vec![f64::INFINITY; n];
    informed_time[source as usize] = 0.0;
    let mut informed_count = 1usize;
    if P::ENABLED {
        probe.trial_start(n, &[source]);
        probe.informed(0.0, informed_count);
    }
    if n == 1 || max_steps == 0 {
        if P::ENABLED {
            probe.trial_end(0.0, n == 1);
        }
        return LazyOutcome {
            time: 0.0,
            steps: 0,
            completed: n == 1,
            informed_time,
            clocks_touched: 0,
            base_edges,
        };
    }

    // Undirected edge ids aligned with CSR adjacency order: first pass
    // numbers each edge at its (u < v) endpoint, second pass mirrors the
    // id to the (v > u) side by binary search in the sorted lists.
    let mut eids: Vec<Vec<u32>> = (0..n as Node).map(|v| vec![0u32; g.degree(v)]).collect();
    let mut next_id = 0u32;
    for v in 0..n as Node {
        for (i, &w) in g.neighbors(v).iter().enumerate() {
            if v < w {
                eids[v as usize][i] = next_id;
                next_id += 1;
            } else {
                let pos = g.neighbors(w).binary_search(&v).expect("CSR adjacency is symmetric");
                eids[v as usize][i] = eids[w as usize][pos];
            }
        }
    }
    debug_assert_eq!(next_id as usize, base_edges);

    let clock_seed = rng.next_u64();
    let mut clocks: HashMap<u32, LazyMarkovClock> = HashMap::new();
    let (off, on) = (model.off_rate, model.on_rate);

    let mut steps = 0u64;
    let mut time = 0.0;
    let mut completed = false;
    let mut live: Vec<Node> = Vec::new();
    // The tick stream is a 1-channel superposition (weight n, nothing
    // in the side queue): bit-identical to a TickSource — one Exp(n)
    // draw per tick, no selection draw — which keeps its pinned streams.
    let mut src: Superposition<()> = Superposition::new(1);
    src.set_weight(0.0, 0, n as f64);
    drive(&mut src, rng, |_, rng, t, _tick| {
        time = t;
        steps += 1;
        if P::ENABLED {
            probe.event(t, ProbeEvent::Tick);
        }
        let v = rng.range_usize(n) as Node;
        // Resolve the incident chains up to t; collect the live ones.
        live.clear();
        for (i, &w) in g.neighbors(v).iter().enumerate() {
            let eid = eids[v as usize][i];
            let clock = clocks
                .entry(eid)
                .or_insert_with(|| LazyMarkovClock::new(true, edge_seed(clock_seed, eid)));
            if clock.state_at(t, off, on) {
                live.push(w);
            }
        }
        if !live.is_empty() {
            let w = live[rng.range_usize(live.len())];
            let how = crate::asynchronous::exchange(
                mode,
                &mut informed_time,
                &mut informed_count,
                v,
                w,
                t,
            );
            if let (true, Some(how)) = (P::ENABLED, how) {
                let (informer, learner) = how.roles(v, w);
                probe.informed(t, informed_count);
                probe.transmitted(informer, learner, how, t);
            }
        }
        if informed_count == n {
            completed = true;
            return Control::Stop;
        }
        if steps >= max_steps {
            return Control::Stop;
        }
        Control::Continue
    });

    if P::ENABLED {
        probe.trial_end(time, completed);
    }
    LazyOutcome { time, steps, completed, informed_time, clocks_touched: clocks.len(), base_edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_graph::generators;
    use rumor_sim::stats::OnlineStats;

    use crate::dynamic::{run_dynamic, DynamicModel};
    use crate::obs::NoProbe;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from(seed)
    }

    #[test]
    fn completes_and_touches_at_most_all_edges() {
        let g = generators::gnp_connected(64, 0.12, &mut rng(1), 100);
        let out = run_edge_markov_lazy(
            &g,
            0,
            Mode::PushPull,
            EdgeMarkov::symmetric(1.0),
            &mut rng(2),
            50_000_000,
            &mut NoProbe,
        );
        assert!(out.completed);
        assert!(out.clocks_touched > 0);
        assert!(out.clocks_touched <= out.base_edges);
        assert!(out.informed_time.iter().all(|t| t.is_finite()));
        assert_eq!(out.base_edges, g.edge_count());
    }

    #[test]
    fn zero_churn_behaves_like_the_static_graph() {
        // With both rates 0 every edge stays present: the engine is the
        // static global-clock process in distribution. Compare means.
        let g = generators::hypercube(5);
        let mut lazy_stats = OnlineStats::new();
        let mut eager_stats = OnlineStats::new();
        for seed in 0..60 {
            let l = run_edge_markov_lazy(
                &g,
                0,
                Mode::PushPull,
                EdgeMarkov::symmetric(0.0),
                &mut rng(1000 + seed),
                10_000_000,
                &mut NoProbe,
            );
            assert!(l.completed);
            lazy_stats.push(l.time);
            let e = run_dynamic(
                &g,
                0,
                Mode::PushPull,
                &DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(0.0)),
                &mut rng(2000 + seed),
                10_000_000,
            );
            eager_stats.push(e.time);
        }
        let rel = (lazy_stats.mean() - eager_stats.mean()).abs() / eager_stats.mean();
        assert!(rel < 0.2, "lazy {} vs eager {}", lazy_stats.mean(), eager_stats.mean());
    }

    #[test]
    fn agrees_with_eager_engine_in_distribution() {
        // Same churn, independent seeds: spreading-time means must match
        // within Monte-Carlo error.
        let g = generators::gnp_connected(48, 0.15, &mut rng(3), 100);
        let model = EdgeMarkov { off_rate: 1.0, on_rate: 1.0 };
        let mut lazy_stats = OnlineStats::new();
        let mut eager_stats = OnlineStats::new();
        for seed in 0..150 {
            let l = run_edge_markov_lazy(
                &g,
                0,
                Mode::PushPull,
                model,
                &mut rng(seed),
                50_000_000,
                &mut NoProbe,
            );
            assert!(l.completed);
            lazy_stats.push(l.time);
            let e = run_dynamic(
                &g,
                0,
                Mode::PushPull,
                &DynamicModel::EdgeMarkov(model),
                &mut rng(70_000 + seed),
                50_000_000,
            );
            assert!(e.completed);
            eager_stats.push(e.time);
        }
        let rel = (lazy_stats.mean() - eager_stats.mean()).abs() / eager_stats.mean();
        assert!(rel < 0.15, "lazy {} vs eager {}", lazy_stats.mean(), eager_stats.mean());
    }

    #[test]
    fn deterministic_under_seed() {
        let g = generators::hypercube(4);
        let model = EdgeMarkov::symmetric(2.0);
        let a = run_edge_markov_lazy(
            &g,
            0,
            Mode::PushPull,
            model,
            &mut rng(9),
            1_000_000,
            &mut NoProbe,
        );
        let b = run_edge_markov_lazy(
            &g,
            0,
            Mode::PushPull,
            model,
            &mut rng(9),
            1_000_000,
            &mut NoProbe,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        let g = generators::path(64);
        let out = run_edge_markov_lazy(
            &g,
            0,
            Mode::PushPull,
            EdgeMarkov::symmetric(0.5),
            &mut rng(11),
            10,
            &mut NoProbe,
        );
        assert!(!out.completed);
        assert_eq!(out.steps, 10);
    }

    #[test]
    fn single_node_trivially_complete() {
        let g = rumor_graph::GraphBuilder::new(1).build().unwrap();
        let out = run_edge_markov_lazy(
            &g,
            0,
            Mode::PushPull,
            EdgeMarkov::symmetric(1.0),
            &mut rng(13),
            10,
            &mut NoProbe,
        );
        assert!(out.completed);
        assert_eq!(out.clocks_touched, 0);
    }

    #[test]
    fn untouched_edges_never_materialize() {
        // Stop after a handful of steps: only edges incident to ticked
        // nodes can have clocks.
        let g = generators::complete(64);
        let out = run_edge_markov_lazy(
            &g,
            0,
            Mode::PushPull,
            EdgeMarkov::symmetric(1.0),
            &mut rng(17),
            5,
            &mut NoProbe,
        );
        // 5 ticks touch at most 5 nodes' incident edges.
        assert!(out.clocks_touched <= 5 * 63, "touched {}", out.clocks_touched);
        assert!(out.clocks_touched < out.base_edges);
    }
}
