//! Asynchronous rumor spreading on **dynamic networks**: temporal graphs
//! whose topology changes while the rumor spreads.
//!
//! The static asynchronous engine ([`crate::run_async`]) assumes a fixed
//! graph. Following Pourmiri & Mans ("Tight Analysis of Asynchronous
//! Rumor Spreading in Dynamic Networks") and Panagiotou & Speidel's
//! `G(n,p)` baselines, this module interleaves **topology events** with
//! **protocol clock ticks** in one time-ordered event stream, so the
//! spreading process on the evolving graph is exact — every contact sees
//! the topology as it is at that instant, not a per-round snapshot
//! approximation.
//!
//! Six evolution models are provided (see [`DynamicModel`]); each is a
//! [`TopologyModel`] implementation the engines consume through one
//! interface:
//!
//! * [`EdgeMarkov`] — every edge of the base graph flips off/on with
//!   independent Poisson rates (an edge-Markovian evolving graph). With
//!   both rates 0 the process **is** the static one: [`run_dynamic`]
//!   replays [`crate::run_async`] with [`crate::AsyncView::GlobalClock`]
//!   seed-for-seed.
//! * [`Rewire`] — the whole topology is replaced every `period` time
//!   units by a fresh snapshot from a random-graph family, the
//!   "sequence of independent snapshots" regime of the dynamic
//!   gossip literature.
//! * [`NodeChurn`] — nodes leave and rejoin with Poisson rates; a node
//!   retains the rumor while away (rumor retention) and reattaches to
//!   random active nodes when it returns.
//! * [`RandomWalk`] — every live edge is a walker: at Poisson times one
//!   endpoint re-samples along the base graph (a random-walk step),
//!   conserving the live edge count.
//! * [`Mobility`] — nodes move in the unit square with bounded random
//!   steps; edges connect pairs within a connection radius, maintained
//!   through a grid index ([`rumor_graph::geometry::GridIndex`]).
//! * [`Adversary`] — at Poisson strike times an adversary cuts up to a
//!   budget of edges crossing the informed/uninformed frontier (the
//!   worst case the paper's lower bounds gesture at); cut edges heal
//!   after a fixed delay.
//!
//! # Example
//!
//! ```
//! use rumor_core::dynamic::{run_dynamic, DynamicModel, EdgeMarkov};
//! use rumor_core::Mode;
//! use rumor_graph::generators;
//! use rumor_sim::rng::Xoshiro256PlusPlus;
//!
//! let g = generators::hypercube(5);
//! let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(0.5));
//! let mut rng = Xoshiro256PlusPlus::seed_from(7);
//! let out = run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng, 10_000_000);
//! assert!(out.completed);
//! assert!(out.topology_events > 0);
//! ```

use rumor_graph::dynamic::MutableGraph;
use rumor_graph::{generators, Graph, Node};
use rumor_sim::rng::Xoshiro256PlusPlus;

use crate::engine::topology::{StateVisitor, TopologyModel};
use crate::engine::{TickSource, TopoDriver};
use crate::mode::Mode;
use crate::obs::{NoProbe, Probe, ProbeEvent};
use crate::outcome::AsyncOutcome;

/// Random-graph family used for full-rewiring snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SnapshotFamily {
    /// Erdős–Rényi `G(n, p)` snapshots.
    Gnp {
        /// Edge probability of each snapshot.
        p: f64,
    },
    /// Random `d`-regular snapshots.
    RandomRegular {
        /// Degree of each snapshot.
        d: usize,
    },
}

impl SnapshotFamily {
    /// Draws one snapshot on `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if the family parameters are invalid for `n` (e.g. a
    /// regular degree with `n·d` odd).
    pub fn draw(&self, n: usize, rng: &mut Xoshiro256PlusPlus) -> Graph {
        match *self {
            SnapshotFamily::Gnp { p } => generators::gnp(n, p, rng),
            SnapshotFamily::RandomRegular { d } => generators::random_regular(n, d, rng, 1_000),
        }
    }

    /// A `G(n, p)` family matching the edge density of `g`, so rewiring
    /// preserves the expected edge count of the starting topology.
    pub fn matching_density(g: &Graph) -> Self {
        let n = g.node_count();
        let possible = (n * (n - 1) / 2).max(1);
        SnapshotFamily::Gnp { p: g.edge_count() as f64 / possible as f64 }
    }
}

/// Edge-Markovian churn: each edge of the base graph carries an
/// independent two-state Markov chain (present/absent) in continuous
/// time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeMarkov {
    /// Rate at which a present edge disappears.
    pub off_rate: f64,
    /// Rate at which an absent edge reappears.
    pub on_rate: f64,
}

impl EdgeMarkov {
    /// Symmetric churn at rate `nu`: both transitions happen at rate
    /// `nu`, so each edge is present half the time in stationarity and
    /// `nu = 0` freezes the base graph.
    ///
    /// # Panics
    ///
    /// Panics if `nu` is negative or not finite.
    pub fn symmetric(nu: f64) -> Self {
        assert!(nu >= 0.0 && nu.is_finite(), "churn rate must be finite and >= 0");
        Self { off_rate: nu, on_rate: nu }
    }
}

/// Periodic full rewiring: every `period` time units the topology is
/// replaced by a fresh [`SnapshotFamily`] sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rewire {
    /// Time between snapshots; `f64::INFINITY` disables rewiring.
    pub period: f64,
    /// Family the snapshots are drawn from.
    pub family: SnapshotFamily,
}

impl Rewire {
    /// A rewiring model with the given period and family.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not strictly positive.
    pub fn new(period: f64, family: SnapshotFamily) -> Self {
        assert!(period > 0.0, "rewire period must be positive");
        Self { period, family }
    }
}

/// Node churn: active nodes leave at `leave_rate`, absent nodes rejoin
/// at `join_rate`, reattaching to `attach_degree` random active nodes.
/// Nodes retain the rumor while away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeChurn {
    /// Per-node Poisson rate of leaving while active.
    pub leave_rate: f64,
    /// Per-node Poisson rate of rejoining while away.
    pub join_rate: f64,
    /// Number of random active nodes a rejoining node attaches to.
    pub attach_degree: usize,
}

impl NodeChurn {
    /// A node-churn model.
    ///
    /// # Panics
    ///
    /// Panics if either rate is negative/non-finite or
    /// `attach_degree == 0` (a returning node must be reachable).
    pub fn new(leave_rate: f64, join_rate: f64, attach_degree: usize) -> Self {
        assert!(leave_rate >= 0.0 && leave_rate.is_finite(), "leave rate must be finite and >= 0");
        assert!(join_rate >= 0.0 && join_rate.is_finite(), "join rate must be finite and >= 0");
        assert!(attach_degree > 0, "attach degree must be positive");
        Self { leave_rate, join_rate, attach_degree }
    }
}

/// Random-walk edge dynamics: each live edge carries a Poisson clock
/// of rate `rate`; at a tick one endpoint slides to a uniformly random
/// base-graph neighbor of its current position. Steps into an occupied
/// or degenerate vertex pair are rejected, so the live edge count is
/// conserved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomWalk {
    /// Per-edge Poisson rate of walk steps.
    pub rate: f64,
}

impl RandomWalk {
    /// A random-walk model with the given per-edge step rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate >= 0.0 && rate.is_finite(), "walk rate must be finite and >= 0");
        Self { rate }
    }
}

/// Geometric mobility: nodes at uniformly drawn positions in the unit
/// square, connected when within `radius`; each node takes a bounded
/// uniform random step (side length `2·step`, clamped to the square)
/// at Poisson rate `move_rate`. The caller's base graph only fixes the
/// node count — the starting topology is the proximity graph of the
/// initial positions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mobility {
    /// Per-node Poisson rate of movement steps.
    pub move_rate: f64,
    /// Connection radius.
    pub radius: f64,
    /// Half-width of the uniform step square.
    pub step: f64,
}

impl Mobility {
    /// A mobility model.
    ///
    /// # Panics
    ///
    /// Panics if `move_rate` is negative/non-finite, or `radius`/`step`
    /// is not strictly positive and finite.
    pub fn new(move_rate: f64, radius: f64, step: f64) -> Self {
        assert!(move_rate >= 0.0 && move_rate.is_finite(), "move rate must be finite and >= 0");
        assert!(radius > 0.0 && radius.is_finite(), "radius must be positive and finite");
        assert!(step > 0.0 && step.is_finite(), "step must be positive and finite");
        Self { move_rate, radius, step }
    }

    /// A mobility model whose expected degree matches `g`'s average
    /// degree: radius `sqrt(d̄ / (π n))`, so spreading times are
    /// comparable with runs on the base graph at equal density.
    pub fn matching_density(g: &Graph, move_rate: f64, step: f64) -> Self {
        let n = g.node_count() as f64;
        let mean_degree = 2.0 * g.edge_count() as f64 / n;
        let radius = (mean_degree / (std::f64::consts::PI * n)).sqrt().min(1.0);
        Self::new(move_rate, radius.max(f64::MIN_POSITIVE), step)
    }
}

/// Adversarial edge removal: at Poisson rate `rate` the adversary cuts
/// up to `budget` edges with exactly one informed endpoint (the
/// informed/uninformed frontier, scanned in ascending node order); each
/// cut edge is re-inserted `heal_after` time units later
/// (`f64::INFINITY` = removed for good).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adversary {
    /// Poisson rate of adversary strikes.
    pub rate: f64,
    /// Maximum frontier edges cut per strike.
    pub budget: usize,
    /// Delay until a cut edge reappears; `f64::INFINITY` disables
    /// healing.
    pub heal_after: f64,
}

impl Adversary {
    /// An adversary model.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative/non-finite, `budget == 0`, or
    /// `heal_after` is not positive (infinity is allowed).
    pub fn new(rate: f64, budget: usize, heal_after: f64) -> Self {
        assert!(rate >= 0.0 && rate.is_finite(), "strike rate must be finite and >= 0");
        assert!(budget > 0, "cut budget must be positive");
        assert!(heal_after > 0.0 && !heal_after.is_nan(), "heal delay must be positive");
        Self { rate, budget, heal_after }
    }
}

/// How the topology evolves during a dynamic run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DynamicModel {
    /// No topology events: the dynamic engine degenerates to the static
    /// asynchronous process (and replays it seed-for-seed).
    Static,
    /// Independent per-edge on/off flips.
    EdgeMarkov(EdgeMarkov),
    /// Periodic full rewiring from a snapshot family.
    Rewire(Rewire),
    /// Poisson node leave/join with rumor retention.
    NodeChurn(NodeChurn),
    /// Random-walk edge dynamics along the base graph.
    RandomWalk(RandomWalk),
    /// Geometric mobility in the unit square (proximity edges).
    Mobility(Mobility),
    /// Budget-limited adversarial cuts of the informed frontier.
    Adversary(Adversary),
}

impl DynamicModel {
    /// Whether this model can ever schedule a topology event (and
    /// therefore replays the static engine seed-for-seed). The mobility
    /// model is never static: it replaces the starting topology even
    /// when it schedules no moves.
    pub fn is_static(&self) -> bool {
        match *self {
            DynamicModel::Static => true,
            DynamicModel::EdgeMarkov(m) => m.off_rate == 0.0,
            DynamicModel::Rewire(m) => !m.period.is_finite(),
            DynamicModel::NodeChurn(m) => m.leave_rate == 0.0,
            DynamicModel::RandomWalk(m) => m.rate == 0.0,
            DynamicModel::Mobility(_) => false,
            DynamicModel::Adversary(m) => m.rate == 0.0,
        }
    }
}

impl std::fmt::Display for DynamicModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicModel::Static => write!(f, "static"),
            DynamicModel::EdgeMarkov(m) => {
                write!(f, "edge-markov(off={}, on={})", m.off_rate, m.on_rate)
            }
            DynamicModel::Rewire(m) => write!(f, "rewire(period={})", m.period),
            DynamicModel::NodeChurn(m) => {
                write!(f, "node-churn(leave={}, join={})", m.leave_rate, m.join_rate)
            }
            DynamicModel::RandomWalk(m) => write!(f, "random-walk(rate={})", m.rate),
            DynamicModel::Mobility(m) => {
                write!(f, "mobility(rate={}, radius={}, step={})", m.move_rate, m.radius, m.step)
            }
            DynamicModel::Adversary(m) => {
                write!(f, "adversary(rate={}, budget={}, heal={})", m.rate, m.budget, m.heal_after)
            }
        }
    }
}

/// Result of a dynamic-network run; the dynamic counterpart of
/// [`AsyncOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicOutcome {
    /// Time at which the last node was informed (or of the last step
    /// taken, if `completed` is false).
    pub time: f64,
    /// Protocol steps (node activations) taken.
    pub steps: u64,
    /// Topology events processed (edge flips, snapshots, joins/leaves).
    pub topology_events: u64,
    /// Whether all nodes were informed within the step budget.
    pub completed: bool,
    /// Per node: the time at which it was informed (source: 0.0; never:
    /// `f64::INFINITY`).
    pub informed_time: Vec<f64>,
}

impl DynamicOutcome {
    /// Number of nodes in the underlying graph.
    pub fn node_count(&self) -> usize {
        self.informed_time.len()
    }

    /// Projects onto the static outcome type (dropping the topology
    /// event count), for field-by-field comparison with
    /// [`crate::run_async`] and reuse of its accessors.
    pub fn to_async(&self) -> AsyncOutcome {
        AsyncOutcome {
            time: self.time,
            steps: self.steps,
            completed: self.completed,
            informed_time: self.informed_time.clone(),
        }
    }

    /// The earliest time by which at least `ceil(phi · n)` nodes are
    /// informed, or `None` if the run never reached that fraction.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is outside `(0, 1]`.
    pub fn time_to_fraction(&self, phi: f64) -> Option<f64> {
        self.to_async().time_to_fraction(phi)
    }
}

/// Runs the asynchronous push/pull/push–pull protocol on a dynamic
/// network, from `source`, until every node is informed or `max_steps`
/// protocol steps have been taken.
///
/// Protocol ticks follow the global-clock view (one rate-`n` Poisson
/// clock; each tick activates a uniformly random node) and are merged
/// with the model's topology events in one time-ordered stream. A tick
/// of a currently isolated or departed node is wasted — time passes, no
/// contact happens — exactly as in the dynamic gossip literature.
///
/// With a model for which [`DynamicModel::is_static`] holds, the run
/// replays [`crate::run_async`] with [`crate::AsyncView::GlobalClock`]
/// seed-for-seed: identical RNG consumption, identical outcome.
///
/// # Panics
///
/// Panics if `source` is out of range or the starting graph has
/// isolated nodes.
pub fn run_dynamic(
    g: &Graph,
    source: Node,
    mode: Mode,
    model: &DynamicModel,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
) -> DynamicOutcome {
    model.with_state(SequentialRun { g, source, mode, rng, max_steps, probe: &mut NoProbe })
}

/// The general sequential entry point: [`run_dynamic`] over an
/// already-built [`TopologyModel`] state, with an instrumentation
/// [`Probe`] observing the run. Model implementations outside the
/// [`DynamicModel`] enum come in here, such as a
/// [`TraceReplayer`](crate::engine::trace::TraceReplayer) replaying a
/// recorded topology realization (the spec layer replays traces on the
/// cursor, [`run_trace_lazy`](crate::engine::run_trace_lazy), which
/// replays this seed-for-seed). Probes are passive — a probed run
/// replays its unprobed twin seed-for-seed — and a [`NoProbe`] compiles
/// every hook out.
///
/// Topology events come from a [`TopoDriver`] and protocol ticks from a
/// rate-`n` clock, merged topology-first by hand. The merge order is
/// part of the replay contract: the topology arrival is peeked — and
/// possibly drawn — *before* the tick on every iteration. That draw
/// order is the `v2` stream (`rumor_sim::events::RNG_CONTRACT`) the
/// committed goldens pin (`tests/replay_golden.rs`, `specs/`).
///
/// # Panics
///
/// As [`run_dynamic`].
pub fn run_dynamic_with<P: Probe, M: TopologyModel + ?Sized>(
    g: &Graph,
    source: Node,
    mode: Mode,
    state: &mut M,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
    probe: &mut P,
) -> DynamicOutcome {
    let n = g.node_count();
    assert!((source as usize) < n, "source out of range");
    assert!(n == 1 || !g.has_isolated_nodes(), "graph has isolated nodes");

    let mut informed_time = vec![f64::INFINITY; n];
    informed_time[source as usize] = 0.0;
    let mut informed_count = 1usize;
    if P::ENABLED {
        probe.trial_start(n, &[source]);
        probe.informed(0.0, informed_count);
    }
    if n == 1 {
        if P::ENABLED {
            probe.trial_end(0.0, true);
        }
        return DynamicOutcome {
            time: 0.0,
            steps: 0,
            topology_events: 0,
            completed: true,
            informed_time,
        };
    }

    let mut net = MutableGraph::from_graph(g);
    let mut driver = TopoDriver::new(g, &mut net, state, rng);
    // Informed-set feed: the adversary maintains its frontier boundary
    // from it; every other model ignores it.
    state.note_informed(source, &net);
    let mut ticks = TickSource::new(n as f64);

    let mut t = 0.0;
    let mut steps = 0u64;
    let mut topology_events = 0u64;
    let mut completed = false;

    if max_steps > 0 {
        loop {
            let next_topo = driver.next_time(rng);
            let next_tick = ticks.peek(rng);
            if next_topo <= next_tick {
                // Topology wins ties.
                driver.step(state, &mut net, rng);
                // `t` is not updated here: the loop only exits from the
                // tick branch, so the reported time is always a tick's.
                topology_events += 1;
                if P::ENABLED {
                    probe.event(next_topo, ProbeEvent::Topology);
                    probe.topology_changed(next_topo);
                }
            } else {
                let te = ticks.pop(rng);
                t = te;
                steps += 1;
                if P::ENABLED {
                    probe.event(te, ProbeEvent::Tick);
                }
                let v = rng.range_usize(n) as Node;
                if net.is_active(v) && net.degree(v) > 0 {
                    let w = net.random_neighbor(v, rng);
                    let how = crate::asynchronous::exchange(
                        mode,
                        &mut informed_time,
                        &mut informed_count,
                        v,
                        w,
                        te,
                    );
                    if let Some(how) = how {
                        let (informer, learner) = how.roles(v, w);
                        if P::ENABLED {
                            probe.informed(te, informed_count);
                            probe.transmitted(informer, learner, how, te);
                        }
                        state.note_informed(learner, &net);
                    }
                }
                if informed_count == n {
                    completed = true;
                    break;
                }
                if steps >= max_steps {
                    break;
                }
            }
        }
    }
    if P::ENABLED {
        probe.trial_end(t, completed);
    }
    DynamicOutcome { time: t, steps, topology_events, completed, informed_time }
}

/// A sequential run waiting for its model state: visiting a
/// [`DynamicModel`] with it runs [`run_dynamic_with`] over the model's
/// concrete state type.
pub(crate) struct SequentialRun<'a, P> {
    pub(crate) g: &'a Graph,
    pub(crate) source: Node,
    pub(crate) mode: Mode,
    pub(crate) rng: &'a mut Xoshiro256PlusPlus,
    pub(crate) max_steps: u64,
    pub(crate) probe: &'a mut P,
}

impl<P: Probe> StateVisitor for SequentialRun<'_, P> {
    type Output = DynamicOutcome;

    fn visit<M: TopologyModel + Send + 'static>(self, mut state: M) -> DynamicOutcome {
        let Self { g, source, mode, rng, max_steps, probe } = self;
        run_dynamic_with(g, source, mode, &mut state, rng, max_steps, probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asynchronous::{run_async, AsyncView};
    use rumor_sim::stats::OnlineStats;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from(seed)
    }

    #[test]
    fn static_model_replays_run_async_seed_for_seed() {
        let g = generators::hypercube(5);
        for model in [
            DynamicModel::Static,
            DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(0.0)),
            DynamicModel::Rewire(Rewire {
                period: f64::INFINITY,
                family: SnapshotFamily::Gnp { p: 0.1 },
            }),
            DynamicModel::RandomWalk(RandomWalk::new(0.0)),
            DynamicModel::Adversary(Adversary { rate: 0.0, budget: 4, heal_after: 1.0 }),
        ] {
            assert!(model.is_static());
            let stat =
                run_async(&g, 0, Mode::PushPull, AsyncView::GlobalClock, &mut rng(3), 1_000_000);
            let dynamic = run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng(3), 1_000_000);
            assert_eq!(dynamic.to_async(), stat, "model {model}");
            assert_eq!(dynamic.topology_events, 0);
        }
    }

    /// Every stochastic model completes and fires topology events.
    #[test]
    fn every_stochastic_model_completes() {
        let g = generators::gnp_connected(48, 0.15, &mut rng(1), 100);
        for model in [
            DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0)),
            DynamicModel::EdgeMarkov(EdgeMarkov { off_rate: 1.5, on_rate: 0.75 }),
            DynamicModel::NodeChurn(NodeChurn::new(0.3, 1.2, 2)),
            DynamicModel::RandomWalk(RandomWalk::new(1.0)),
            DynamicModel::Mobility(Mobility { move_rate: 1.0, radius: 0.25, step: 0.1 }),
            DynamicModel::Adversary(Adversary { rate: 0.5, budget: 2, heal_after: 1.0 }),
        ] {
            let out = run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng(9), 10_000_000);
            assert!(out.completed, "model {model}");
            assert!(out.topology_events > 0, "model {model}");
            assert!(out.informed_time.iter().all(|t| t.is_finite()), "model {model}");
        }
    }

    #[test]
    fn churn_completes_and_counts_topology_events() {
        let g = generators::gnp_connected(48, 0.15, &mut rng(1), 100);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0));
        let out = run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng(2), 10_000_000);
        assert!(out.completed);
        assert!(out.topology_events > 0);
        assert!(out.informed_time.iter().all(|t| t.is_finite()));
    }

    #[test]
    fn rewiring_heals_a_bottleneck() {
        // On a path, rewiring to G(n,p) snapshots must be much faster
        // than the static path (diameter collapses after one snapshot).
        let g = generators::path(64);
        let family = SnapshotFamily::Gnp { p: 0.2 };
        let mut static_stats = OnlineStats::new();
        let mut rewired_stats = OnlineStats::new();
        for seed in 0..20 {
            let s = run_dynamic(
                &g,
                0,
                Mode::PushPull,
                &DynamicModel::Static,
                &mut rng(100 + seed),
                100_000_000,
            );
            assert!(s.completed);
            static_stats.push(s.time);
            let r = run_dynamic(
                &g,
                0,
                Mode::PushPull,
                &DynamicModel::Rewire(Rewire::new(2.0, family)),
                &mut rng(100 + seed),
                100_000_000,
            );
            assert!(r.completed);
            rewired_stats.push(r.time);
        }
        assert!(
            rewired_stats.mean() < 0.5 * static_stats.mean(),
            "rewiring should beat the static path: {} vs {}",
            rewired_stats.mean(),
            static_stats.mean()
        );
    }

    #[test]
    fn node_churn_retains_rumor_across_absence() {
        let g = generators::complete(16);
        let model = DynamicModel::NodeChurn(NodeChurn::new(0.5, 2.0, 3));
        let out = run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng(5), 10_000_000);
        assert!(out.completed);
        assert!(out.topology_events > 0);
    }

    #[test]
    fn event_stream_is_time_ordered_and_complete() {
        struct Events(Vec<(f64, ProbeEvent)>);
        impl Probe for Events {
            fn event(&mut self, time: f64, kind: ProbeEvent) {
                self.0.push((time, kind));
            }
        }
        let g = generators::gnp_connected(32, 0.2, &mut rng(6), 100);
        let mut state = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(2.0)).build_state();
        let mut probe = Events(Vec::new());
        let out = run_dynamic_with(
            &g,
            0,
            Mode::PushPull,
            state.as_mut(),
            &mut rng(7),
            500_000,
            &mut probe,
        );
        assert!(out.completed);
        let events = probe.0;
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0), "out-of-order events");
        let ticks = events.iter().filter(|e| e.1 == ProbeEvent::Tick).count() as u64;
        let topo = events.iter().filter(|e| e.1 == ProbeEvent::Topology).count() as u64;
        assert_eq!(ticks, out.steps);
        assert_eq!(topo, out.topology_events);
    }

    #[test]
    fn random_walk_conserves_edges_and_completes() {
        let g = generators::gnp_connected(48, 0.15, &mut rng(30), 100);
        let model = DynamicModel::RandomWalk(RandomWalk::new(1.0));
        let out = run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng(31), 10_000_000);
        assert!(out.completed);
        assert!(out.topology_events > 0);
        assert!(out.informed_time.iter().all(|t| t.is_finite()));
    }

    #[test]
    fn random_walk_on_a_path_beats_the_static_path() {
        // Walkers detach the path's bottleneck structure: long-range
        // edges appear as endpoints diffuse, so spreading accelerates
        // markedly over the static path.
        let g = generators::path(64);
        let mut static_stats = OnlineStats::new();
        let mut walk_stats = OnlineStats::new();
        for seed in 0..20 {
            let s = run_dynamic(
                &g,
                0,
                Mode::PushPull,
                &DynamicModel::Static,
                &mut rng(400 + seed),
                100_000_000,
            );
            assert!(s.completed);
            static_stats.push(s.time);
            let w = run_dynamic(
                &g,
                0,
                Mode::PushPull,
                &DynamicModel::RandomWalk(RandomWalk::new(4.0)),
                &mut rng(400 + seed),
                100_000_000,
            );
            assert!(w.completed);
            walk_stats.push(w.time);
        }
        assert!(
            walk_stats.mean() < 0.7 * static_stats.mean(),
            "walk dynamics should beat the static path: {} vs {}",
            walk_stats.mean(),
            static_stats.mean()
        );
    }

    #[test]
    fn mobility_spreads_on_the_proximity_graph() {
        // Radius chosen for expected degree ~ pi r^2 n ~ 15: dense
        // enough that the proximity graph is connected w.h.p., and
        // moves heal any unlucky isolation.
        let g = generators::path(48); // base graph only fixes n
        let model = DynamicModel::Mobility(Mobility::new(1.0, 0.32, 0.15));
        let out = run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng(41), 50_000_000);
        assert!(out.completed);
        assert!(out.topology_events > 0, "moves must fire");
        assert!(out.informed_time.iter().all(|t| t.is_finite()));
    }

    #[test]
    fn mobility_matching_density_tracks_mean_degree() {
        let g = generators::random_regular_connected(64, 6, &mut rng(43), 500);
        let m = Mobility::matching_density(&g, 1.0, 0.1);
        let expected_degree = std::f64::consts::PI * m.radius * m.radius * 64.0;
        assert!((expected_degree - 6.0).abs() < 1e-9, "expected degree {expected_degree}");
    }

    #[test]
    fn adversary_stalls_a_thin_frontier() {
        // On a path the informed/uninformed frontier is at most two
        // edges; an adversary with budget >= 2 cuts all of them at
        // every strike, so spreading must be much slower than static.
        let g = generators::path(32);
        let mut static_stats = OnlineStats::new();
        let mut adv_stats = OnlineStats::new();
        for seed in 0..15 {
            let s = run_dynamic(
                &g,
                0,
                Mode::PushPull,
                &DynamicModel::Static,
                &mut rng(500 + seed),
                100_000_000,
            );
            assert!(s.completed);
            static_stats.push(s.time);
            let a = run_dynamic(
                &g,
                0,
                Mode::PushPull,
                &DynamicModel::Adversary(Adversary::new(2.0, 4, 1.0)),
                &mut rng(500 + seed),
                100_000_000,
            );
            assert!(a.completed, "healing keeps the run finishing, seed {seed}");
            adv_stats.push(a.time);
        }
        assert!(
            adv_stats.mean() > 1.5 * static_stats.mean(),
            "frontier cuts should slow the path: {} vs {}",
            adv_stats.mean(),
            static_stats.mean()
        );
    }

    #[test]
    fn adversary_without_healing_censors_the_run() {
        // Unhealed cuts on a path disconnect the informed prefix for
        // good once the frontier is cut: the run must report censoring
        // rather than spin forever.
        let g = generators::path(16);
        let model = DynamicModel::Adversary(Adversary::new(50.0, 4, f64::INFINITY));
        let out = run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng(51), 200_000);
        assert!(!out.completed);
        assert!(out.informed_time.iter().any(|t| t.is_infinite()));
    }

    #[test]
    fn deterministic_under_seed() {
        let g = generators::hypercube(4);
        for model in [
            DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0)),
            DynamicModel::Rewire(Rewire::new(1.0, SnapshotFamily::Gnp { p: 0.3 })),
            DynamicModel::NodeChurn(NodeChurn::new(0.3, 1.0, 2)),
            DynamicModel::RandomWalk(RandomWalk::new(2.0)),
            DynamicModel::Mobility(Mobility::new(1.0, 0.4, 0.2)),
            DynamicModel::Adversary(Adversary::new(1.0, 2, 0.5)),
        ] {
            let a = run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng(9), 1_000_000);
            let b = run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng(9), 1_000_000);
            assert_eq!(a, b, "model {model}");
        }
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        let g = generators::path(64);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(0.1));
        let out = run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng(11), 10);
        assert!(!out.completed);
        assert_eq!(out.steps, 10);
    }

    #[test]
    fn single_node_trivially_complete() {
        let g = rumor_graph::GraphBuilder::new(1).build().unwrap();
        let out = run_dynamic(
            &g,
            0,
            Mode::PushPull,
            &DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0)),
            &mut rng(13),
            10,
        );
        assert!(out.completed);
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn heavier_churn_on_sparse_gnp_slows_spreading() {
        // Symmetric churn thins the live edge set toward half the base
        // edges; on a sparse G(n,p) that slows the spread measurably.
        let g = generators::gnp_connected(64, 0.08, &mut rng(20), 200);
        let mut means = Vec::new();
        for nu in [0.0, 4.0] {
            let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(nu));
            let mut s = OnlineStats::new();
            for seed in 0..30 {
                let out =
                    run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng(300 + seed), 50_000_000);
                assert!(out.completed, "nu {nu}");
                s.push(out.time);
            }
            means.push(s.mean());
        }
        assert!(
            means[1] > means[0],
            "churn 4.0 ({}) should be slower than churn 0 ({})",
            means[1],
            means[0]
        );
    }
}
