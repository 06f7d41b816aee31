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

use crate::asynchronous::{RunState, TickTopology};
use crate::engine::topology::TopologyModel;
use crate::engine::TopoDriver;
use crate::mode::Mode;
use crate::obs::{NoProbe, Probe};
use crate::outcome::AsyncOutcome;
use crate::spread::SpreadConfig;

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
        // A single node holds all of its zero possible edges.
        let p = if n < 2 { 1.0 } else { g.edge_count() as f64 / (n * (n - 1) / 2) as f64 };
        SnapshotFamily::Gnp { p }
    }
}

/// Whether `x` is a legal Poisson rate: finite and `>= 0`.
fn is_rate(x: f64) -> bool {
    x >= 0.0 && x.is_finite()
}

/// `Ok` when `ok` holds, else the broken `rule`.
fn require(ok: bool, rule: &str) -> Result<(), String> {
    ok.then_some(()).ok_or_else(|| rule.to_owned())
}

/// Returns `model`, panicking with the rule `check` reports broken.
fn checked<M>(model: M, check: fn(&M) -> Result<(), String>) -> M {
    check(&model).unwrap_or_else(|rule| panic!("{rule}"));
    model
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
    /// Panics if `nu` breaks the rule of [`check`](Self::check).
    pub fn symmetric(nu: f64) -> Self {
        checked(Self { off_rate: nu, on_rate: nu }, Self::check)
    }

    /// Both rates must be finite and `>= 0`.
    pub fn check(&self) -> Result<(), String> {
        require(
            is_rate(self.off_rate) && is_rate(self.on_rate),
            "markov rates must be finite and >= 0",
        )
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
    /// Panics if the parameters break a rule of [`check`](Self::check).
    pub fn new(period: f64, family: SnapshotFamily) -> Self {
        checked(Self { period, family }, Self::check)
    }

    /// The period must be positive and a `G(n, p)` family needs `p ∈ (0, 1]`
    /// (`SimSpec::build` checks a regular degree against the graph).
    pub fn check(&self) -> Result<(), String> {
        require(self.period > 0.0, "rewire period must be positive")?;
        match self.family {
            SnapshotFamily::Gnp { p } if !(p > 0.0 && p <= 1.0) => {
                Err(format!("rewire gnp p must be in (0, 1], got {p}"))
            }
            _ => Ok(()),
        }
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
    /// Panics if the parameters break a rule of [`check`](Self::check).
    pub fn new(leave_rate: f64, join_rate: f64, attach_degree: usize) -> Self {
        checked(Self { leave_rate, join_rate, attach_degree }, Self::check)
    }

    /// Both rates must be finite and `>= 0`, and `attach_degree > 0`.
    pub fn check(&self) -> Result<(), String> {
        require(
            is_rate(self.leave_rate) && is_rate(self.join_rate),
            "node-churn rates must be finite and >= 0",
        )?;
        require(self.attach_degree > 0, "node-churn attach must be positive")
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
    /// Panics if `rate` breaks the rule of [`check`](Self::check).
    pub fn new(rate: f64) -> Self {
        checked(Self { rate }, Self::check)
    }

    /// The rate must be finite and `>= 0`.
    pub fn check(&self) -> Result<(), String> {
        require(is_rate(self.rate), "walk rate must be finite and >= 0")
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
    /// Panics if the parameters break the rule of [`check`](Self::check).
    pub fn new(move_rate: f64, radius: f64, step: f64) -> Self {
        checked(Self { move_rate, radius, step }, Self::check)
    }

    /// `move_rate` must be finite and `>= 0`, `radius` and `step` positive.
    pub fn check(&self) -> Result<(), String> {
        let positive = |x: f64| x > 0.0 && x.is_finite();
        require(
            is_rate(self.move_rate) && positive(self.radius) && positive(self.step),
            "mobility needs move >= 0 and positive finite radius/step",
        )
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
    /// Panics if the parameters break the rule of [`check`](Self::check).
    pub fn new(rate: f64, budget: usize, heal_after: f64) -> Self {
        checked(Self { rate, budget, heal_after }, Self::check)
    }

    /// `rate` must be finite and `>= 0`, `budget` and `heal_after` positive.
    pub fn check(&self) -> Result<(), String> {
        require(
            is_rate(self.rate) && self.budget > 0 && self.heal_after > 0.0,
            "adversary needs rate >= 0, budget > 0, heal > 0 (inf ok)",
        )
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
    /// The one rule book for model parameters: `Err` names the broken rule.
    pub fn check(&self) -> Result<(), String> {
        match self {
            DynamicModel::Static => Ok(()),
            DynamicModel::EdgeMarkov(m) => m.check(),
            DynamicModel::Rewire(m) => m.check(),
            DynamicModel::NodeChurn(m) => m.check(),
            DynamicModel::RandomWalk(m) => m.check(),
            DynamicModel::Mobility(m) => m.check(),
            DynamicModel::Adversary(m) => m.check(),
        }
    }

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

/// Runs the asynchronous push/pull/push–pull protocol on a dynamic
/// network, from `source`, until every node is informed or `max_steps`
/// protocol steps have been taken. Shorthand for [`run_dynamic_with`]
/// with `SpreadConfig::new(source).with_mode(mode)`, the model's
/// [`build_state`](DynamicModel::build_state) and no probe.
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
) -> AsyncOutcome {
    let config = &SpreadConfig::new(source).with_mode(mode);
    run_dynamic_with(g, config, model.build_state().as_mut(), rng, max_steps, &mut NoProbe)
}

/// The general sequential entry point: [`run_dynamic`] under a
/// [`SpreadConfig`] — its sources, mode and per-contact loss — over an
/// already-built [`TopologyModel`] state — a model's
/// [`build_state`](DynamicModel::build_state), or a
/// [`TraceReplayer`](crate::engine::trace::TraceReplayer) replaying a
/// recorded topology realization — with an instrumentation [`Probe`]
/// observing the run. The spec layer replays traces on the cursor,
/// [`run_trace_lazy`](crate::engine::run_trace_lazy), which replays
/// this seed-for-seed. Probes are passive, and a [`NoProbe`] compiles
/// every hook out.
///
/// The run is the global-clock tick loop of [`crate::run_async_probed`]
/// over the model's graph: before each tick is drawn the model's next
/// arrival is peeked (and possibly drawn), a drawn tick is held across
/// the topology events that come first, and topology wins ties. That
/// draw order is the `v2` stream (`rumor_sim::events::RNG_CONTRACT`)
/// the committed goldens pin. The model hears of every source and every
/// learner through [`TopologyModel::note_informed`]. Loss draws as in
/// the static loop; when every node is a source the run draws nothing.
///
/// # Panics
///
/// Panics if a source is out of range or the starting graph has
/// isolated nodes.
pub fn run_dynamic_with<P: Probe>(
    g: &Graph,
    config: &SpreadConfig,
    state: &mut dyn TopologyModel,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
    probe: &mut P,
) -> AsyncOutcome {
    let mut st = RunState::new(g.node_count(), config, max_steps);
    assert!(st.all_informed() || !g.has_isolated_nodes(), "graph has isolated nodes");
    st.start(config.sources(), probe);
    if !st.all_informed() {
        let mut net = MutableGraph::from_graph(g);
        let driver = TopoDriver::new(g, &mut net, state, rng);
        let mut topo = ModelTopology { net, driver, state };
        for &s in config.sources() {
            topo.note_informed(s);
        }
        st.run_ticks(&mut topo, f64::INFINITY, rng, probe);
    }
    st.end(probe);
    st.into_outcome()
}

/// A topology model as the tick loop's [`TickTopology`]: its live
/// graph, and the driver that draws its events.
struct ModelTopology<'m> {
    net: MutableGraph,
    driver: TopoDriver,
    state: &'m mut dyn TopologyModel,
}

impl TickTopology for ModelTopology<'_> {
    #[inline(always)]
    fn before_tick(&mut self, rng: &mut Xoshiro256PlusPlus) -> Option<f64> {
        self.driver.next_time(rng);
        None
    }

    #[inline(always)]
    fn event_by(&mut self, t: f64, rng: &mut Xoshiro256PlusPlus) -> Option<f64> {
        let te = self.driver.next_time(rng);
        if te > t {
            return None;
        }
        self.driver.step(self.state, &mut self.net, rng);
        Some(te)
    }

    #[inline(always)]
    fn partner(&mut self, v: Node, rng: &mut Xoshiro256PlusPlus) -> Option<Node> {
        self.net.try_random_neighbor(v, rng)
    }

    #[inline(always)]
    fn note_informed(&mut self, v: Node) {
        // The adversary maintains its frontier from this feed; every
        // other model ignores it.
        self.state.note_informed(v, &self.net);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asynchronous::{run_async_probed, AsyncView};
    use crate::engine::{run_sync_dynamic, run_trace_lazy, TopologyTrace, TraceRecording};
    use crate::obs::ProbeEvent;
    use rumor_sim::stats::OnlineStats;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from(seed)
    }

    /// The one tick loop over its three topology sources: a zero-rate
    /// model and the trace cursor over an empty trace replay the static
    /// global-clock run, outcome and final RNG word, under loss, several
    /// sources, every node a source, and a zero step budget.
    #[test]
    fn static_model_replays_run_async_seed_for_seed() {
        let g = generators::hypercube(5);
        let mut state = DynamicModel::Static.build_state();
        let empty = TopologyTrace::record(&g, 0, state.as_mut(), &mut rng(1), 100.0);
        assert!(empty.is_empty());
        let configs = [
            SpreadConfig::new(0),
            SpreadConfig::new(0).with_loss_probability(0.3),
            SpreadConfig::new(0).with_sources(&[0, 17]),
            SpreadConfig::new(0).with_sources(&(0..32).collect::<Vec<_>>()),
        ];
        let models = [
            DynamicModel::Static,
            DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(0.0)),
            DynamicModel::Rewire(Rewire {
                period: f64::INFINITY,
                family: SnapshotFamily::Gnp { p: 0.1 },
            }),
            DynamicModel::RandomWalk(RandomWalk::new(0.0)),
            DynamicModel::Adversary(Adversary { rate: 0.0, budget: 4, heal_after: 1.0 }),
        ];
        for config in &configs {
            for max_steps in [1_000_000, 0] {
                let mut a = rng(3);
                let stat = run_async_probed(
                    &g,
                    config,
                    AsyncView::GlobalClock,
                    &mut a,
                    max_steps,
                    &mut NoProbe,
                );
                let word = a.next_u64();
                let case = format!("{config:?}, {max_steps} steps");
                for model in &models {
                    assert!(model.is_static());
                    let mut b = rng(3);
                    let mut state = model.build_state();
                    let dynamic = run_dynamic_with(
                        &g,
                        config,
                        state.as_mut(),
                        &mut b,
                        max_steps,
                        &mut NoProbe,
                    );
                    assert_eq!(dynamic, stat, "model {model}, {case}");
                    assert_eq!(b.next_u64(), word, "model {model}, {case}: RNG diverged");
                }
                let mut c = rng(3);
                let cursor = run_trace_lazy(&empty, config, &mut c, max_steps, &mut NoProbe);
                assert_eq!(cursor, stat, "trace cursor, {case}");
                assert_eq!(c.next_u64(), word, "trace cursor, {case}: RNG diverged");
            }
        }
    }

    /// Loss on a topology model, in the style of the static
    /// `async_loss_slows_spreading`: 50% loss visibly slows both the
    /// asynchronous tick loop and the synchronous rounds on markov.
    #[test]
    fn loss_slows_spreading_on_markov() {
        let g = generators::hypercube(5);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0));
        let lossy = SpreadConfig::new(0).with_loss_probability(0.5);
        let means = |config: &SpreadConfig, salt: u64| {
            let (mut times, mut rounds) = (OnlineStats::new(), OnlineStats::new());
            for seed in salt..salt + 150 {
                let mut state = model.build_state();
                let out = run_dynamic_with(
                    &g,
                    config,
                    state.as_mut(),
                    &mut rng(seed),
                    100_000_000,
                    &mut NoProbe,
                );
                assert!(out.completed);
                times.push(out.time);
                let mut rec = TraceRecording::start(&g, 0, model.build_state(), rng(!seed), 1e4);
                let out = run_sync_dynamic(&mut rec, config, &mut rng(seed), 10_000);
                assert!(out.completed);
                rounds.push(out.rounds as f64);
            }
            (times.mean(), rounds.mean())
        };
        let (async_lossless, sync_lossless) = means(&SpreadConfig::new(0), 0);
        let (async_lossy, sync_lossy) = means(&lossy, 9_000);
        assert!(
            async_lossy > 1.4 * async_lossless,
            "50% loss should visibly slow async spreading: {async_lossy} vs {async_lossless}"
        );
        assert!(
            sync_lossy > 1.4 * sync_lossless,
            "50% loss should visibly slow sync spreading: {sync_lossy} vs {sync_lossless}"
        );
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
            &SpreadConfig::new(0),
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
