//! The asynchronous rumor spreading protocol (`pp-a`, `push-a`, `pull-a`).
//!
//! Each node has an independent Poisson clock with rate 1; whenever a
//! node's clock ticks, it contacts a uniformly random neighbor and the
//! rumor is exchanged according to the [`Mode`]. Section 2 of the paper
//! gives three equivalent formulations, all implemented here so the
//! equivalence itself is testable (experiment E9):
//!
//! * [`AsyncView::NodeClocks`] — the literal definition: `n` independent
//!   rate-1 clocks, kept in a [`ClockTree`];
//! * [`AsyncView::GlobalClock`] — one rate-`n` clock; at each tick a
//!   uniformly random node takes a step (superposition property). This is
//!   the fastest view and the default for experiments. Its loop is the
//!   one asynchronous tick loop of the crate: the dynamic engine
//!   ([`crate::run_dynamic_with`]) and the trace replays (the
//!   asynchronous halves of [`crate::engine::run_coupled_dynamic`]) run
//!   it too, over a topology that changes between ticks;
//! * [`AsyncView::EdgeClocks`] — one clock per *ordered* adjacent pair
//!   `(v, w)` with rate `1/deg(v)`, `2m` clocks in a [`ClockTree`]; when
//!   one ticks, `v` contacts `w` (Poisson thinning).
//!
//! All three views run the generalizations of [`SpreadConfig`] — several
//! sources, lossy contacts — and report every transmission to a
//! [`Probe`], which is how transmission traces are recorded.

use rumor_graph::{Graph, Node, RandomNeighbor, RowVisitor};
use rumor_sim::events::ClockTree;
use rumor_sim::rng::Xoshiro256PlusPlus;

use crate::mode::Mode;
use crate::obs::{NoProbe, Probe, ProbeEvent};
use crate::outcome::AsyncOutcome;
use crate::spread::SpreadConfig;
use crate::trace::Transmission;

/// Which of the three equivalent formulations of the asynchronous model
/// drives the simulation. All produce the same process in distribution;
/// they differ only in bookkeeping cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsyncView {
    /// One rate-`n` Poisson clock; each tick activates a uniform node.
    GlobalClock,
    /// `n` independent rate-1 Poisson clocks in a [`ClockTree`].
    NodeClocks,
    /// `2m` independent per-directed-edge clocks with rate `1/deg(v)`.
    EdgeClocks,
}

impl AsyncView {
    /// All three views, for exhaustive sweeps.
    pub const ALL: [AsyncView; 3] =
        [AsyncView::GlobalClock, AsyncView::NodeClocks, AsyncView::EdgeClocks];
}

impl std::fmt::Display for AsyncView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AsyncView::GlobalClock => "global-clock",
            AsyncView::NodeClocks => "node-clocks",
            AsyncView::EdgeClocks => "edge-clocks",
        };
        f.write_str(s)
    }
}

/// Runs the asynchronous protocol from `source` until every node is
/// informed or `max_steps` steps have been taken — the paper's model:
/// one source, reliable exchanges. Shorthand for [`run_async_probed`]
/// with `SpreadConfig::new(source).with_mode(mode)` and no probe.
///
/// A *step* is one node activation (one directed contact); the expected
/// time between consecutive steps is `1/n`, which is how the paper's
/// footnote 3 relates step counts to time units.
///
/// # Panics
///
/// Panics if `source` is out of range or the graph has isolated nodes.
///
/// # Example
///
/// ```
/// use rumor_core::{run_async, AsyncView, Mode};
/// use rumor_graph::generators;
/// use rumor_sim::rng::Xoshiro256PlusPlus;
///
/// let g = generators::star(64);
/// let mut rng = Xoshiro256PlusPlus::seed_from(1);
/// let out = run_async(&g, 0, Mode::PushPull, AsyncView::GlobalClock, &mut rng, 1_000_000);
/// assert!(out.completed);
/// // On the star the asynchronous protocol needs Θ(log n) time units.
/// assert!(out.time > 1.0);
/// ```
pub fn run_async(
    g: &Graph,
    source: Node,
    mode: Mode,
    view: AsyncView,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
) -> AsyncOutcome {
    let config = SpreadConfig::new(source).with_mode(mode);
    run_async_probed(g, &config, view, rng, max_steps, &mut NoProbe)
}

/// Runs the asynchronous protocol under a [`SpreadConfig`] — its
/// sources, mode and per-contact loss — in the given clock view, with
/// an instrumentation [`Probe`] observing the run. Probes are passive —
/// a probed run replays its unprobed twin seed-for-seed — and a
/// [`NoProbe`] compiles every hook out.
///
/// With `loss > 0` every contact draws one Bernoulli(`loss`) as soon as
/// its partner is known (in the global-clock view: right after the
/// neighbor draw) and is dropped if it succeeds. Loss-free runs draw
/// nothing extra.
///
/// # Panics
///
/// Panics if a source is out of range or the graph has isolated nodes.
pub fn run_async_probed<P: Probe>(
    g: &Graph,
    config: &SpreadConfig,
    view: AsyncView,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
    probe: &mut P,
) -> AsyncOutcome {
    let mut st = RunState::new(g.node_count(), config, max_steps);
    assert!(st.all_informed() || !g.has_isolated_nodes(), "graph has isolated nodes");
    st.start(config.sources(), probe);
    // The trivial cases consume no randomness: everyone is a source,
    // or the budget allows no step.
    if !st.all_informed() && max_steps > 0 {
        st = g.with_rows(ViewRun { g, view, st, rng, probe });
    }
    st.end(probe);
    st.into_outcome()
}

/// Shared exchange logic: node `v` contacts node `w` at time `t`.
/// Returns how a node was newly informed, if one was (the learner is
/// `w` on a push, `v` on a pull).
#[inline]
fn exchange(
    mode: Mode,
    informed_time: &mut [f64],
    informed_count: &mut usize,
    v: Node,
    w: Node,
    t: f64,
) -> Option<Transmission> {
    let vi = informed_time[v as usize].is_finite();
    let wi = informed_time[w as usize].is_finite();
    if vi && !wi && mode.includes_push() {
        informed_time[w as usize] = t;
        *informed_count += 1;
        Some(Transmission::Push)
    } else if !vi && wi && mode.includes_pull() {
        informed_time[v as usize] = t;
        *informed_count += 1;
        Some(Transmission::Pull)
    } else {
        None
    }
}

/// The topology the global-clock loop reads between ticks: a static
/// graph's rows, a model's graph and driver ([`crate::dynamic`]), or a
/// lockstep replay's trace cursor ([`crate::engine::trace`]).
pub(crate) trait TickTopology {
    /// Runs before each tick. A model peeks, and may draw, its next
    /// arrival here: the topology draws first (`RNG_CONTRACT` `v2`). A
    /// paused replay hands back the tick it holds; on `None` the loop
    /// draws the tick.
    #[inline(always)]
    fn before_tick(&mut self, _rng: &mut Xoshiro256PlusPlus) -> Option<f64> {
        None
    }

    /// Applies the next topology event if it falls at or before `t`, and
    /// returns its time. Topology wins ties with the tick at `t`.
    fn event_by(&mut self, t: f64, rng: &mut Xoshiro256PlusPlus) -> Option<f64>;

    /// The node `v` contacts, or `None` when its tick is wasted.
    fn partner(&mut self, v: Node, rng: &mut Xoshiro256PlusPlus) -> Option<Node>;

    /// `v` was just informed, a source or a learner.
    #[inline(always)]
    fn note_informed(&mut self, _v: Node) {}
}

/// A static graph's rows as a [`TickTopology`]: the next event is never
/// due and every node has a partner, so both fold away.
impl<R: RandomNeighbor> TickTopology for R {
    #[inline(always)]
    fn event_by(&mut self, _t: f64, _rng: &mut Xoshiro256PlusPlus) -> Option<f64> {
        None
    }

    #[inline(always)]
    fn partner(&mut self, v: Node, rng: &mut Xoshiro256PlusPlus) -> Option<Node> {
        Some(self.random_neighbor(v, rng))
    }
}

/// The state of one asynchronous run, in any view and on any topology:
/// the exchange rules (mode and loss), informed times, the running clock
/// and the step budget.
pub(crate) struct RunState {
    mode: Mode,
    loss: f64,
    informed_time: Vec<f64>,
    informed_count: usize,
    time: f64,
    steps: u64,
    max_steps: u64,
    /// Topology events applied or seen before the last tick.
    pub(crate) topology_events: u64,
}

impl RunState {
    /// `config`'s sources informed at time 0 on `n` nodes, nobody else.
    ///
    /// # Panics
    ///
    /// Panics if a source is out of range.
    pub(crate) fn new(n: usize, config: &SpreadConfig, max_steps: u64) -> Self {
        config.validate(n);
        let mut informed_time = vec![f64::INFINITY; n];
        for &s in config.sources() {
            informed_time[s as usize] = 0.0;
        }
        Self {
            mode: config.mode(),
            loss: config.loss_probability(),
            informed_time,
            informed_count: config.sources().len(),
            time: 0.0,
            steps: 0,
            max_steps,
            topology_events: 0,
        }
    }

    pub(crate) fn all_informed(&self) -> bool {
        self.informed_count == self.informed_time.len()
    }

    /// Reports the start of the run to `probe`.
    pub(crate) fn start<P: Probe>(&self, sources: &[Node], probe: &mut P) {
        if P::ENABLED {
            probe.trial_start(self.informed_time.len(), sources);
            probe.informed(0.0, self.informed_count);
        }
    }

    /// Reports the end of the run to `probe`.
    pub(crate) fn end<P: Probe>(&self, probe: &mut P) {
        if P::ENABLED {
            probe.trial_end(self.time, self.all_informed());
        }
    }

    /// One step at time `t` of the node-clock and edge-clock views: `v`
    /// contacts `w`, and a lossy contact first draws whether it is
    /// dropped.
    #[inline]
    fn step<P: Probe>(
        &mut self,
        t: f64,
        v: Node,
        w: Node,
        rng: &mut Xoshiro256PlusPlus,
        probe: &mut P,
    ) {
        self.time = t;
        self.steps += 1;
        if P::ENABLED {
            probe.event(t, ProbeEvent::Tick);
        }
        if self.loss > 0.0 && rng.bernoulli(self.loss) {
            return;
        }
        let how = exchange(self.mode, &mut self.informed_time, &mut self.informed_count, v, w, t);
        if let (true, Some(how)) = (P::ENABLED, how) {
            let (informer, learner) = how.roles(v, w);
            probe.informed(t, self.informed_count);
            probe.transmitted(informer, learner, how, t);
        }
    }

    /// The global-clock view, the one tick loop for every topology: one
    /// rate-`n` clock, and each tick activates a uniform node. Runs the
    /// ticks at or before `until` (`INFINITY`: to the end) until every
    /// node is informed or the step budget is spent.
    ///
    /// Each tick is drawn as `t + Exp(n)` after `topo.before_tick`. Every
    /// topology event at or before the tick is applied first, then the
    /// node draw, its partner draw and, with `loss > 0`, one
    /// Bernoulli(`loss`). A drawn tick past `until` is not run but
    /// returned, for the caller to hand back through `before_tick` when
    /// it resumes, so a paused run draws nothing twice.
    #[inline(always)]
    pub(crate) fn run_ticks<T: TickTopology, P: Probe>(
        &mut self,
        topo: &mut T,
        until: f64,
        rng: &mut Xoshiro256PlusPlus,
        probe: &mut P,
    ) -> Option<f64> {
        let n = self.informed_time.len();
        let rate = n as f64;
        let (mode, loss, max_steps) = (self.mode, self.loss, self.max_steps);
        // The hot loop runs on locals, written back when it pauses.
        let (mut t, mut steps, mut events) = (self.time, self.steps, self.topology_events);
        let mut informed_count = self.informed_count;
        if steps >= max_steps || informed_count == n {
            return None;
        }
        let informed_time = &mut self.informed_time[..];
        let held = loop {
            let tt = match topo.before_tick(rng) {
                Some(tt) => tt,
                None => t + rng.exp(rate),
            };
            if tt > until {
                break Some(tt);
            }
            while let Some(te) = topo.event_by(tt, rng) {
                events += 1;
                if P::ENABLED {
                    probe.event(te, ProbeEvent::Topology);
                }
            }
            t = tt;
            steps += 1;
            if P::ENABLED {
                probe.event(t, ProbeEvent::Tick);
            }
            let v = rng.range_usize(n) as Node;
            'contact: {
                let Some(w) = topo.partner(v, rng) else { break 'contact };
                if loss > 0.0 && rng.bernoulli(loss) {
                    break 'contact;
                }
                if let Some(how) = exchange(mode, informed_time, &mut informed_count, v, w, t) {
                    let (informer, learner) = how.roles(v, w);
                    if P::ENABLED {
                        probe.informed(t, informed_count);
                        probe.transmitted(informer, learner, how, t);
                    }
                    topo.note_informed(learner);
                }
            }
            if informed_count == n || steps >= max_steps {
                break None;
            }
        };
        (self.time, self.steps, self.topology_events) = (t, steps, events);
        self.informed_count = informed_count;
        held
    }

    pub(crate) fn into_outcome(self) -> AsyncOutcome {
        AsyncOutcome {
            time: self.time,
            steps: self.steps,
            topology_events: self.topology_events,
            completed: self.all_informed(),
            informed_time: self.informed_time,
        }
    }
}

/// The loop of one view, handed the graph's rows by
/// [`Graph::with_rows`]: the global-clock and node-clock loops are
/// compiled once per row kind. The edge clocks read `g`'s rows
/// themselves.
struct ViewRun<'a, P> {
    g: &'a Graph,
    view: AsyncView,
    st: RunState,
    rng: &'a mut Xoshiro256PlusPlus,
    probe: &'a mut P,
}

impl<P: Probe> RowVisitor for ViewRun<'_, P> {
    type Output = RunState;

    fn visit<R: RandomNeighbor>(self, mut rows: R) -> RunState {
        let ViewRun { g, view, mut st, rng, probe } = self;
        match view {
            AsyncView::GlobalClock => {
                st.run_ticks(&mut rows, f64::INFINITY, rng, probe);
                st
            }
            AsyncView::NodeClocks => run_node_clocks(rows, st, rng, probe),
            AsyncView::EdgeClocks => run_edge_clocks(g, st, rng, probe),
        }
    }
}

fn run_node_clocks<P: Probe>(
    g: impl RandomNeighbor,
    mut st: RunState,
    rng: &mut Xoshiro256PlusPlus,
    probe: &mut P,
) -> RunState {
    let n = st.informed_time.len();
    let mut clocks = ClockTree::new((0..n).map(|_| rng.exp(1.0)).collect());
    loop {
        let (t, v) = clocks.min();
        let v = v as Node;
        let w = g.random_neighbor(v, rng);
        st.step(t, v, w, rng, probe);
        if st.all_informed() {
            return st;
        }
        clocks.reschedule_min(t + rng.exp(1.0));
        if st.steps >= st.max_steps {
            return st;
        }
    }
}

fn run_edge_clocks<P: Probe>(
    g: &Graph,
    mut st: RunState,
    rng: &mut Xoshiro256PlusPlus,
    probe: &mut P,
) -> RunState {
    // One clock per ordered pair (v, w), rate 1/deg(v): clock k is the
    // pair in adjacency slot k, and the first times are drawn in slot
    // order.
    let n = g.node_count();
    let mut pairs = Vec::with_capacity(2 * g.edge_count());
    let mut times = Vec::with_capacity(2 * g.edge_count());
    for v in 0..n as Node {
        let rate = 1.0 / g.degree(v) as f64;
        for &w in g.neighbors(v) {
            pairs.push((v, w));
            times.push(rng.exp(rate));
        }
    }
    let mut clocks = ClockTree::new(times);
    loop {
        let (t, k) = clocks.min();
        let (v, w) = pairs[k];
        st.step(t, v, w, rng, probe);
        if st.all_informed() {
            return st;
        }
        let rate = 1.0 / g.degree(v) as f64;
        clocks.reschedule_min(t + rng.exp(rate));
        if st.steps >= st.max_steps {
            return st;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_graph::generators;
    use rumor_sim::stats::OnlineStats;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from(seed)
    }

    #[test]
    fn k2_completes_quickly_in_all_views() {
        let g = generators::complete(2);
        for view in AsyncView::ALL {
            let out = run_async(&g, 0, Mode::PushPull, view, &mut rng(1), 1_000);
            assert!(out.completed, "view {view}");
            assert_eq!(out.informed_time[0], 0.0);
            assert!(out.informed_time[1] > 0.0);
            assert!(out.informed_time[1].is_finite());
        }
    }

    #[test]
    fn informed_times_form_connected_growth() {
        // Every informed node (except the source) must have a neighbor
        // informed no later than itself: the rumor travels along edges.
        let g = generators::gnp_connected(48, 0.15, &mut rng(2), 100);
        for mode in Mode::ALL {
            for view in AsyncView::ALL {
                let out = run_async(&g, 0, mode, view, &mut rng(3), 2_000_000);
                assert!(out.completed, "mode {mode} view {view}");
                for v in g.nodes() {
                    if v == 0 {
                        continue;
                    }
                    let tv = out.informed_time[v as usize];
                    let has_earlier_neighbor =
                        g.neighbors(v).iter().any(|&w| out.informed_time[w as usize] <= tv);
                    assert!(has_earlier_neighbor, "node {v} informed out of thin air");
                }
            }
        }
    }

    #[test]
    fn star_async_takes_logarithmic_time() {
        let g = generators::star(512);
        let mut stats = OnlineStats::new();
        for seed in 0..20 {
            let out = run_async(
                &g,
                0,
                Mode::PushPull,
                AsyncView::GlobalClock,
                &mut rng(seed),
                10_000_000,
            );
            assert!(out.completed);
            stats.push(out.time);
        }
        let ln_n = (512f64).ln(); // ≈ 6.24
                                  // Coupon-collector-like: expect time in the ballpark of ln n.
        assert!(
            stats.mean() > 0.5 * ln_n && stats.mean() < 3.0 * ln_n,
            "star async mean time {} vs ln n {}",
            stats.mean(),
            ln_n
        );
    }

    /// E9 in miniature, with loss as without: the three views describe
    /// one process. At loss 0 and 0.3 on the 5-cube, the node-clock and
    /// edge-clock spreading times pass a two-sample Kolmogorov–Smirnov
    /// test against the global clock; 300 trials each, and the critical
    /// value at significance 0.001 is 1.949 · sqrt(2 / 300) ≈ 0.159.
    #[test]
    fn views_share_one_law_with_and_without_loss() {
        const KS_CRITICAL: f64 = 0.159;
        let g = generators::hypercube(5);
        for loss in [0.0, 0.3] {
            let cfg = SpreadConfig::new(0).with_loss_probability(loss);
            let times = |view: AsyncView, salt: u64| -> Vec<f64> {
                (salt..salt + 300)
                    .map(|seed| {
                        let out =
                            run_async_probed(&g, &cfg, view, &mut rng(seed), 1 << 24, &mut NoProbe);
                        assert!(out.completed, "{view}");
                        out.time
                    })
                    .collect()
            };
            let global = times(AsyncView::GlobalClock, 0);
            for (view, salt) in [(AsyncView::NodeClocks, 10_000), (AsyncView::EdgeClocks, 20_000)] {
                let d = rumor_sim::stats::ks_statistic(&global, &times(view, salt));
                assert!(d < KS_CRITICAL, "{view} vs global clock at loss {loss}: KS D = {d:.3}");
            }
        }
    }

    #[test]
    fn expected_time_equals_steps_over_n() {
        // Footnote 3: E[time] = E[steps]/n. With shared trials the two
        // estimators should agree closely.
        let g = generators::hypercube(5);
        let n = g.node_count() as f64;
        let mut time_stats = OnlineStats::new();
        let mut step_stats = OnlineStats::new();
        for seed in 0..400 {
            let out = run_async(
                &g,
                0,
                Mode::PushPull,
                AsyncView::GlobalClock,
                &mut rng(seed),
                10_000_000,
            );
            assert!(out.completed);
            time_stats.push(out.time);
            step_stats.push(out.steps as f64 / n);
        }
        let rel = (time_stats.mean() - step_stats.mean()).abs() / time_stats.mean();
        assert!(rel < 0.05, "time {} vs steps/n {}", time_stats.mean(), step_stats.mean());
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        let g = generators::path(64);
        let out = run_async(&g, 0, Mode::PushPull, AsyncView::GlobalClock, &mut rng(5), 10);
        assert!(!out.completed);
        assert_eq!(out.steps, 10);
        assert!(out.informed_time.iter().any(|t| t.is_infinite()));
    }

    #[test]
    fn deterministic_under_seed() {
        let g = generators::hypercube(4);
        for view in AsyncView::ALL {
            let a = run_async(&g, 0, Mode::PushPull, view, &mut rng(9), 1_000_000);
            let b = run_async(&g, 0, Mode::PushPull, view, &mut rng(9), 1_000_000);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn pull_only_on_star_center_source() {
        // From the center, every leaf pulls when its clock ticks and it
        // contacts the center (its only neighbor): pure coupon collector,
        // completes fine.
        let g = generators::star(32);
        let out = run_async(&g, 0, Mode::Pull, AsyncView::NodeClocks, &mut rng(11), 10_000_000);
        assert!(out.completed);
    }

    #[test]
    fn push_only_completes_on_regular_graph() {
        let g = generators::cycle(32);
        let out = run_async(&g, 0, Mode::Push, AsyncView::EdgeClocks, &mut rng(13), 10_000_000);
        assert!(out.completed);
    }

    #[test]
    fn single_node_trivially_complete() {
        let g = rumor_graph::GraphBuilder::new(1).build().unwrap();
        let out = run_async(&g, 0, Mode::PushPull, AsyncView::GlobalClock, &mut rng(17), 10);
        assert!(out.completed);
        assert_eq!(out.steps, 0);
        assert_eq!(out.time, 0.0);
    }

    #[test]
    fn time_to_fraction_is_monotone_in_phi() {
        let g = generators::gnp_connected(64, 0.2, &mut rng(19), 100);
        let out =
            run_async(&g, 0, Mode::PushPull, AsyncView::GlobalClock, &mut rng(20), 10_000_000);
        assert!(out.completed);
        let half = out.time_to_fraction(0.5).unwrap();
        let most = out.time_to_fraction(0.99).unwrap();
        let all = out.time_to_fraction(1.0).unwrap();
        assert!(half <= most && most <= all);
        assert_eq!(all, out.time);
    }

    fn run(g: &rumor_graph::Graph, config: &SpreadConfig, seed: u64, max: u64) -> AsyncOutcome {
        run_async_probed(g, config, AsyncView::GlobalClock, &mut rng(seed), max, &mut NoProbe)
    }

    #[test]
    fn heavy_loss_still_completes() {
        let g = generators::complete(8);
        let cfg = SpreadConfig::new(0).with_loss_probability(0.95);
        assert!(
            crate::sync::run_sync_probed(&g, &cfg, &mut rng(2), 1 << 24, &mut NoProbe).completed
        );
        for view in AsyncView::ALL {
            let out = run_async_probed(&g, &cfg, view, &mut rng(3), 100_000_000, &mut NoProbe);
            assert!(out.completed, "view {view}");
        }
    }

    #[test]
    fn all_sources_start_at_zero() {
        let g = generators::path(16);
        let cfg = SpreadConfig::new(0).with_sources(&[2, 9]);
        let out = run(&g, &cfg, 4, 10_000_000);
        assert_eq!(out.informed_time[2], 0.0);
        assert_eq!(out.informed_time[9], 0.0);
        assert!(out.completed);
    }

    #[test]
    fn everyone_a_source_is_instant() {
        let g = generators::path(4);
        let cfg = SpreadConfig::new(0).with_sources(&[0, 1, 2, 3]);
        let out = run(&g, &cfg, 6, 10);
        assert!(out.completed);
        assert_eq!(out.steps, 0);
        let out = crate::sync::run_sync_probed(&g, &cfg, &mut rng(5), 10, &mut NoProbe);
        assert!(out.completed);
        assert_eq!((out.rounds, out.informed_by_round), (0, vec![4]));
    }

    #[test]
    fn async_loss_slows_spreading() {
        let g = generators::hypercube(5);
        let mut lossless = OnlineStats::new();
        let mut lossy = OnlineStats::new();
        let cfg = SpreadConfig::new(0).with_loss_probability(0.5);
        for seed in 0..200 {
            lossless.push(run(&g, &SpreadConfig::new(0), seed, 100_000_000).time);
            lossy.push(run(&g, &cfg, 9_000 + seed, 100_000_000).time);
        }
        assert!(
            lossy.mean() > 1.4 * lossless.mean(),
            "50% loss should visibly slow spreading: {} vs {}",
            lossy.mean(),
            lossless.mean()
        );
    }
}
