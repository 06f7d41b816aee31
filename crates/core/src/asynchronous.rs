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
//!   the fastest view and the default for experiments;
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
    let n = g.node_count();
    config.validate(n);
    let mut st = RunState::new(n, config);
    assert!(st.all_informed() || !g.has_isolated_nodes(), "graph has isolated nodes");
    if P::ENABLED {
        probe.trial_start(n, config.sources());
        probe.informed(0.0, st.informed_count);
    }
    // The trivial cases consume no randomness: everyone is a source,
    // or the budget allows no step.
    st.completed = st.all_informed();
    if !st.completed && max_steps > 0 {
        st = g.with_rows(ViewRun { g, view, st, rng, max_steps, probe });
    }
    if P::ENABLED {
        probe.trial_end(st.time, st.completed);
    }
    st.into_outcome()
}

/// Shared exchange logic: node `v` contacts node `w` at time `t`.
/// Returns how a node was newly informed, if one was (the learner is
/// `w` on a push, `v` on a pull). Also used by the dynamic engines,
/// which must mirror this logic exactly to keep their churn-0
/// seed-for-seed replay guarantee.
#[inline]
pub(crate) fn exchange(
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

/// Shared per-run bookkeeping for the three views: the exchange rules
/// (mode and loss), informed times, and the running clock.
struct RunState {
    mode: Mode,
    loss: f64,
    informed_time: Vec<f64>,
    informed_count: usize,
    time: f64,
    steps: u64,
    completed: bool,
}

impl RunState {
    fn new(n: usize, config: &SpreadConfig) -> Self {
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
            completed: false,
        }
    }

    fn all_informed(&self) -> bool {
        self.informed_count == self.informed_time.len()
    }

    /// One step at time `t`: counts it and reports it to the probe.
    #[inline]
    fn tick<P: Probe>(&mut self, t: f64, probe: &mut P) {
        self.time = t;
        self.steps += 1;
        if P::ENABLED {
            probe.event(t, ProbeEvent::Tick);
        }
    }

    /// `v` contacts `w` at time `t`; a lossy contact first draws
    /// whether it is dropped.
    #[inline]
    fn contact<P: Probe>(
        &mut self,
        v: Node,
        w: Node,
        t: f64,
        rng: &mut Xoshiro256PlusPlus,
        probe: &mut P,
    ) {
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

    fn into_outcome(self) -> AsyncOutcome {
        AsyncOutcome {
            time: self.time,
            steps: self.steps,
            completed: self.completed,
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
    max_steps: u64,
    probe: &'a mut P,
}

impl<P: Probe> RowVisitor for ViewRun<'_, P> {
    type Output = RunState;

    fn visit<R: RandomNeighbor>(self, rows: R) -> RunState {
        let ViewRun { g, view, st, rng, max_steps, probe } = self;
        match view {
            AsyncView::GlobalClock => run_global_clock(rows, st, rng, max_steps, probe),
            AsyncView::NodeClocks => run_node_clocks(rows, st, rng, max_steps, probe),
            AsyncView::EdgeClocks => run_edge_clocks(g, st, rng, max_steps, probe),
        }
    }
}

fn run_global_clock<P: Probe>(
    g: impl RandomNeighbor,
    mut st: RunState,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
    probe: &mut P,
) -> RunState {
    let n = st.informed_time.len();
    let rate = n as f64;
    let mut t = 0.0;
    loop {
        t += rng.exp(rate);
        st.tick(t, probe);
        let v = rng.range_usize(n) as Node;
        let w = g.random_neighbor(v, rng);
        st.contact(v, w, t, rng, probe);
        if st.informed_count == n {
            st.completed = true;
            return st;
        }
        if st.steps >= max_steps {
            return st;
        }
    }
}

fn run_node_clocks<P: Probe>(
    g: impl RandomNeighbor,
    mut st: RunState,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
    probe: &mut P,
) -> RunState {
    let n = st.informed_time.len();
    let mut clocks = ClockTree::new((0..n).map(|_| rng.exp(1.0)).collect());
    loop {
        let (t, v) = clocks.min();
        let v = v as Node;
        st.tick(t, probe);
        let w = g.random_neighbor(v, rng);
        st.contact(v, w, t, rng, probe);
        if st.informed_count == n {
            st.completed = true;
            return st;
        }
        clocks.reschedule_min(t + rng.exp(1.0));
        if st.steps >= max_steps {
            return st;
        }
    }
}

fn run_edge_clocks<P: Probe>(
    g: &Graph,
    mut st: RunState,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
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
        st.tick(t, probe);
        st.contact(v, w, t, rng, probe);
        if st.informed_count == n {
            st.completed = true;
            return st;
        }
        let rate = 1.0 / g.degree(v) as f64;
        clocks.reschedule_min(t + rng.exp(rate));
        if st.steps >= max_steps {
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
