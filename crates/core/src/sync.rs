//! The synchronous rumor spreading protocol (§2 of the paper).
//!
//! Rounds are simultaneous: in round `r` every node `v` contacts a
//! uniformly random neighbor `w_v`, and whether a contact transmits the
//! rumor is decided by the informed set *before* the round. A node can be
//! contacted by several callers in the same round (all communications
//! proceed in parallel), and a node informed in round `r` starts spreading
//! only in round `r + 1`.
//!
//! The same loop runs the generalizations of [`SpreadConfig`] — several
//! sources, lossy contacts — and reports every transmission to a
//! [`Probe`], which is how transmission traces are recorded.

use rumor_graph::{Graph, Node, RandomNeighbor, RowVisitor};
use rumor_sim::rng::Xoshiro256PlusPlus;

use crate::mode::Mode;
use crate::obs::{NoProbe, Probe};
use crate::outcome::{SyncOutcome, NEVER_ROUND};
use crate::spread::SpreadConfig;
use crate::trace::Transmission;

/// The state of a synchronous run: the exchange rules (mode and loss),
/// the round each node was informed in, and the informed count after
/// every round.
pub(crate) struct Rounds {
    mode: Mode,
    loss: f64,
    informed_round: Vec<u64>,
    informed_count: usize,
    informed_by_round: Vec<usize>,
}

impl Rounds {
    /// Round 0 of `config` on `n` nodes: every source informed, nobody
    /// else.
    pub(crate) fn new(n: usize, config: &SpreadConfig) -> Self {
        let mut informed_round = vec![NEVER_ROUND; n];
        for &s in config.sources() {
            informed_round[s as usize] = 0;
        }
        let informed_count = config.sources().len();
        let mut informed_by_round = Vec::with_capacity(64);
        informed_by_round.push(informed_count);
        let (mode, loss) = (config.mode(), config.loss_probability());
        Rounds { mode, loss, informed_round, informed_count, informed_by_round }
    }

    fn all_informed(&self) -> bool {
        self.informed_count == self.informed_round.len()
    }

    /// Rounds run so far (each [`exchange_round`](Self::exchange_round)
    /// records one count).
    fn rounds(&self) -> u64 {
        self.informed_by_round.len() as u64 - 1
    }

    /// The round to run next, or `None` once every node is informed or
    /// `max_rounds` rounds have run. A caller runs it through
    /// [`exchange_round`](Self::exchange_round) and asks again.
    pub(crate) fn next_round(&self, max_rounds: u64) -> Option<u64> {
        let rounds = self.rounds();
        (rounds < max_rounds && !self.all_informed()).then_some(rounds + 1)
    }

    /// The outcome of the rounds run so far.
    pub(crate) fn finish(self) -> SyncOutcome {
        let (rounds, completed) = (self.rounds(), self.all_informed());
        let Rounds { informed_round, informed_by_round, .. } = self;
        SyncOutcome { rounds, completed, informed_round, informed_by_round }
    }

    /// One synchronous round `r` over whatever topology `neighbor`
    /// exposes: every node with a contact partner calls it, and
    /// exchanges are decided on the pre-round informed set
    /// (`informed_round[·] < r`). Shared by [`run_sync_probed`] and the
    /// synchronous trace replays ([`crate::engine::trace::run_sync_dynamic`]
    /// and the synchronous halves of a coupled trial) so the round
    /// semantics — including the same-round tie rules — cannot drift
    /// apart.
    ///
    /// `neighbor` returns `None` for nodes that skip their contact this
    /// round (isolated or departed in the current topology); it draws
    /// from the RNG only when a contact actually happens. With
    /// `loss > 0` a contact that would inform a node first draws one
    /// Bernoulli(`loss`) and transmits only if it fails: on push after
    /// the already-informed-this-round check, on pull after every other
    /// check. Loss-free runs draw nothing extra.
    pub(crate) fn exchange_round<P: Probe>(
        &mut self,
        r: u64,
        rng: &mut Xoshiro256PlusPlus,
        probe: &mut P,
        mut neighbor: impl FnMut(Node, &mut Xoshiro256PlusPlus) -> Option<Node>,
    ) {
        let (mode, loss) = (self.mode, self.loss);
        let lost = |rng: &mut Xoshiro256PlusPlus| loss > 0.0 && rng.bernoulli(loss);
        let informed_round = self.informed_round.as_mut_slice();
        let informed_count = &mut self.informed_count;
        for v in 0..informed_round.len() as Node {
            let Some(w) = neighbor(v, rng) else {
                continue;
            };
            // "Informed before round r" means informed in a round < r.
            let v_informed = informed_round[v as usize] < r;
            let w_informed = informed_round[w as usize] < r;
            let (informer, learner, how) = if v_informed && !w_informed && mode.includes_push() {
                // w may have been informed earlier this round; only
                // record the first informing event.
                if informed_round[w as usize] != NEVER_ROUND || lost(rng) {
                    continue;
                }
                (v, w, Transmission::Push)
            } else if !v_informed
                && w_informed
                && mode.includes_pull()
                && informed_round[v as usize] == NEVER_ROUND
                && !lost(rng)
            {
                (w, v, Transmission::Pull)
            } else {
                continue;
            };
            informed_round[learner as usize] = r;
            *informed_count += 1;
            if P::ENABLED {
                probe.informed(r as f64, *informed_count);
                probe.transmitted(informer, learner, how, r as f64);
            }
        }
        self.informed_by_round.push(self.informed_count);
    }
}

/// Runs the synchronous protocol from `source` until every node is
/// informed or `max_rounds` rounds have elapsed — the paper's model:
/// one source, reliable exchanges. Shorthand for [`run_sync_probed`]
/// with `SpreadConfig::new(source).with_mode(mode)` and no probe.
///
/// Semantics (matching the paper exactly):
///
/// * every node — informed or not — contacts one uniformly random
///   neighbor per round;
/// * `v` informed before the round, `w_v` not, mode allows push ⟹ `w_v`
///   informed this round;
/// * `v` not informed before the round, `w_v` informed, mode allows pull
///   ⟹ `v` informed this round.
///
/// # Panics
///
/// Panics if `source` is out of range or the graph has isolated nodes
/// (every node must have a neighbor to contact).
///
/// # Example
///
/// ```
/// use rumor_core::{run_sync, Mode};
/// use rumor_graph::generators;
/// use rumor_sim::rng::Xoshiro256PlusPlus;
///
/// let g = generators::complete(32);
/// let mut rng = Xoshiro256PlusPlus::seed_from(3);
/// let out = run_sync(&g, 0, Mode::PushPull, &mut rng, 1_000);
/// assert!(out.completed);
/// assert!(out.rounds <= 20); // K_32 finishes in O(log n) rounds
/// ```
pub fn run_sync(
    g: &Graph,
    source: Node,
    mode: Mode,
    rng: &mut Xoshiro256PlusPlus,
    max_rounds: u64,
) -> SyncOutcome {
    run_sync_probed(g, &SpreadConfig::new(source).with_mode(mode), rng, max_rounds, &mut NoProbe)
}

/// Runs the synchronous protocol under a [`SpreadConfig`] — its
/// sources, mode and per-contact loss — with an instrumentation
/// [`Probe`] observing the run, until every node is informed or
/// `max_rounds` rounds have elapsed. The probe sees every transmission
/// (a [`Trace`](crate::trace::Trace) records them) at the round
/// number; probes are passive, and a [`NoProbe`] compiles every hook
/// out.
///
/// # Panics
///
/// Panics if a source is out of range or the graph has isolated nodes.
pub fn run_sync_probed<P: Probe>(
    g: &Graph,
    config: &SpreadConfig,
    rng: &mut Xoshiro256PlusPlus,
    max_rounds: u64,
    probe: &mut P,
) -> SyncOutcome {
    let n = g.node_count();
    config.validate(n);
    let st = Rounds::new(n, config);
    if P::ENABLED {
        probe.trial_start(n, config.sources());
        probe.informed(0.0, st.informed_count);
    }
    assert!(st.all_informed() || !g.has_isolated_nodes(), "graph has isolated nodes");
    let out = g.with_rows(StaticRounds { st, rng, max_rounds, probe });
    if P::ENABLED {
        probe.trial_end(out.rounds as f64, out.completed);
    }
    out
}

/// The rounds of [`run_sync_probed`], handed the graph's rows by
/// [`Graph::with_rows`]: the loop is compiled once per row kind.
struct StaticRounds<'a, P> {
    st: Rounds,
    rng: &'a mut Xoshiro256PlusPlus,
    max_rounds: u64,
    probe: &'a mut P,
}

impl<P: Probe> RowVisitor for StaticRounds<'_, P> {
    type Output = SyncOutcome;

    fn visit<R: RandomNeighbor>(self, rows: R) -> SyncOutcome {
        let StaticRounds { mut st, rng, max_rounds, probe } = self;
        while let Some(r) = st.next_round(max_rounds) {
            st.exchange_round(r, rng, probe, |v, rng| Some(rows.random_neighbor(v, rng)));
        }
        st.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_graph::generators;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from(seed)
    }

    #[test]
    fn single_edge_completes_in_one_round() {
        let g = generators::path(2);
        // Both push and pull inform the other node in round 1 with
        // certainty (each node's only neighbor is the other).
        for mode in Mode::ALL {
            let out = run_sync(&g, 0, mode, &mut rng(1), 10);
            assert!(out.completed, "mode {mode}");
            assert_eq!(out.rounds, 1, "mode {mode}");
            assert_eq!(out.informed_round, vec![0, 1]);
        }
    }

    #[test]
    fn star_pushpull_completes_in_at_most_two_rounds() {
        // The paper's intro example: at most 1 round for the center to be
        // informed (push from a leaf source... or the center IS informed),
        // and 1 more for all leaves to pull. From a leaf source: round 1
        // the leaf pushes to the center AND every other leaf pulls from
        // the center only if the center is informed (it is not), so round
        // 1 informs the center; round 2 informs everyone by pull.
        let g = generators::star(50);
        for seed in 0..20 {
            let out = run_sync(&g, 1, Mode::PushPull, &mut rng(seed), 10);
            assert!(out.completed);
            assert!(out.rounds <= 2, "took {} rounds", out.rounds);
        }
    }

    #[test]
    fn star_from_center_completes_in_one_round() {
        // Every leaf contacts the center and pulls.
        let g = generators::star(10);
        let out = run_sync(&g, 0, Mode::PushPull, &mut rng(5), 10);
        assert!(out.completed);
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn star_pull_only_from_leaf_never_starts() {
        // Pull-only from a leaf: the center can only pull from its callee,
        // but the center calls a uniformly random leaf, and only one leaf
        // is informed. Eventually it succeeds, but round 1 almost surely
        // does not inform everyone; more to the point, leaves can never
        // inform each other. Check monotone progress + correctness.
        let g = generators::star(20);
        let out = run_sync(&g, 1, Mode::Pull, &mut rng(3), 100_000);
        assert!(out.completed);
        // The center must be informed before any other leaf.
        let center_round = out.informed_round[0];
        for leaf in 2..20 {
            assert!(out.informed_round[leaf] > center_round);
        }
    }

    #[test]
    fn push_only_on_path_respects_distance() {
        // In push-only, the rumor travels at most one hop per round, so
        // node v is informed no earlier than round dist(source, v).
        let g = generators::path(10);
        let out = run_sync(&g, 0, Mode::Push, &mut rng(7), 100_000);
        assert!(out.completed);
        for v in 0..10 {
            assert!(out.informed_round[v] >= v as u64);
        }
    }

    #[test]
    fn pull_alone_equals_push_alone_on_k2() {
        // Sanity: on K_2 all modes coincide.
        let g = generators::complete(2);
        let a = run_sync(&g, 0, Mode::Push, &mut rng(11), 10);
        let b = run_sync(&g, 0, Mode::Pull, &mut rng(11), 10);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        let g = generators::path(100);
        let out = run_sync(&g, 0, Mode::PushPull, &mut rng(13), 3);
        assert!(!out.completed);
        assert_eq!(out.rounds, 3);
        assert!(out.informed_round.contains(&NEVER_ROUND));
    }

    #[test]
    fn informed_counts_are_monotone_and_consistent() {
        let g = generators::gnp_connected(64, 0.2, &mut rng(17), 100);
        let out = run_sync(&g, 0, Mode::PushPull, &mut rng(18), 1_000);
        assert!(out.completed);
        assert!(out.informed_by_round.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*out.informed_by_round.last().unwrap(), 64);
        // Count nodes informed per round and cross-check the curve.
        for (r, &count) in out.informed_by_round.iter().enumerate() {
            let actual = out
                .informed_round
                .iter()
                .filter(|&&ir| ir != NEVER_ROUND && ir <= r as u64)
                .count();
            assert_eq!(actual, count, "round {r}");
        }
    }

    #[test]
    fn complete_graph_is_logarithmic() {
        let g = generators::complete(256);
        let out = run_sync(&g, 0, Mode::PushPull, &mut rng(19), 1_000);
        assert!(out.completed);
        assert!(out.rounds <= 25, "K_256 should finish fast, took {}", out.rounds);
    }

    #[test]
    fn single_node_graph_trivially_complete() {
        let g = rumor_graph::GraphBuilder::new(1).build().unwrap();
        let out = run_sync(&g, 0, Mode::PushPull, &mut rng(23), 10);
        assert!(out.completed);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn rejects_bad_source() {
        let g = generators::path(3);
        run_sync(&g, 5, Mode::Push, &mut rng(29), 10);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = generators::hypercube(6);
        let a = run_sync(&g, 0, Mode::PushPull, &mut rng(31), 1_000);
        let b = run_sync(&g, 0, Mode::PushPull, &mut rng(31), 1_000);
        assert_eq!(a, b);
    }

    #[test]
    fn loss_slows_spreading_monotonically() {
        let g = generators::gnp_connected(64, 0.15, &mut rng(1), 100);
        let mut means = Vec::new();
        for loss in [0.0, 0.3, 0.6] {
            let cfg = SpreadConfig::new(0).with_loss_probability(loss);
            let mut s = rumor_sim::stats::OnlineStats::new();
            for seed in 0..150 {
                let out = run_sync_probed(&g, &cfg, &mut rng(100 + seed), 1 << 20, &mut NoProbe);
                assert!(out.completed);
                s.push(out.rounds as f64);
            }
            means.push(s.mean());
        }
        assert!(means[0] < means[1] && means[1] < means[2], "{means:?}");
    }
}
