//! The frontier adversary's arc-indexed frontier against the ordered
//! pair set it replaced.
//!
//! [`PairSetAdversary`] is the adversary as it ran on a
//! `BTreeSet<(Node, Node)>` frontier keyed `(informed, uninformed)`,
//! kept here as a test-side [`TopologyModel`]. The built-in state keeps
//! the frontier as arc indices of the base graph instead. Both cut the
//! smallest frontier edges in lexicographic order, so they must agree
//! seed for seed: the same outcome and the same final RNG word through
//! the sequential engine ([`run_dynamic_with`]), and the same trace and
//! final RNG word through [`TopologyTrace::record`], on G(n, p) at three
//! sizes, the star, the path and the implicit `K_n`, healing and
//! censored (`heal = inf`).

use std::collections::{BTreeSet, VecDeque};

use rumor_spreading::core::dynamic::{run_dynamic_with, Adversary, DynamicModel};
use rumor_spreading::core::engine::TopologyModel;
use rumor_spreading::core::{NoProbe, SpreadConfig, TopologyTrace};
use rumor_spreading::graph::dynamic::MutableGraph;
use rumor_spreading::graph::{generators, Graph, Node};
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;

/// The adversary over a `BTreeSet` of `(informed, uninformed)` pairs.
struct PairSetAdversary {
    cfg: Adversary,
    /// Cut edges awaiting their heal, with its time, in cut order.
    healing: VecDeque<(f64, Node, Node)>,
    /// Informed bitmap mirrored from [`TopologyModel::note_informed`].
    informed: Vec<bool>,
    /// Every present edge with exactly one informed endpoint, keyed
    /// `(informed, uninformed)`. Strikes cut the smallest entries.
    boundary: BTreeSet<(Node, Node)>,
}

impl PairSetAdversary {
    fn new(m: Adversary) -> Self {
        Self { cfg: m, healing: VecDeque::new(), informed: Vec::new(), boundary: BTreeSet::new() }
    }

    fn is_informed(&self, v: Node) -> bool {
        self.informed.get(v as usize).copied().unwrap_or(false)
    }

    /// Cuts `edge`, scheduling its heal if healing is configured.
    fn cut_edge(&mut self, (u, w): (Node, Node), t: f64, net: &mut MutableGraph) {
        net.remove_edge(u, w);
        if self.cfg.heal_after.is_finite() {
            self.healing.push_back((t + self.cfg.heal_after, u, w));
        }
    }
}

impl TopologyModel for PairSetAdversary {
    fn init(
        &mut self,
        _g: &Graph,
        _net: &mut MutableGraph,
        _rng: &mut Xoshiro256PlusPlus,
    ) -> usize {
        1
    }

    fn next_due(&mut self) -> f64 {
        self.healing.front().map_or(f64::INFINITY, |&(at, ..)| at)
    }

    fn apply(&mut self, _t: f64, net: &mut MutableGraph, _rng: &mut Xoshiro256PlusPlus) {
        let (_, u, w) = self.healing.pop_front().expect("a due heal has a cut edge");
        if net.is_active(u) && net.is_active(w) {
            net.add_edge(u, w);
            if self.is_informed(u) != self.is_informed(w) {
                self.boundary.insert(if self.is_informed(u) { (u, w) } else { (w, u) });
            }
        }
    }

    fn channel_weight(&self, _ch: usize) -> f64 {
        self.cfg.rate
    }

    fn fire(&mut self, _ch: usize, t: f64, net: &mut MutableGraph, _rng: &mut Xoshiro256PlusPlus) {
        for _ in 0..self.cfg.budget {
            let Some(edge) = self.boundary.pop_first() else {
                break;
            };
            self.cut_edge(edge, t, net);
        }
    }

    fn note_informed(&mut self, v: Node, net: &MutableGraph) {
        if self.informed.len() < net.node_count() {
            self.informed.resize(net.node_count(), false);
        }
        if std::mem::replace(&mut self.informed[v as usize], true) {
            return;
        }
        for &w in net.neighbors(v) {
            if self.informed[w as usize] {
                self.boundary.remove(&(w, v));
            } else {
                self.boundary.insert((v, w));
            }
        }
    }
}

fn rng(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from(seed)
}

/// The graphs, each with a strike rate of `m / 8`: G(n, 2 ln n / n) at
/// three sizes, the star, the path, and `K_n` with implicit rows.
fn graphs() -> Vec<(&'static str, Graph)> {
    let gnp = |n: usize, seed: u64| {
        let p = 2.0 * (n as f64).ln() / n as f64;
        generators::gnp_connected(n, p, &mut rng(seed), 200)
    };
    vec![
        ("gnp 32", gnp(32, 1)),
        ("gnp 128", gnp(128, 2)),
        ("gnp 256", gnp(256, 3)),
        ("star 40", generators::star(40)),
        ("path 40", generators::path(40)),
        ("complete 24", generators::complete(24)),
    ]
}

/// Healing (`heal 1`, the run must complete) and censored (`heal inf`,
/// stopped by the step budget) adversaries for a graph with `m` edges.
fn adversaries(m: usize) -> [(&'static str, Adversary, u64); 2] {
    let rate = m as f64 / 8.0;
    [
        ("heal 1", Adversary::new(rate, 4, 1.0), 10_000_000),
        ("heal inf", Adversary::new(rate, 8, f64::INFINITY), 20_000),
    ]
}

const SEEDS: std::ops::Range<u64> = 0..6;

#[test]
fn sequential_runs_match_the_pair_set_adversary() {
    let mut censored = 0;
    for (name, g) in graphs() {
        for (label, adversary, budget) in adversaries(g.edge_count()) {
            for seed in SEEDS {
                let config = SpreadConfig::new(0);
                let mut r = rng(seed);
                let mut state = DynamicModel::Adversary(adversary).build_state();
                let got =
                    run_dynamic_with(&g, &config, state.as_mut(), &mut r, budget, &mut NoProbe);
                let mut r_ref = rng(seed);
                let mut reference = PairSetAdversary::new(adversary);
                let want =
                    run_dynamic_with(&g, &config, &mut reference, &mut r_ref, budget, &mut NoProbe);
                assert_eq!(got, want, "{name} {label} seed {seed}: outcome");
                assert_eq!(r.next_u64(), r_ref.next_u64(), "{name} {label} seed {seed}: RNG");
                assert!(got.topology_events > 0, "{name} {label} seed {seed}: no strike ran");
                if label == "heal 1" {
                    assert!(got.completed, "{name} {label} seed {seed}: a healing run completes");
                }
                censored += usize::from(!got.completed);
            }
        }
    }
    assert!(censored > 0, "no censored run: the heal-inf case lost its point");
}

#[test]
fn recorded_traces_match_the_pair_set_adversary() {
    for (name, g) in graphs() {
        for (label, adversary, _) in adversaries(g.edge_count()) {
            for seed in SEEDS {
                let source = (seed as usize % g.node_count()) as Node;
                let mut r = rng(seed);
                let mut state = DynamicModel::Adversary(adversary).build_state();
                let got = TopologyTrace::record(&g, source, state.as_mut(), &mut r, 4.0);
                let mut r_ref = rng(seed);
                let mut reference = PairSetAdversary::new(adversary);
                let want = TopologyTrace::record(&g, source, &mut reference, &mut r_ref, 4.0);
                assert!(!got.is_empty(), "{name} {label} seed {seed}: nothing was cut");
                assert_eq!(got, want, "{name} {label} seed {seed}: trace");
                assert_eq!(r.next_u64(), r_ref.next_u64(), "{name} {label} seed {seed}: RNG");
            }
        }
    }
}
