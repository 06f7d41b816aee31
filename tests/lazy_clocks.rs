//! Property tests of the lazy per-edge-clock machinery: a lazy clock
//! resolves, on demand, exactly the flip sequence an eager per-edge
//! event queue draws from the same stream (the satellite invariant of
//! the sharding PR), and the lazy edge-Markov engine agrees with the
//! eager queue engine in distribution.

use proptest::prelude::*;
use rumor_spreading::core::dynamic::{
    run_dynamic, Adversary, DynamicModel, EdgeMarkov, Mobility, NodeChurn, RandomWalk, Rewire,
    SnapshotFamily,
};
use rumor_spreading::core::engine::run_edge_markov_lazy;
use rumor_spreading::core::{Mode, NoProbe};
use rumor_spreading::graph::generators;
use rumor_spreading::sim::events::{EventQueue, LazyMarkovClock};
use rumor_spreading::sim::rng::{SplitMix64, Xoshiro256PlusPlus};
use rumor_spreading::sim::stats::OnlineStats;

/// Eagerly materialize an edge's first `count` flips the way the eager
/// engine does: draw the holding time out of the current state, push it
/// on an event queue, pop it, flip, repeat.
fn eager_flips(seed: u64, off: f64, on: f64, count: usize) -> Vec<(f64, bool)> {
    let mut rng = SplitMix64::new(seed);
    let mut queue: EventQueue<()> = EventQueue::new();
    let mut present = true;
    let mut now = 0.0;
    let mut flips = Vec::with_capacity(count);
    while flips.len() < count {
        let rate = if present { off } else { on };
        if rate <= 0.0 {
            break;
        }
        queue.push(now + rng.exp(rate), ());
        let (t, ()) = queue.pop().expect("just pushed");
        now = t;
        present = !present;
        flips.push((t, present));
    }
    flips
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// (i) The satellite invariant: on any query schedule, the lazy
    /// clock reports exactly the state trajectory of the eager flip
    /// sequence drawn from the same per-edge stream — same flip times,
    /// same states, no redraws.
    #[test]
    fn lazy_clock_equals_eager_queue_flip_sequence(
        seed in 0u64..10_000,
        off in 0.2f64..4.0,
        on in 0.2f64..4.0,
        stride in 0.01f64..1.0,
    ) {
        let flips = eager_flips(seed, off, on, 60);
        let mut clock = LazyMarkovClock::new(true, seed);
        let mut q = 0.0;
        let mut last_q = 0.0;
        while q < flips[49].0 {
            let expected =
                flips.iter().rev().find(|&&(t, _)| t <= q).is_none_or(|&(_, s)| s);
            prop_assert_eq!(clock.state_at(q, off, on), expected, "query at {}", q);
            last_q = q;
            q += stride;
        }
        // After resolving up to the last query, the pending flip the
        // clock holds is the eager sequence's next flip past that point
        // — drawn once, never redrawn.
        let next = flips.iter().find(|&&(t, _)| t > last_q);
        if let (Some(pending), Some(&(t_next, _))) = (clock.pending_flip(), next) {
            prop_assert_eq!(pending, t_next);
        }
    }

    /// (ii) Frozen states: a zero rate pins the chain forever, exactly
    /// like the eager engine scheduling no successor.
    #[test]
    fn lazy_clock_zero_rate_freezes(seed in 0u64..10_000, horizon in 1.0f64..1e9) {
        let mut on_forever = LazyMarkovClock::new(true, seed);
        prop_assert!(on_forever.state_at(horizon, 0.0, 3.0));
        let mut clock = LazyMarkovClock::new(true, seed);
        // off > 0, on == 0: the chain dies at its first flip and stays off.
        let first_flip = eager_flips(seed, 2.0, 0.0, 1)[0].0;
        if first_flip < horizon {
            prop_assert!(!clock.state_at(horizon, 2.0, 0.0));
            prop_assert_eq!(clock.pending_flip(), None);
        }
    }

    /// (iii) The lazy engine is deterministic per seed and its informed
    /// trace is causal.
    #[test]
    fn lazy_engine_deterministic_and_causal(seed in 0u64..1_000) {
        let g = generators::gnp_connected(40, 0.18, &mut Xoshiro256PlusPlus::seed_from(8), 200);
        let model = EdgeMarkov::symmetric(1.0);
        let a = run_edge_markov_lazy(&g, 0, Mode::PushPull, model, &mut Xoshiro256PlusPlus::seed_from(seed), 50_000_000, &mut NoProbe);
        let b = run_edge_markov_lazy(&g, 0, Mode::PushPull, model, &mut Xoshiro256PlusPlus::seed_from(seed), 50_000_000, &mut NoProbe);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.completed);
        prop_assert_eq!(a.informed_time[0], 0.0);
        for &t in &a.informed_time[1..] {
            prop_assert!(t.is_finite() && t > 0.0 && t <= a.time);
        }
        prop_assert!(a.clocks_touched <= a.base_edges);
    }
}

/// Distributional agreement between the lazy and eager engines on a
/// fixed sparse graph under symmetric churn (the acceptance check the
/// unit tests do per-module, here at the integration level with more
/// trials).
#[test]
fn lazy_and_eager_engines_agree_in_distribution() {
    let g = generators::gnp_connected(64, 0.12, &mut Xoshiro256PlusPlus::seed_from(21), 200);
    let model = EdgeMarkov { off_rate: 2.0, on_rate: 1.0 };
    let mut lazy = OnlineStats::new();
    let mut eager = OnlineStats::new();
    for seed in 0..200u64 {
        let l = run_edge_markov_lazy(
            &g,
            0,
            Mode::PushPull,
            model,
            &mut Xoshiro256PlusPlus::seed_from(seed),
            100_000_000,
            &mut NoProbe,
        );
        assert!(l.completed);
        lazy.push(l.time);
        let e = run_dynamic(
            &g,
            0,
            Mode::PushPull,
            &DynamicModel::EdgeMarkov(model),
            &mut Xoshiro256PlusPlus::seed_from(31_000 + seed),
            100_000_000,
        );
        assert!(e.completed);
        eager.push(e.time);
    }
    let rel = (lazy.mean() - eager.mean()).abs() / eager.mean();
    assert!(rel < 0.1, "lazy {} vs eager {}", lazy.mean(), eager.mean());
}

/// PR 3 satellite: the `LazyOutcome` contract on **incomplete** runs,
/// pinned beyond the all-finite happy path. A budget-exhausted run must
/// report `completed = false`, `INFINITY` for every never-informed
/// node, and `time` equal to the last protocol step taken — which, by
/// the engine's draw order, makes a short run a strict prefix of a
/// longer same-seed run.
#[test]
fn budget_exhaustion_pins_the_incomplete_outcome_contract() {
    let g = generators::gnp_connected(96, 0.06, &mut Xoshiro256PlusPlus::seed_from(12), 200);
    let model = EdgeMarkov::symmetric(1.0);
    let short = run_edge_markov_lazy(
        &g,
        0,
        Mode::PushPull,
        model,
        &mut Xoshiro256PlusPlus::seed_from(77),
        30,
        &mut NoProbe,
    );
    assert!(!short.completed);
    assert_eq!(short.steps, 30, "the engine must stop exactly at the budget");
    // `time` is the time of the last step taken: finite, positive, and
    // at least as late as every recorded informing time.
    assert!(short.time.is_finite() && short.time > 0.0);
    let last_informed =
        short.informed_time.iter().copied().filter(|t| t.is_finite()).fold(0.0, f64::max);
    assert!(
        last_informed <= short.time,
        "informed after the last step: {last_informed} > {}",
        short.time
    );
    // Never-informed nodes are INFINITY sentinels, and there are some.
    assert!(short.informed_time.iter().any(|t| t.is_infinite()));
    assert_eq!(short.informed_time[0], 0.0, "the source is informed at 0");

    // Prefix property: the same seed with a larger budget replays the
    // first 30 steps draw-for-draw, so everyone the short run informed
    // is informed at the identical instant, and the long run's last
    // step is strictly later.
    let long = run_edge_markov_lazy(
        &g,
        0,
        Mode::PushPull,
        model,
        &mut Xoshiro256PlusPlus::seed_from(77),
        3_000,
        &mut NoProbe,
    );
    for (v, (&s, &l)) in short.informed_time.iter().zip(&long.informed_time).enumerate() {
        if s.is_finite() {
            assert_eq!(s, l, "node {v} informed at a different time in the longer run");
        }
    }
    assert!(long.time > short.time, "the longer run must advance past the prefix");
}

/// The lazy engine consumes models through the `TopologyModel`
/// interface: per-edge-memoryless models run (static freezes every
/// edge; edge-Markov churns them), everything else is declined.
#[test]
fn run_dynamic_lazy_accepts_exactly_the_memoryless_models() {
    let g = generators::gnp_connected(40, 0.18, &mut Xoshiro256PlusPlus::seed_from(8), 200);
    // A model reaches the lazy engine through its per-edge chain rates.
    let lazy = |model: &DynamicModel, seed: u64, max_steps: u64| {
        model.memoryless_edge_rates().map(|(off_rate, on_rate)| {
            let markov = EdgeMarkov { off_rate, on_rate };
            let mut rng = Xoshiro256PlusPlus::seed_from(seed);
            run_edge_markov_lazy(&g, 0, Mode::PushPull, markov, &mut rng, max_steps, &mut NoProbe)
        })
    };
    let churn = lazy(&DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0)), 5, 50_000_000)
        .expect("edge-Markov is per-edge memoryless");
    assert!(churn.completed);
    // Same seed, same model, via the engine directly: identical run.
    let direct = run_edge_markov_lazy(
        &g,
        0,
        Mode::PushPull,
        EdgeMarkov::symmetric(1.0),
        &mut Xoshiro256PlusPlus::seed_from(5),
        50_000_000,
        &mut NoProbe,
    );
    assert_eq!(churn, direct);

    let frozen =
        lazy(&DynamicModel::Static, 6, 50_000_000).expect("the static model freezes every edge");
    assert!(frozen.completed);

    for model in [
        DynamicModel::Rewire(Rewire::new(1.0, SnapshotFamily::Gnp { p: 0.2 })),
        DynamicModel::NodeChurn(NodeChurn::new(0.3, 1.0, 2)),
        DynamicModel::RandomWalk(RandomWalk::new(1.0)),
        DynamicModel::Mobility(Mobility::new(1.0, 0.3, 0.1)),
        DynamicModel::Adversary(Adversary::new(1.0, 2, 1.0)),
    ] {
        assert!(lazy(&model, 7, 1_000).is_none(), "model {model} is not per-edge memoryless");
    }
}

/// A budget-limited run touches strictly fewer edges than exist: the
/// O(touched) bookkeeping claim, pinned.
#[test]
fn short_runs_touch_few_clocks() {
    let g = generators::complete(256);
    let out = run_edge_markov_lazy(
        &g,
        0,
        Mode::PushPull,
        EdgeMarkov::symmetric(1.0),
        &mut Xoshiro256PlusPlus::seed_from(3),
        20,
        &mut NoProbe,
    );
    assert!(!out.completed);
    assert!(out.clocks_touched <= 20 * 255);
    assert!(
        out.clocks_touched < out.base_edges / 3,
        "touched {} of {}",
        out.clocks_touched,
        out.base_edges
    );
}
