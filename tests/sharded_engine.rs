//! Property tests of the sharded conservative-lookahead engine: the
//! K = 1 seed-for-seed replay of the sequential dynamic engine
//! (spreading time, informed trace, final RNG state — the acceptance
//! invariant of the sharding PR, in the spirit of PR 1's churn-0
//! invariant), determinism at K > 1, and structural sanity of the
//! window telemetry.

use proptest::prelude::*;
use rumor_spreading::core::dynamic::{
    run_dynamic, Adversary, DynamicModel, EdgeMarkov, Mobility, NodeChurn, RandomWalk, Rewire,
    SnapshotFamily,
};
use rumor_spreading::core::engine::{run_dynamic_sharded, run_dynamic_sharded_with};
use rumor_spreading::core::spec::{Engine, Protocol, SimSpec, Topology};
use rumor_spreading::core::{Mode, NoProbe, RngContract};
use rumor_spreading::graph::{generators, Graph, Partition};
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;

/// Strategy: connected graphs across the density spectrum.
fn test_graph() -> impl Strategy<Value = Graph> {
    (0usize..3, 4usize..6, 20usize..48).prop_map(|(family, dim, n)| match family {
        0 => {
            let p = 2.5 * (n as f64).ln() / n as f64;
            generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(n as u64), 200)
        }
        1 => generators::hypercube(dim as u32),
        _ => generators::necklace_of_cliques(4, n / 4),
    })
}

const MODEL_COUNT: usize = 8;

fn model(which: usize) -> DynamicModel {
    match which {
        0 => DynamicModel::Static,
        1 => DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0)),
        2 => DynamicModel::EdgeMarkov(EdgeMarkov { off_rate: 1.5, on_rate: 0.75 }),
        3 => DynamicModel::Rewire(Rewire::new(2.0, SnapshotFamily::Gnp { p: 0.2 })),
        4 => DynamicModel::NodeChurn(NodeChurn::new(0.3, 1.2, 2)),
        5 => DynamicModel::RandomWalk(RandomWalk::new(1.0)),
        6 => DynamicModel::Mobility(Mobility::new(1.0, 0.4, 0.2)),
        _ => DynamicModel::Adversary(Adversary::new(1.0, 3, 1.0)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// (i) One shard replays the sequential engine seed-for-seed —
    /// outcome, informed trace, and final RNG state — for every
    /// evolution model and protocol mode.
    #[test]
    fn k1_replays_sequential_seed_for_seed(
        g in test_graph(),
        seed in 0u64..1_000,
        which in 0usize..MODEL_COUNT,
    ) {
        let m = model(which);
        for mode in Mode::ALL {
            let mut a = Xoshiro256PlusPlus::seed_from(seed);
            let sequential = run_dynamic(&g, 0, mode, &m, &mut a, 20_000_000);
            let mut b = Xoshiro256PlusPlus::seed_from(seed);
            let sharded = run_dynamic_sharded(&g, 0, mode, &m, 1, &mut b, 20_000_000);
            prop_assert_eq!(&sharded.outcome, &sequential, "mode {} model {}", mode, m);
            prop_assert_eq!(sharded.cross_events, 0);
            prop_assert_eq!(a.next_u64(), b.next_u64(), "final RNG state diverged");
        }
    }

    /// (ii) K > 1 runs are deterministic in (seed, partition, model),
    /// including across repeated thread scheduling.
    #[test]
    fn multi_shard_deterministic(
        g in test_graph(),
        seed in 0u64..1_000,
        which in 0usize..MODEL_COUNT,
        shards in 2usize..5,
    ) {
        let m = model(which);
        let shards = shards.min(g.node_count());
        let a = run_dynamic_sharded(&g, 0, Mode::PushPull, &m, shards, &mut Xoshiro256PlusPlus::seed_from(seed), 20_000_000);
        let b = run_dynamic_sharded(&g, 0, Mode::PushPull, &m, shards, &mut Xoshiro256PlusPlus::seed_from(seed), 20_000_000);
        prop_assert_eq!(a, b, "model {}", m);
    }

    /// (iii) The informed trace stays causal at any K: the source is
    /// informed at 0, everyone else strictly later, nobody after the
    /// reported spreading time, and the spreading time is attained.
    #[test]
    fn informed_trace_is_causal(
        g in test_graph(),
        seed in 0u64..1_000,
        shards in 1usize..5,
    ) {
        let shards = shards.min(g.node_count());
        let out = run_dynamic_sharded(
            &g,
            0,
            Mode::PushPull,
            &DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(0.5)),
            shards,
            &mut Xoshiro256PlusPlus::seed_from(seed),
            50_000_000,
        );
        prop_assert!(out.outcome.completed);
        prop_assert_eq!(out.outcome.informed_time[0], 0.0);
        let max = out.outcome.informed_time.iter().cloned().fold(0.0, f64::max);
        prop_assert_eq!(max, out.outcome.time, "spreading time must be attained");
        for (v, &t) in out.outcome.informed_time.iter().enumerate().skip(1) {
            prop_assert!(t.is_finite() && t > 0.0 && t <= out.outcome.time, "node {} at {}", v, t);
        }
    }

    /// (v) Degenerate sharding (PR 3 satellite): with `K = n` every
    /// shard is a singleton — the source shard is frozen from the first
    /// window, fully-external shards have **no local stream at all**
    /// (rate 0), and every contact rides the coordinator's cross
    /// stream. The worker protocol and horizon derivation must neither
    /// deadlock nor livelock, and the run must still sample the same
    /// process law (here: completion, causal trace, determinism).
    #[test]
    fn k_equals_n_singleton_shards_terminate(
        g in test_graph(),
        seed in 0u64..1_000,
        which in 0usize..MODEL_COUNT,
    ) {
        let m = model(which);
        let n = g.node_count();
        let a = run_dynamic_sharded(&g, 0, Mode::PushPull, &m, n, &mut Xoshiro256PlusPlus::seed_from(seed), 20_000_000);
        let b = run_dynamic_sharded(&g, 0, Mode::PushPull, &m, n, &mut Xoshiro256PlusPlus::seed_from(seed), 20_000_000);
        prop_assert_eq!(&a, &b, "K = n must stay deterministic, model {}", m);
        prop_assert_eq!(a.shards, n);
        prop_assert_eq!(a.outcome.informed_time[0], 0.0);
        if a.outcome.completed {
            for &t in &a.outcome.informed_time {
                prop_assert!(t.is_finite() && t <= a.outcome.time);
            }
        }
    }

    /// (vi) Shards that lose their local stream mid-run: heavy node
    /// churn deactivates nodes (wasted ticks), edge churn can empty a
    /// singleton shard's internal contact set entirely. The engine must
    /// terminate (complete or exhaust the budget) without deadlock for
    /// every K up to n.
    #[test]
    fn isolating_churn_terminates_at_any_shard_count(
        seed in 0u64..1_000,
        shards in 1usize..17,
    ) {
        let g = generators::gnp_connected(16, 0.3, &mut Xoshiro256PlusPlus::seed_from(2), 200);
        // Leave-heavy churn: long stretches where most nodes are away
        // and some shards contain only inactive (isolated) nodes.
        let m = DynamicModel::NodeChurn(NodeChurn::new(2.0, 0.5, 1));
        let out = run_dynamic_sharded(
            &g, 0, Mode::PushPull, &m, shards,
            &mut Xoshiro256PlusPlus::seed_from(seed), 300_000,
        );
        prop_assert!(out.outcome.steps <= 300_000 + shards as u64); // per-window budget overshoot is bounded
        prop_assert_eq!(out.outcome.informed_time[0], 0.0);
    }

    /// (iv) An explicit partition equals the contiguous convenience
    /// wrapper when they describe the same split.
    #[test]
    fn explicit_partition_matches_contiguous(seed in 0u64..1_000) {
        let g = generators::necklace_of_cliques(4, 8);
        let part = Partition::contiguous(32, 4);
        let a = run_dynamic_sharded(
            &g, 0, Mode::PushPull, &DynamicModel::Static, 4,
            &mut Xoshiro256PlusPlus::seed_from(seed), 10_000_000,
        );
        let b = run_dynamic_sharded_with(RngContract::V1, &g, 0, Mode::PushPull, DynamicModel::Static.build_state().as_mut(), &part, &mut Xoshiro256PlusPlus::seed_from(seed), 10_000_000, &mut NoProbe);
        prop_assert_eq!(a, b);
    }
}

/// The acceptance invariant spelled out on fixed graphs: trial-level
/// K = 1 sampling is bit-identical to the sequential runner helper.
#[test]
fn acceptance_k1_trials_match_sequential_runner() {
    let mut graph_rng = Xoshiro256PlusPlus::seed_from(2026);
    let gnp = generators::gnp_connected(96, 0.1, &mut graph_rng, 200);
    let cube = generators::hypercube(6);
    for (name, g) in [("gnp", &gnp), ("hypercube", &cube)] {
        for m in [DynamicModel::Static, DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))] {
            let spec = SimSpec::on_graph(g)
                .protocol(Protocol::push_pull_async())
                .topology(Topology::Model(m))
                .trials(15)
                .seed(77)
                .max_steps(50_000_000);
            let sequential = spec.clone().build().expect("valid spec").run();
            let sharded =
                spec.engine(Engine::Sharded { shards: 1 }).build().expect("valid spec").run();
            assert_eq!(sequential.values(), sharded.values(), "{name} model {m}");
        }
    }
}

/// Cross-shard telemetry: on a bridge-separated topology the rumor can
/// only leave the source shard through cross events, and windows
/// amortize local events.
#[test]
fn cross_events_carry_the_rumor_across_shards() {
    let g = generators::necklace_of_cliques(2, 24);
    let out = run_dynamic_sharded(
        &g,
        0,
        Mode::PushPull,
        &DynamicModel::Static,
        2,
        &mut Xoshiro256PlusPlus::seed_from(5),
        100_000_000,
    );
    assert!(out.outcome.completed);
    assert!(out.cross_events > 0, "shard 1 must be informed via a cross event");
    assert!(out.windows > 0);
    assert!(out.events_per_window() > 1.0, "windows should amortize local events");
}
