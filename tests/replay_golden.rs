//! Golden seed-for-seed replay pins for the dynamic engines.

use rumor_spreading::core::dynamic::{
    run_dynamic, DynamicModel, EdgeMarkov, NodeChurn, Rewire, SnapshotFamily,
};
use rumor_spreading::core::Mode;
use rumor_spreading::graph::generators;
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;

/// `(time.to_bits(), steps, topology_events, final_rng_word)`.
type SeqGolden = (u64, u64, u64, u64);

fn models() -> Vec<(&'static str, DynamicModel)> {
    vec![
        ("markov-sym", DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))),
        ("markov-asym", DynamicModel::EdgeMarkov(EdgeMarkov { off_rate: 1.5, on_rate: 0.75 })),
        ("rewire", DynamicModel::Rewire(Rewire::new(2.0, SnapshotFamily::Gnp { p: 0.2 }))),
        ("churn", DynamicModel::NodeChurn(NodeChurn::new(0.3, 1.2, 2))),
    ]
}

fn test_graph() -> rumor_spreading::graph::Graph {
    generators::gnp_connected(48, 0.15, &mut Xoshiro256PlusPlus::seed_from(1), 100)
}

/// Per model, per seed (11 then 12): the sequential pin of the `v2`
/// stream (`rumor_sim::events::RNG_CONTRACT`).
///
/// Captured at the introduction of the superposition scheduler: one
/// `Exp(total)` arrival thinned to a model channel per topology event,
/// over order-relaxed (push/swap-remove) adjacency rows. The rewire
/// rows draw nothing from the superposition — the model has no
/// stochastic channel — and its snapshots rebuild the adjacency in
/// canonical order. These constants may only be regenerated in a change
/// that moves the stream tag itself (see the CI golden guard); rerun
/// `print_v2_goldens` below to do so.
const SEQ_V2: [[SeqGolden; 2]; 4] = [
    // markov-sym
    [
        (0x4019ea1f54050bd4, 284, 1182, 0x05dafbe346f7d4ca),
        (0x4011e8cd905349ea, 209, 841, 0xd7b57ab94539a234),
    ],
    // markov-asym
    [
        (0x40162bbc78babf22, 231, 1034, 0xda3b413df787c6fa),
        (0x4019ac6d30b6650e, 282, 1224, 0x06ea9f8fb745cf2a),
    ],
    // rewire
    [
        (0x4010783225e53393, 192, 2, 0xe9f09ae8fc7378e7),
        (0x400d2e15f1a1c374, 164, 1, 0x4813e3fa1d29fadb),
    ],
    // churn
    [
        (0x402058e5a9925dd2, 384, 180, 0x5aeb9363a9fe8772),
        (0x401f2e0b7e982d4c, 388, 180, 0xee2e7338fc620c03),
    ],
];

#[test]
fn sequential_engine_replays_v2_golden_runs() {
    let g = test_graph();
    for (m, (name, model)) in models().into_iter().enumerate() {
        for (s, seed) in [11u64, 12].into_iter().enumerate() {
            let mut rng = Xoshiro256PlusPlus::seed_from(seed);
            let out = run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng, 10_000_000);
            let (time_bits, steps, topo, rng_word) = SEQ_V2[m][s];
            assert_eq!(out.time.to_bits(), time_bits, "{name} seed {seed}: v2 time drifted");
            assert_eq!(out.steps, steps, "{name} seed {seed}: v2 steps drifted");
            assert_eq!(out.topology_events, topo, "{name} seed {seed}: v2 topo events drifted");
            assert_eq!(rng.next_u64(), rng_word, "{name} seed {seed}: v2 RNG state drifted");
            assert!(out.completed);
        }
    }
}

/// Regeneration helper for the v2 constants above (`cargo test --test
/// replay_golden print_v2_goldens -- --ignored --nocapture`). Only
/// legitimate in a change that moves the stream tag itself.
#[test]
#[ignore]
fn print_v2_goldens() {
    let g = test_graph();
    println!("SEQ_V2:");
    for (name, model) in models() {
        println!("    // {name}");
        println!("    [");
        for seed in [11u64, 12] {
            let mut rng = Xoshiro256PlusPlus::seed_from(seed);
            let out = run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng, 10_000_000);
            assert!(out.completed);
            println!(
                "        (0x{:016x}, {}, {}, 0x{:016x}),",
                out.time.to_bits(),
                out.steps,
                out.topology_events,
                rng.next_u64()
            );
        }
        println!("    ],");
    }
}
