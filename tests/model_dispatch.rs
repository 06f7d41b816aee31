//! Pins the single model path: every `DynamicModel` runs through its
//! boxed state (`DynamicModel::build_state`). The convenience entry
//! point `run_dynamic` replays the general entry point fed that state
//! seed-for-seed, for every model, with and without a probe.

use rumor_spreading::core::dynamic::{
    run_dynamic, run_dynamic_with, Adversary, DynamicModel, EdgeMarkov, Mobility, NodeChurn,
    RandomWalk, Rewire, SnapshotFamily,
};
use rumor_spreading::core::{AsyncOutcome, CountingProbe, Mode, NoProbe, Probe, SpreadConfig};
use rumor_spreading::graph::{generators, Graph};
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;

const SEED: u64 = 17;
const MAX_STEPS: u64 = 10_000_000;

fn models() -> Vec<DynamicModel> {
    vec![
        DynamicModel::Static,
        DynamicModel::EdgeMarkov(EdgeMarkov { off_rate: 1.5, on_rate: 0.75 }),
        DynamicModel::Rewire(Rewire::new(2.0, SnapshotFamily::Gnp { p: 0.2 })),
        DynamicModel::NodeChurn(NodeChurn::new(0.3, 1.2, 2)),
        DynamicModel::RandomWalk(RandomWalk::new(1.0)),
        DynamicModel::Mobility(Mobility::new(1.0, 0.3, 0.1)),
        DynamicModel::Adversary(Adversary::new(0.5, 2, 1.0)),
    ]
}

/// Field-by-field equality with the time compared as raw bits.
fn assert_identical(a: &AsyncOutcome, b: &AsyncOutcome, what: &str) {
    assert_eq!(a.time.to_bits(), b.time.to_bits(), "{what}: time");
    assert_eq!(a, b, "{what}: outcome");
}

/// One run of the general entry point over the model's boxed state;
/// returns the outcome and the final RNG word.
fn boxed_route<P: Probe>(g: &Graph, model: &DynamicModel, probe: &mut P) -> (AsyncOutcome, u64) {
    let mut rng = Xoshiro256PlusPlus::seed_from(SEED);
    let mut state = model.build_state();
    let out =
        run_dynamic_with(g, &SpreadConfig::new(0), state.as_mut(), &mut rng, MAX_STEPS, probe);
    (out, rng.next_u64())
}

#[test]
fn run_dynamic_replays_the_boxed_state_route() {
    let g = generators::gnp_connected(40, 0.15, &mut Xoshiro256PlusPlus::seed_from(3), 200);
    for model in models() {
        let what = format!("{model}");

        let mut rng = Xoshiro256PlusPlus::seed_from(SEED);
        let plain = run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng, MAX_STEPS);
        let plain_word = rng.next_u64();

        let (boxed, boxed_word) = boxed_route(&g, &model, &mut NoProbe);
        assert_identical(&plain, &boxed, &what);
        assert_eq!(plain_word, boxed_word, "{what}: final RNG word");

        // A counting probe observes the same run and tallies every tick.
        let mut probe = CountingProbe::default();
        let (counted, counted_word) = boxed_route(&g, &model, &mut probe);
        assert_identical(&counted, &plain, &what);
        assert_eq!(counted_word, plain_word, "{what}: probed RNG word");
        assert_eq!(probe.events[0], plain.steps, "{what}: ticks seen");
    }
}
