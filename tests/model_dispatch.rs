//! Pins the single model-dispatch point: a `DynamicModel` run through
//! the enum path (`DynamicModel::with_state`, which compiles the engine
//! per concrete model state) replays the general entry point fed the
//! boxed `model.build_state()` seed-for-seed, for every model, with and
//! without a probe.

use rumor_spreading::core::dynamic::{
    run_dynamic, run_dynamic_with, Adversary, DynamicModel, EdgeMarkov, Mobility, NodeChurn,
    RandomWalk, Rewire, SnapshotFamily,
};
use rumor_spreading::core::{
    AsyncOutcome, CountingProbe, Mode, NoProbe, Probe, SpreadConfig, StateVisitor, TopologyModel,
};
use rumor_spreading::graph::{generators, Graph, Node};
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

/// A sequential run through the enum path with an arbitrary probe.
struct Sequential<'a, P> {
    g: &'a Graph,
    rng: &'a mut Xoshiro256PlusPlus,
    probe: &'a mut P,
}

impl<P: Probe> StateVisitor for Sequential<'_, P> {
    type Output = AsyncOutcome;

    fn visit<M: TopologyModel + 'static>(self, mut state: M) -> AsyncOutcome {
        let source: Node = 0;
        run_dynamic_with(
            self.g,
            &SpreadConfig::new(source),
            &mut state,
            self.rng,
            MAX_STEPS,
            self.probe,
        )
    }
}

/// Field-by-field equality with the time compared as raw bits.
fn assert_identical(a: &AsyncOutcome, b: &AsyncOutcome, what: &str) {
    assert_eq!(a.time.to_bits(), b.time.to_bits(), "{what}: time");
    assert_eq!(a, b, "{what}: outcome");
}

/// One run per route; returns the outcome and the final RNG word.
fn enum_route<P: Probe>(g: &Graph, model: &DynamicModel, probe: &mut P) -> (AsyncOutcome, u64) {
    let mut rng = Xoshiro256PlusPlus::seed_from(SEED);
    let out = model.with_state(Sequential { g, rng: &mut rng, probe });
    (out, rng.next_u64())
}

fn boxed_route<P: Probe>(g: &Graph, model: &DynamicModel, probe: &mut P) -> (AsyncOutcome, u64) {
    let mut rng = Xoshiro256PlusPlus::seed_from(SEED);
    let mut state = model.build_state();
    let out =
        run_dynamic_with(g, &SpreadConfig::new(0), state.as_mut(), &mut rng, MAX_STEPS, probe);
    (out, rng.next_u64())
}

#[test]
fn enum_and_boxed_routes_replay_each_other() {
    let g = generators::gnp_connected(40, 0.15, &mut Xoshiro256PlusPlus::seed_from(3), 200);
    for model in models() {
        let what = format!("{model}");

        // The convenience entry point is the enum path with NoProbe.
        let mut rng = Xoshiro256PlusPlus::seed_from(SEED);
        let plain = run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng, MAX_STEPS);
        let plain_word = rng.next_u64();

        let (enum_out, enum_word) = enum_route(&g, &model, &mut NoProbe);
        let (boxed_out, boxed_word) = boxed_route(&g, &model, &mut NoProbe);
        assert_identical(&plain, &enum_out, &what);
        assert_identical(&enum_out, &boxed_out, &what);
        assert_eq!(plain_word, enum_word, "{what}: final RNG word");
        assert_eq!(enum_word, boxed_word, "{what}: final RNG word");

        // A counting probe sees the same run on both routes.
        let (mut enum_probe, mut boxed_probe) =
            (CountingProbe::default(), CountingProbe::default());
        let (enum_counted, enum_counted_word) = enum_route(&g, &model, &mut enum_probe);
        let (boxed_counted, boxed_counted_word) = boxed_route(&g, &model, &mut boxed_probe);
        assert_identical(&enum_counted, &plain, &what);
        assert_identical(&boxed_counted, &plain, &what);
        assert_eq!(enum_counted_word, plain_word, "{what}: probed RNG word");
        assert_eq!(boxed_counted_word, plain_word, "{what}: probed RNG word");
        assert_eq!(enum_probe, boxed_probe, "{what}: probe tallies");
        assert_eq!(enum_probe.events[0], plain.steps, "{what}: ticks seen");
    }
}
