//! Pins the single model-dispatch point: a `DynamicModel` run through
//! the enum path (`DynamicModel::with_state`, which compiles the engine
//! per concrete model state) replays the general entry point fed the
//! boxed `model.build_state()` seed-for-seed, for every model, both RNG
//! contracts, with and without a probe — and a one-shard sharded run
//! replays both.

use rumor_spreading::core::dynamic::{
    run_dynamic_under, run_dynamic_with, Adversary, DynamicModel, DynamicOutcome, EdgeMarkov,
    Mobility, NodeChurn, RandomWalk, Rewire, SnapshotFamily,
};
use rumor_spreading::core::engine::{run_dynamic_sharded_under, run_dynamic_sharded_with};
use rumor_spreading::core::{
    CountingProbe, Mode, NoProbe, Probe, RngContract, StateVisitor, TopologyModel,
};
use rumor_spreading::graph::{generators, Graph, Node, Partition};
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
    contract: RngContract,
    g: &'a Graph,
    rng: &'a mut Xoshiro256PlusPlus,
    probe: &'a mut P,
}

impl<P: Probe> StateVisitor for Sequential<'_, P> {
    type Output = DynamicOutcome;

    fn visit<M: TopologyModel + 'static>(self, mut state: M) -> DynamicOutcome {
        let source: Node = 0;
        run_dynamic_with(
            self.contract,
            self.g,
            source,
            Mode::PushPull,
            &mut state,
            self.rng,
            MAX_STEPS,
            self.probe,
        )
    }
}

/// Field-by-field equality with the time compared as raw bits.
fn assert_identical(a: &DynamicOutcome, b: &DynamicOutcome, what: &str) {
    assert_eq!(a.time.to_bits(), b.time.to_bits(), "{what}: time");
    assert_eq!(a, b, "{what}: outcome");
}

/// One run per route; returns the outcome and the final RNG word.
fn enum_route<P: Probe>(
    contract: RngContract,
    g: &Graph,
    model: &DynamicModel,
    probe: &mut P,
) -> (DynamicOutcome, u64) {
    let mut rng = Xoshiro256PlusPlus::seed_from(SEED);
    let out = model.with_state(Sequential { contract, g, rng: &mut rng, probe });
    (out, rng.next_u64())
}

fn boxed_route<P: Probe>(
    contract: RngContract,
    g: &Graph,
    model: &DynamicModel,
    probe: &mut P,
) -> (DynamicOutcome, u64) {
    let mut rng = Xoshiro256PlusPlus::seed_from(SEED);
    let mut state = model.build_state();
    let out = run_dynamic_with(
        contract,
        g,
        0,
        Mode::PushPull,
        state.as_mut(),
        &mut rng,
        MAX_STEPS,
        probe,
    );
    (out, rng.next_u64())
}

#[test]
fn enum_and_boxed_routes_replay_each_other() {
    let g = generators::gnp_connected(40, 0.15, &mut Xoshiro256PlusPlus::seed_from(3), 200);
    for model in models() {
        for contract in [RngContract::V1, RngContract::V2] {
            let what = format!("{model} under {contract:?}");

            // The convenience entry point is the enum path with NoProbe.
            let mut rng = Xoshiro256PlusPlus::seed_from(SEED);
            let plain =
                run_dynamic_under(contract, &g, 0, Mode::PushPull, &model, &mut rng, MAX_STEPS);
            let plain_word = rng.next_u64();

            let (enum_out, enum_word) = enum_route(contract, &g, &model, &mut NoProbe);
            let (boxed_out, boxed_word) = boxed_route(contract, &g, &model, &mut NoProbe);
            assert_identical(&plain, &enum_out, &what);
            assert_identical(&enum_out, &boxed_out, &what);
            assert_eq!(plain_word, enum_word, "{what}: final RNG word");
            assert_eq!(enum_word, boxed_word, "{what}: final RNG word");

            // A counting probe sees the same run on both routes.
            let (mut enum_probe, mut boxed_probe) =
                (CountingProbe::default(), CountingProbe::default());
            let (enum_counted, enum_counted_word) =
                enum_route(contract, &g, &model, &mut enum_probe);
            let (boxed_counted, boxed_counted_word) =
                boxed_route(contract, &g, &model, &mut boxed_probe);
            assert_identical(&enum_counted, &plain, &what);
            assert_identical(&boxed_counted, &plain, &what);
            assert_eq!(enum_counted_word, plain_word, "{what}: probed RNG word");
            assert_eq!(boxed_counted_word, plain_word, "{what}: probed RNG word");
            assert_eq!(enum_probe, boxed_probe, "{what}: probe tallies");
            assert_eq!(enum_probe.events[0], plain.steps, "{what}: ticks seen");

            // One shard replays the sequential engine of the same contract.
            let mut rng = Xoshiro256PlusPlus::seed_from(SEED);
            let k1 = run_dynamic_sharded_under(
                contract,
                &g,
                0,
                Mode::PushPull,
                &model,
                1,
                &mut rng,
                MAX_STEPS,
            );
            assert_identical(&k1.outcome, &plain, &format!("{what}, K = 1"));
            assert_eq!(rng.next_u64(), plain_word, "{what}, K = 1: final RNG word");

            let mut rng = Xoshiro256PlusPlus::seed_from(SEED);
            let mut state = model.build_state();
            let k1_probed = run_dynamic_sharded_with(
                contract,
                &g,
                0,
                Mode::PushPull,
                state.as_mut(),
                &Partition::contiguous(g.node_count(), 1),
                &mut rng,
                MAX_STEPS,
                &mut CountingProbe::default(),
            );
            assert_identical(&k1_probed.outcome, &plain, &format!("{what}, K = 1 probed"));
            assert_eq!(rng.next_u64(), plain_word, "{what}, K = 1 probed: final RNG word");
        }
    }
}
