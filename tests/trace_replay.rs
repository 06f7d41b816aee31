//! Record/replay invariants of the topology-trace layer.
//!
//! A recorded [`TopologyTrace`] is one realized topology evolution;
//! replaying it must be engine-independent. These tests pin, for every
//! topology model:
//!
//! * **byte-identical snapshot sequences** — the graphs an engine walks
//!   while replaying a trace (captured after every applied step by a
//!   probe model) are exactly the trace's own materialized sequence,
//!   for the sequential engine, the sharded engine at K ∈ {1, 3}, and
//!   the queue-free cursor engine;
//! * **seed-for-seed replay** — the sequential replay, the K = 1
//!   sharded replay, and the cursor engine consume the protocol RNG
//!   identically (same outcome, same final RNG state), and the coupled
//!   runner helpers inherit this (`Sequential`, `Sharded(1)`, and
//!   `Lazy` coupled runs are bit-identical);
//! * **fixed point** — recording a replay reproduces the trace exactly
//!   (`record(replay(T)) == T`), so traces are closed under replay.

use rumor_sim::events::EventQueue;
use rumor_spreading::core::dynamic::{
    run_dynamic_with, Adversary, DynamicModel, DynamicOutcome, EdgeMarkov, Mobility, NodeChurn,
    RandomWalk, Rewire, SnapshotFamily,
};
use rumor_spreading::core::engine::trace::{run_trace_lazy, TopologyTrace, TraceReplayer};
use rumor_spreading::core::engine::{
    run_dynamic_sharded_with, InformedView, RateImpact, TopoEvent, TopologyModel,
};
use rumor_spreading::core::spec::{Engine, Protocol, SimSpec, Topology};
use rumor_spreading::core::{Mode, NoProbe, RngContract};
use rumor_spreading::graph::dynamic::MutableGraph;
use rumor_spreading::graph::{generators, Graph, Partition};
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;

fn rng(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from(seed)
}

/// Records `model` from source 0 under the v1 contract.
fn record_v1(g: &Graph, model: &DynamicModel, seed: u64, horizon: f64) -> TopologyTrace {
    TopologyTrace::record(
        RngContract::V1,
        g,
        0,
        model.build_state().as_mut(),
        &mut rng(seed),
        horizon,
    )
}

/// Runs the v1 sequential engine from source 0 over `state`.
fn run_v1<M: TopologyModel>(
    g: &Graph,
    state: &mut M,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
) -> DynamicOutcome {
    run_dynamic_with(RngContract::V1, g, 0, Mode::PushPull, state, rng, max_steps, &mut NoProbe)
}

/// The five `--dynamic-model` choices plus node churn (which exercises
/// the activation half of the step diffs).
fn all_models() -> Vec<(&'static str, DynamicModel)> {
    vec![
        ("markov", DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))),
        ("rewire", DynamicModel::Rewire(Rewire::new(2.0, SnapshotFamily::Gnp { p: 0.15 }))),
        ("walk", DynamicModel::RandomWalk(RandomWalk::new(1.0))),
        ("mobility", DynamicModel::Mobility(Mobility::new(1.0, 0.35, 0.15))),
        ("adversary", DynamicModel::Adversary(Adversary::new(1.0, 3, 1.0))),
        ("node-churn", DynamicModel::NodeChurn(NodeChurn::new(0.3, 1.0, 2))),
    ]
}

fn test_graph() -> Graph {
    generators::gnp_connected(48, 0.15, &mut rng(1), 100)
}

/// A [`TopologyModel`] wrapper that snapshots the engine's graph after
/// every applied replay step.
struct SnapshotProbe<'a> {
    inner: TraceReplayer<'a>,
    snaps: Vec<Graph>,
}

impl<'a> SnapshotProbe<'a> {
    fn new(trace: &'a TopologyTrace) -> Self {
        Self { inner: trace.replayer(), snaps: Vec::new() }
    }
}

impl TopologyModel for SnapshotProbe<'_> {
    fn init(
        &mut self,
        g: &Graph,
        net: &mut MutableGraph,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) {
        self.inner.init(g, net, queue, rng);
    }

    fn apply(
        &mut self,
        event: TopoEvent,
        t: f64,
        net: &mut MutableGraph,
        informed: InformedView<'_>,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        let impact = self.inner.apply(event, t, net, informed, queue, rng);
        self.snaps.push(net.to_graph());
        impact
    }
}

/// Satellite 1, part one: replaying one recorded trace through the
/// sequential engine, the sharded engine at K ∈ {1, 3}, and the cursor
/// engine walks byte-identical snapshot sequences — each engine's
/// observed graphs are exactly a prefix of the trace's materialized
/// sequence, and engines with identical RNG consumption (sequential,
/// K = 1, cursor) walk exactly the same prefix.
#[test]
fn snapshot_sequences_are_byte_identical_across_engines() {
    let g = test_graph();
    for (name, model) in all_models() {
        let trace = record_v1(&g, &model, 5, 20.0);
        assert!(!trace.is_empty(), "{name}");
        let full = trace.snapshots();

        // Sequential replay.
        let mut a = rng(77);
        let mut seq_probe = SnapshotProbe::new(&trace);
        let seq = run_v1(&g, &mut seq_probe, &mut a, 1_000_000);
        assert_eq!(
            seq_probe.snaps.as_slice(),
            &full[1..=seq_probe.snaps.len()],
            "{name}: sequential snapshots diverge from the trace"
        );

        // Sharded K = 1: same snapshots, same outcome, same RNG state.
        let mut b = rng(77);
        let mut k1_probe = SnapshotProbe::new(&trace);
        let k1 = run_dynamic_sharded_with(
            RngContract::V1,
            &g,
            0,
            Mode::PushPull,
            &mut k1_probe,
            &Partition::contiguous(g.node_count(), 1),
            &mut b,
            1_000_000,
            &mut NoProbe,
        );
        assert_eq!(k1.outcome, seq, "{name}: K=1 outcome diverged");
        assert_eq!(k1_probe.snaps, seq_probe.snaps, "{name}: K=1 snapshots diverged");
        assert_eq!(a.next_u64(), b.next_u64(), "{name}: K=1 RNG state diverged");

        // Sharded K = 3: a different sample of the same process, but
        // the topology walk is still exactly the trace's.
        let mut k3_probe = SnapshotProbe::new(&trace);
        let k3 = run_dynamic_sharded_with(
            RngContract::V1,
            &g,
            0,
            Mode::PushPull,
            &mut k3_probe,
            &Partition::contiguous(g.node_count(), 3),
            &mut rng(77),
            1_000_000,
            &mut NoProbe,
        );
        assert!(k3.outcome.completed, "{name}");
        assert_eq!(
            k3_probe.snaps.as_slice(),
            &full[1..=k3_probe.snaps.len()],
            "{name}: K=3 snapshots diverge from the trace"
        );

        // Cursor engine: replays the sequential replay seed-for-seed,
        // and applies steps verbatim from the same trace (so its walk
        // is the same byte-identical prefix by construction).
        let mut c = rng(77);
        let lazy = run_trace_lazy(RngContract::V1, &trace, 0, Mode::PushPull, &mut c, 1_000_000);
        assert_eq!(lazy, seq, "{name}: cursor engine diverged");
        assert_eq!(
            lazy.topology_events as usize,
            seq_probe.snaps.len(),
            "{name}: cursor applied a different step count"
        );
    }
}

/// Satellite 1, part two: replay of a replay is a fixed point —
/// re-recording a replayed trace reproduces it exactly, initial graph,
/// step diffs, times and all.
#[test]
fn replay_of_a_replay_is_a_fixed_point() {
    let g = test_graph();
    for (name, model) in all_models() {
        let t1 = record_v1(&g, &model, 9, 15.0);
        let t2 = TopologyTrace::record(
            RngContract::V1,
            &g,
            0,
            &mut t1.replayer(),
            &mut rng(1234),
            t1.horizon(),
        );
        assert_eq!(t2, t1, "{name}: first replay drifted");
        let t3 = TopologyTrace::record(
            RngContract::V1,
            &g,
            0,
            &mut t2.replayer(),
            &mut rng(4321),
            t2.horizon(),
        );
        assert_eq!(t3, t2, "{name}: second replay drifted");
    }
}

/// The acceptance pin: coupled runs through the K = 1 sharded engine
/// and the cursor engine replay the sequential coupled run
/// seed-for-seed, for every dynamic model.
#[test]
fn coupled_engines_replay_each_other_seed_for_seed() {
    let g = test_graph();
    for (name, model) in all_models() {
        let spec = SimSpec::on_graph(&g)
            .protocol(Protocol::push_pull_async())
            .topology(Topology::Model(model))
            .coupled(true)
            .trials(4)
            .seed(0xC0FFEE)
            .horizon(60.0)
            .max_steps(5_000_000)
            .max_rounds(50_000);
        let seq = spec.clone().build().expect("valid coupled spec").run();
        let outcomes = seq.coupled_outcomes().expect("coupled report");
        assert!(outcomes.iter().all(|o| o.sync_completed && o.async_completed), "{name}");
        assert!(outcomes.iter().all(|o| o.trace_steps > 0), "{name}");
        for engine in [Engine::Sharded { shards: 1 }, Engine::Lazy] {
            let other = spec.clone().engine(engine).build().expect("valid coupled spec").run();
            assert_eq!(other.coupled, seq.coupled, "{name} via {engine:?}");
        }
    }
}

/// Replay is deterministic and independent of how often the trace has
/// been replayed before (replayers do not mutate the trace).
#[test]
fn replays_are_repeatable() {
    let g = test_graph();
    let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0));
    let trace = record_v1(&g, &model, 33, 25.0);
    let first = run_v1(&g, &mut trace.replayer(), &mut rng(8), 1_000_000);
    let second = run_v1(&g, &mut trace.replayer(), &mut rng(8), 1_000_000);
    assert_eq!(first, second);
    // A different protocol seed spreads differently over the SAME
    // topology realization — the whole point of the trace layer.
    let third = run_v1(&g, &mut trace.replayer(), &mut rng(9), 1_000_000);
    assert_ne!(first.informed_time, third.informed_time);
    assert!(first.topology_events > 0);
}
