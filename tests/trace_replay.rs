//! Record/replay invariants of the topology-trace layer.
//!
//! A recorded [`TopologyTrace`] is one realized topology evolution;
//! replaying it must be engine-independent. These tests pin, for every
//! topology model:
//!
//! * **byte-identical snapshot sequences** — the graphs an engine walks
//!   while replaying a trace (captured after every applied step by a
//!   probe model) are exactly the trace's own materialized sequence,
//!   for the sequential engine and the queue-free cursor engine;
//! * **seed-for-seed replay** — the sequential replay and the cursor
//!   engine consume the protocol RNG identically (same outcome, same
//!   final RNG state), and the coupled runner helpers inherit this
//!   (`Sequential` and `Lazy` coupled runs are bit-identical);
//! * **fixed point** — recording a replay reproduces the trace exactly
//!   (`record(replay(T)) == T`), so traces are closed under replay.

use rumor_sim::events::EventQueue;
use rumor_spreading::core::dynamic::{
    run_dynamic_with, Adversary, DynamicModel, DynamicOutcome, EdgeMarkov, Mobility, NodeChurn,
    RandomWalk, Rewire, SnapshotFamily,
};
use rumor_spreading::core::engine::trace::{run_trace_lazy, TopologyTrace, TraceReplayer};
use rumor_spreading::core::engine::{TopoEvent, TopologyModel};
use rumor_spreading::core::spec::{Engine, Protocol, SimSpec, Topology};
use rumor_spreading::core::{Mode, NoProbe};
use rumor_spreading::graph::dynamic::MutableGraph;
use rumor_spreading::graph::{generators, Graph};
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;

fn rng(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from(seed)
}

/// Records `model` from source 0.
fn record(g: &Graph, model: &DynamicModel, seed: u64, horizon: f64) -> TopologyTrace {
    TopologyTrace::record(g, 0, model.build_state().as_mut(), &mut rng(seed), horizon)
}

/// Runs the sequential engine from source 0 over `state`.
fn run_seq<M: TopologyModel>(
    g: &Graph,
    state: &mut M,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
) -> DynamicOutcome {
    run_dynamic_with(g, 0, Mode::PushPull, state, rng, max_steps, &mut NoProbe)
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
    ) -> usize {
        self.inner.init(g, net, queue, rng)
    }

    fn apply(
        &mut self,
        event: TopoEvent,
        t: f64,
        net: &mut MutableGraph,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) {
        self.inner.apply(event, t, net, queue, rng);
        self.snaps.push(net.to_graph());
    }
}

/// Satellite 1, part one: replaying one recorded trace through the
/// sequential engine and the cursor engine walks byte-identical
/// snapshot sequences — the sequential engine's observed graphs are
/// exactly a prefix of the trace's materialized sequence, and the
/// cursor, with identical RNG consumption, walks the same prefix.
#[test]
fn snapshot_sequences_are_byte_identical_across_engines() {
    let g = test_graph();
    for (name, model) in all_models() {
        let trace = record(&g, &model, 5, 20.0);
        assert!(!trace.is_empty(), "{name}");
        let full = trace.snapshots();

        // Sequential replay.
        let mut a = rng(77);
        let mut seq_probe = SnapshotProbe::new(&trace);
        let seq = run_seq(&g, &mut seq_probe, &mut a, 1_000_000);
        assert_eq!(
            seq_probe.snaps.as_slice(),
            &full[1..=seq_probe.snaps.len()],
            "{name}: sequential snapshots diverge from the trace"
        );

        // Cursor engine: replays the sequential replay seed-for-seed,
        // and applies steps verbatim from the same trace (so its walk
        // is the same byte-identical prefix by construction).
        let mut c = rng(77);
        let lazy = run_trace_lazy(&trace, 0, Mode::PushPull, &mut c, 1_000_000);
        assert_eq!(lazy, seq, "{name}: cursor engine diverged");
        assert_eq!(a.next_u64(), c.next_u64(), "{name}: cursor RNG state diverged");
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
        let t1 = record(&g, &model, 9, 15.0);
        let t2 = TopologyTrace::record(&g, 0, &mut t1.replayer(), &mut rng(1234), t1.horizon());
        assert_eq!(t2, t1, "{name}: first replay drifted");
        let t3 = TopologyTrace::record(&g, 0, &mut t2.replayer(), &mut rng(4321), t2.horizon());
        assert_eq!(t3, t2, "{name}: second replay drifted");
    }
}

/// The acceptance pin: coupled runs through the cursor engine replay
/// the sequential coupled run seed-for-seed, for every dynamic model.
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
        let lazy = spec.clone().engine(Engine::Lazy).build().expect("valid coupled spec").run();
        assert_eq!(lazy.coupled, seq.coupled, "{name} via the cursor");
    }
}

/// Replay is deterministic and independent of how often the trace has
/// been replayed before (replayers do not mutate the trace).
#[test]
fn replays_are_repeatable() {
    let g = test_graph();
    let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0));
    let trace = record(&g, &model, 33, 25.0);
    let first = run_seq(&g, &mut trace.replayer(), &mut rng(8), 1_000_000);
    let second = run_seq(&g, &mut trace.replayer(), &mut rng(8), 1_000_000);
    assert_eq!(first, second);
    // A different protocol seed spreads differently over the SAME
    // topology realization — the whole point of the trace layer.
    let third = run_seq(&g, &mut trace.replayer(), &mut rng(9), 1_000_000);
    assert_ne!(first.informed_time, third.informed_time);
    assert!(first.topology_events > 0);
}
