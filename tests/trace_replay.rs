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
//!   final RNG state, same probe events), and the spec layer, which
//!   replays every trace on the cursor, inherits this (its coupled and
//!   uncoupled trace runs are the sequential replays, bit for bit);
//! * **fixed point** — recording a replay reproduces the trace exactly
//!   (`record(replay(T)) == T`), so traces are closed under replay;
//! * **on-demand recording** — a coupled trial that records its trace
//!   only as far as its replays read returns what replays of the trace
//!   recorded eagerly to the horizon return, and what it recorded is a
//!   prefix of that eager trace.

use proptest::prelude::*;
use rumor_spreading::core::dynamic::{
    run_dynamic_with, Adversary, DynamicModel, DynamicOutcome, EdgeMarkov, Mobility, NodeChurn,
    RandomWalk, Rewire, SnapshotFamily,
};
use rumor_spreading::core::engine::trace::{
    run_sync_dynamic, run_trace_lazy, TopologyTrace, TraceRecording, TraceReplayer,
};
use rumor_spreading::core::engine::TopologyModel;
use rumor_spreading::core::spec::{Protocol, SimSpec, Topology};
use rumor_spreading::core::trace::Transmission;
use rumor_spreading::core::{MetricsLevel, Mode, NoProbe, Probe, ProbeEvent};
use rumor_spreading::graph::dynamic::MutableGraph;
use rumor_spreading::graph::{generators, Graph, Node};
use rumor_spreading::sim::rng::{SeedStream, Xoshiro256PlusPlus};

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
    fn init(&mut self, g: &Graph, net: &mut MutableGraph, rng: &mut Xoshiro256PlusPlus) -> usize {
        self.inner.init(g, net, rng)
    }

    fn next_due(&mut self) -> f64 {
        self.inner.next_due()
    }

    fn apply(&mut self, t: f64, net: &mut MutableGraph, rng: &mut Xoshiro256PlusPlus) {
        self.inner.apply(t, net, rng);
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
        let lazy = run_trace_lazy(&trace, 0, Mode::PushPull, &mut c, 1_000_000, &mut NoProbe);
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

/// The acceptance pin: a coupled trial's asynchronous half runs on the
/// trace cursor, and it replays the sequential engine over the trial's
/// trace seed-for-seed, for every dynamic model.
#[test]
fn coupled_engines_replay_each_other_seed_for_seed() {
    let g = test_graph();
    let (trials, seed, horizon, max_steps, max_rounds) = (4, 0xC0FFEE, 60.0, 5_000_000, 50_000);
    let mode = Mode::PushPull;
    for (name, model) in all_models() {
        let report = SimSpec::on_graph(&g)
            .protocol(Protocol::push_pull_async())
            .topology(Topology::Model(model))
            .coupled(true)
            .trials(trials)
            .seed(seed)
            .horizon(horizon)
            .max_steps(max_steps)
            .max_rounds(max_rounds)
            .build()
            .expect("valid coupled spec")
            .run();
        let outcomes = report.coupled_outcomes().expect("coupled report");
        assert!(outcomes.iter().all(|o| o.sync_completed && o.async_completed), "{name}");
        assert!(outcomes.iter().all(|o| o.trace_steps > 0), "{name}");
        for (o, s) in outcomes.iter().zip(SeedStream::new(seed)) {
            let mut trial = rng(s);
            let (trace_seed, proto_seed) = (trial.next_u64(), trial.next_u64());
            let trace = record(&g, &model, trace_seed, horizon);
            let seq = run_seq(&g, &mut trace.replayer(), &mut rng(proto_seed), max_steps);
            let sync = run_sync_dynamic(&trace, 0, mode, &mut rng(proto_seed), max_rounds);
            assert_eq!(
                (o.sync_rounds, o.sync_completed, o.async_time, o.async_completed),
                (sync.rounds as f64, sync.completed, seq.time, seq.completed),
                "{name}: the coupled trial is not the sequential replay"
            );
        }
    }
}

/// One probe hook call, with its arguments.
#[derive(Debug, Clone, PartialEq)]
enum Hook {
    Start(usize, Vec<Node>),
    Event(f64, ProbeEvent),
    Changed(f64),
    Informed(f64, usize),
    Transmitted(Node, Node, Transmission, f64),
    End(f64, bool),
}

/// Records every probe hook call, in order.
#[derive(Default)]
struct HookLog(Vec<Hook>);

impl Probe for HookLog {
    fn trial_start(&mut self, n: usize, sources: &[Node]) {
        self.0.push(Hook::Start(n, sources.to_vec()));
    }

    fn event(&mut self, time: f64, kind: ProbeEvent) {
        self.0.push(Hook::Event(time, kind));
    }

    fn topology_changed(&mut self, time: f64) {
        self.0.push(Hook::Changed(time));
    }

    fn informed(&mut self, time: f64, count: usize) {
        self.0.push(Hook::Informed(time, count));
    }

    fn transmitted(&mut self, informer: Node, learner: Node, how: Transmission, time: f64) {
        self.0.push(Hook::Transmitted(informer, learner, how, time));
    }

    fn trial_end(&mut self, time: f64, completed: bool) {
        self.0.push(Hook::End(time, completed));
    }
}

/// The cursor makes the sequential replay's probe calls, at the same
/// points and with the same arguments — in particular the identical
/// `(time, ProbeEvent)` sequence — on completed and censored runs of
/// every model, so a probed cursor run observes what a probed
/// sequential replay observes.
#[test]
fn cursor_probe_events_match_the_sequential_replay() {
    let g = test_graph();
    for (name, model) in all_models() {
        let trace = record(&g, &model, 13, 30.0);
        for max_steps in [0, 1, 7, 60, 1_000_000] {
            let mut seq_log = HookLog::default();
            let seq = run_dynamic_with(
                &g,
                0,
                Mode::PushPull,
                &mut trace.replayer(),
                &mut rng(21),
                max_steps,
                &mut seq_log,
            );
            let mut cursor_log = HookLog::default();
            let cursor =
                run_trace_lazy(&trace, 0, Mode::PushPull, &mut rng(21), max_steps, &mut cursor_log);
            assert_eq!(cursor, seq, "{name} at {max_steps} steps");
            assert_eq!(cursor.completed, max_steps == 1_000_000, "{name} at {max_steps} steps");
            assert!(
                cursor_log.0.iter().any(|h| matches!(h, Hook::Event(_, ProbeEvent::Tick)))
                    || max_steps == 0
            );
            assert_eq!(cursor_log.0, seq_log.0, "{name} at {max_steps} steps");
        }
    }
}

/// An uncoupled trace run replays on the cursor and keeps the censored
/// trials' ring dumps that a model run produces.
#[test]
fn censored_trace_trials_dump_their_event_ring() {
    let g = test_graph();
    let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0));
    let report = SimSpec::on_graph(&g)
        .protocol(Protocol::push_pull_async())
        .topology(Topology::Trace(record(&g, &model, 3, 20.0)))
        .trials(6)
        .max_steps(3)
        .metrics(MetricsLevel::Json)
        .build()
        .expect("valid trace spec")
        .run();
    let m = report.metrics.as_ref().expect("metrics enabled");
    assert_eq!(m.censored, 6);
    assert!(!m.health.censor_dumps.is_empty());
    assert!(m.health.censor_dumps.iter().all(|d| !d.events.is_empty()));
}

/// An uncoupled synchronous trial on a model is the sync half of a
/// coupled trial: same sub-seeds, same realization (recorded to the
/// round budget instead of the coupled horizon, which no trial reaches
/// here), so the same rounds.
#[test]
fn uncoupled_sync_is_the_sync_half_of_a_coupled_trial() {
    let g = test_graph();
    let (horizon, max_rounds) = (60.0, 50_000);
    for (name, model) in all_models() {
        let spec = SimSpec::on_graph(&g)
            .topology(Topology::Model(model))
            .trials(6)
            .seed(0x5EED)
            .max_rounds(max_rounds);
        let sync = spec.clone().build().expect("valid sync spec").run();
        let coupled = spec
            .protocol(Protocol::push_pull_async())
            .coupled(true)
            .horizon(horizon)
            .max_steps(5_000_000)
            .build()
            .expect("valid coupled spec")
            .run();
        let pairs = coupled.coupled_outcomes().expect("coupled report");
        assert_eq!(sync.outcomes.len(), pairs.len(), "{name}");
        for (one, pair) in sync.outcomes.iter().zip(pairs) {
            assert!(one.completed && pair.sync_completed, "{name}");
            assert!(one.value - 1.0 < horizon, "{name}: a trial reached the coupled horizon");
            assert_eq!(one.value, pair.sync_rounds, "{name}");
        }
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

/// What one coupled trial reports, minus the trace-step count:
/// `(sync_rounds, sync_completed, async_time, async_completed)`.
type Paired = (f64, bool, f64, bool);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For every model, antithetic on and off, the on-demand coupled
    /// trial of a `SimSpec` returns what replays of
    /// the eagerly recorded trace return, and counts the eager steps up
    /// to the replays' reach. A `TraceRecording` fed the same replays
    /// (sync, sequential and cursor) records a prefix of the eager
    /// trace, and finishing it yields the eager trace itself.
    #[test]
    fn on_demand_coupled_trials_match_eager_replays(seed in 0u64..1_000_000) {
        let g = test_graph();
        let (trials, horizon, max_steps, max_rounds) = (2, 40.0, 1_000_000, 50_000);
        let mode = Mode::PushPull;
        let trial_seeds: Vec<u64> = SeedStream::new(seed).take(trials).collect();
        for (name, model) in all_models() {
            for antithetic in [false, true] {
                let mut expected: Vec<(Paired, usize)> = Vec::new();
                for &s in &trial_seeds {
                    let mut trial = rng(s);
                    let (trace_seed, proto_seed) = (trial.next_u64(), trial.next_u64());
                    let eager = record(&g, &model, trace_seed, horizon);
                    let mut live =
                        TraceRecording::start(&g, 0, model.build_state(), rng(trace_seed), horizon);
                    let protos =
                        if antithetic { vec![proto_seed, !proto_seed] } else { vec![proto_seed] };
                    let (mut sums, mut done, mut reach) = ((0.0, 0.0), (true, true), 0.0f64);
                    for p in protos.iter().copied() {
                        let sync = run_sync_dynamic(&eager, 0, mode, &mut rng(p), max_rounds);
                        let asy =
                            run_trace_lazy(&eager, 0, mode, &mut rng(p), max_steps, &mut NoProbe);
                        let live_sync = run_sync_dynamic(&mut live, 0, mode, &mut rng(p), max_rounds);
                        prop_assert_eq!(&live_sync, &sync, "{}: live sync", name);
                        let live_seq = run_dynamic_with(
                            &g, 0, mode, &mut TraceReplayer::new(&mut live), &mut rng(p), max_steps, &mut NoProbe,
                        );
                        prop_assert_eq!(&live_seq, &asy, "{}: live sequential", name);
                        let live_lazy = run_trace_lazy(
                            &mut live, 0, mode, &mut rng(p), max_steps, &mut NoProbe,
                        );
                        prop_assert_eq!(&live_lazy, &asy, "{}: live cursor", name);
                        sums = (sums.0 + sync.rounds as f64, sums.1 + asy.time);
                        done = (done.0 && sync.completed, done.1 && asy.completed);
                        reach = reach.max(asy.time).max(sync.rounds.saturating_sub(1) as f64);
                    }
                    let k = protos.len() as f64;
                    let rec = live.trace();
                    prop_assert_eq!(rec.initial(), eager.initial(), "{}", name);
                    prop_assert!(rec.len() <= eager.len(), "{}", name);
                    prop_assert_eq!(
                        rec.steps().collect::<Vec<_>>(),
                        eager.steps().take(rec.len()).collect::<Vec<_>>(),
                        "{}: not a prefix", name
                    );
                    let steps = eager.times().partition_point(|&time| time <= reach);
                    prop_assert!(steps <= rec.len(), "{}: replays read past the recording", name);
                    prop_assert_eq!(&live.finish(), &eager, "{}: finished recording", name);
                    let paired = (sums.0 / k, done.0, sums.1 / k, done.1);
                    expected.push((paired, steps));
                }
                let report = SimSpec::on_graph(&g)
                    .protocol(Protocol::push_pull_async())
                    .topology(Topology::Model(model))
                    .coupled(true)
                    .antithetic(antithetic)
                    .trials(trials)
                    .seed(seed)
                    .horizon(horizon)
                    .max_steps(max_steps)
                    .max_rounds(max_rounds)
                    .build()
                    .expect("valid coupled spec")
                    .run();
                let got: Vec<(Paired, usize)> = report
                    .coupled_outcomes()
                    .expect("coupled report")
                    .iter()
                    .map(|o| {
                        ((o.sync_rounds, o.sync_completed, o.async_time, o.async_completed), o.trace_steps)
                    })
                    .collect();
                prop_assert_eq!(&got, &expected, "{} antithetic={}", name, antithetic);
            }
        }
    }
}
