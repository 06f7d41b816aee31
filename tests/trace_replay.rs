//! Record/replay invariants of the topology-trace layer.
//!
//! A recorded [`TopologyTrace`] is one realized topology evolution;
//! replaying it must be engine-independent. The library replays traces
//! only on the lockstep cursor ([`run_coupled_dynamic`]); these tests
//! hold it against the sequential engine over [`Replayer`], a
//! test-side [`TopologyModel`] that applies a trace's steps as due
//! events. They pin, for every topology model:
//!
//! * **byte-identical snapshot sequences** — the graphs the sequential
//!   engine walks while replaying a trace (captured after every applied
//!   step by a probe model) are exactly the trace's own materialized
//!   sequence, and the cursor applies the same number of steps;
//! * **seed-for-seed replay** — the sequential replay and the cursor
//!   consume the protocol RNG identically (same outcome, same final RNG
//!   state), and the spec layer, which replays every trace on the
//!   cursor, inherits this (its coupled trials are the sequential
//!   replays, bit for bit);
//! * **fixed point** — recording a replay reproduces the trace exactly
//!   (`record(replay(T)) == T`), so traces are closed under replay;
//! * **on-demand recording** — a coupled trial that records its trace
//!   only as far as its replays read returns what replays of the trace
//!   recorded eagerly to the horizon return, and what it recorded is a
//!   prefix of that eager trace;
//! * **lockstep** — the halves of a coupled trial, run together on one
//!   graph, return what separate replays return, seed for seed.

use std::sync::Arc;

use proptest::prelude::*;
use rumor_spreading::core::dynamic::{
    run_dynamic_with, Adversary, DynamicModel, EdgeMarkov, Mobility, NodeChurn, RandomWalk, Rewire,
    SnapshotFamily,
};
use rumor_spreading::core::engine::trace::{
    run_coupled_dynamic, run_sync_dynamic, CoupledReplays, TopologyTrace, TraceRecording, TraceRef,
    TraceStep,
};
use rumor_spreading::core::engine::TopologyModel;
use rumor_spreading::core::spec::{Protocol, SimSpec, Topology};
use rumor_spreading::core::{AsyncOutcome, Mode, NoProbe, RunCaches, SpreadConfig};
use rumor_spreading::graph::dynamic::MutableGraph;
use rumor_spreading::graph::{generators, Graph};
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
) -> AsyncOutcome {
    run_dynamic_with(g, &SpreadConfig::new(0), state, rng, max_steps, &mut NoProbe)
}

/// One asynchronous replay of `trace` on the cursor: the lockstep replay
/// with a single asynchronous half.
fn run_cursor<'a>(
    trace: impl Into<TraceRef<'a>>,
    config: &SpreadConfig,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
) -> AsyncOutcome {
    let rngs = std::slice::from_mut(rng);
    let mut out = run_coupled_dynamic(trace, config, &mut [], rngs, 0, max_steps);
    out.asynchronous.pop().expect("one asynchronous replay")
}

/// Applies one recorded step, in the order the trace documents: remove,
/// deactivate, activate, add.
fn apply(net: &mut MutableGraph, step: &TraceStep<'_>) {
    for &(u, v) in step.removed {
        assert!(net.remove_edge(u, v), "trace removes an absent edge ({u}, {v})");
    }
    for &v in step.deactivated {
        net.deactivate(v);
    }
    for &v in step.activated {
        net.activate(v);
    }
    for &(u, v) in step.added {
        assert!(net.add_edge(u, v), "trace adds a present edge ({u}, {v})");
    }
}

/// A sealed trace as a deterministic [`TopologyModel`]: each step is due
/// at its recorded time and applies its diff verbatim. It consumes no
/// randomness, so the sequential engine over it draws only protocol
/// randomness, which is what the cursor draws.
struct Replayer<'a> {
    trace: &'a TopologyTrace,
    steps: Vec<TraceStep<'a>>,
    /// Steps applied so far.
    cursor: usize,
}

impl<'a> Replayer<'a> {
    fn new(trace: &'a TopologyTrace) -> Self {
        Replayer { trace, steps: trace.steps().collect(), cursor: 0 }
    }
}

impl TopologyModel for Replayer<'_> {
    fn init(&mut self, g: &Graph, net: &mut MutableGraph, _rng: &mut Xoshiro256PlusPlus) -> usize {
        assert_eq!(g.node_count(), self.trace.node_count(), "trace recorded on another graph");
        self.cursor = 0;
        net.replace_edges_with(self.trace.initial());
        0
    }

    fn next_due(&mut self) -> f64 {
        self.steps.get(self.cursor).map_or(f64::INFINITY, |step| step.time)
    }

    fn apply(&mut self, _t: f64, net: &mut MutableGraph, _rng: &mut Xoshiro256PlusPlus) {
        apply(net, &self.steps[self.cursor]);
        self.cursor += 1;
    }
}

/// The trace's full snapshot sequence: the initial graph, then the graph
/// after each step. Inactive nodes appear isolated.
fn snapshots(trace: &TopologyTrace) -> Vec<Graph> {
    let mut net = MutableGraph::from_graph(trace.initial());
    let after = trace.steps().map(|step| {
        apply(&mut net, &step);
        net.to_graph()
    });
    std::iter::once(trace.initial().clone()).chain(after).collect()
}

/// Whether `rec` holds `eager`'s initial graph and a prefix of its steps.
fn is_prefix(rec: &TopologyTrace, eager: &TopologyTrace) -> bool {
    rec.initial() == eager.initial()
        && rec.len() <= eager.len()
        && rec.steps().zip(eager.steps()).all(|(a, b)| a == b)
}
/// The six topology models (node churn exercises the activation half
/// of the step diffs).
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
    inner: Replayer<'a>,
    snaps: Vec<Graph>,
}

impl<'a> SnapshotProbe<'a> {
    fn new(trace: &'a TopologyTrace) -> Self {
        Self { inner: Replayer::new(trace), snaps: Vec::new() }
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

/// Replaying one recorded trace through the sequential engine and the
/// cursor walks byte-identical snapshot sequences — the sequential
/// engine's observed graphs are exactly a prefix of the trace's
/// materialized sequence, and the cursor, with identical RNG
/// consumption, walks the same prefix.
#[test]
fn snapshot_sequences_are_byte_identical_across_engines() {
    let g = test_graph();
    for (name, model) in all_models() {
        let trace = record(&g, &model, 5, 20.0);
        assert!(!trace.is_empty(), "{name}");
        let full = snapshots(&trace);

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
        let lazy = run_cursor(&trace, &SpreadConfig::new(0), &mut c, 1_000_000);
        assert_eq!(lazy, seq, "{name}: cursor engine diverged");
        assert_eq!(a.next_u64(), c.next_u64(), "{name}: cursor RNG state diverged");
        assert_eq!(
            lazy.topology_events as usize,
            seq_probe.snaps.len(),
            "{name}: cursor applied a different step count"
        );
    }
}

/// Replay of a replay is a fixed point — re-recording a replayed trace
/// reproduces it exactly, initial graph, step diffs, times and all.
#[test]
fn replay_of_a_replay_is_a_fixed_point() {
    let g = test_graph();
    for (name, model) in all_models() {
        let t1 = record(&g, &model, 9, 15.0);
        let t2 =
            TopologyTrace::record(&g, 0, &mut Replayer::new(&t1), &mut rng(1234), t1.horizon());
        assert_eq!(t2, t1, "{name}: first replay drifted");
        let t3 =
            TopologyTrace::record(&g, 0, &mut Replayer::new(&t2), &mut rng(4321), t2.horizon());
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
            let seq = run_seq(&g, &mut Replayer::new(&trace), &mut rng(proto_seed), max_steps);
            let sync = run_sync_dynamic(
                &trace,
                &SpreadConfig::new(0).with_mode(mode),
                &mut rng(proto_seed),
                max_rounds,
            );
            assert_eq!(
                (o.sync_rounds, o.sync_completed, o.async_time, o.async_completed),
                (sync.rounds as f64, sync.completed, seq.time, seq.completed),
                "{name}: the coupled trial is not the sequential replay"
            );
        }
    }
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
/// been replayed before, also through one replayer run twice (replays
/// do not mutate the trace, and a replayer restarts on `init`).
#[test]
fn replays_are_repeatable() {
    let g = test_graph();
    let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0));
    let trace = record(&g, &model, 33, 25.0);
    let mut replayer = Replayer::new(&trace);
    let first = run_seq(&g, &mut replayer, &mut rng(8), 1_000_000);
    let second = run_seq(&g, &mut replayer, &mut rng(8), 1_000_000);
    assert_eq!(first, second);
    assert_eq!(replayer.cursor as u64, second.topology_events);
    // A different protocol seed spreads differently over the SAME
    // topology realization — the whole point of the trace layer.
    let third = run_seq(&g, &mut Replayer::new(&trace), &mut rng(9), 1_000_000);
    assert_ne!(first.informed_time, third.informed_time);
    assert!(first.topology_events > 0);
}

/// The lockstep replays of one coupled trial on `trace`, one synchronous
/// and one asynchronous half per protocol seed, with every half's final
/// RNG word.
fn lockstep(
    trace: TraceRef<'_>,
    protos: &[u64],
    max_rounds: u64,
    max_steps: u64,
) -> (CoupledReplays, Vec<u64>) {
    let rngs = || protos.iter().map(|&p| rng(p)).collect::<Vec<_>>();
    let (mut sync_rngs, mut async_rngs) = (rngs(), rngs());
    let out = run_coupled_dynamic(
        trace,
        &SpreadConfig::new(0),
        &mut sync_rngs,
        &mut async_rngs,
        max_rounds,
        max_steps,
    );
    let words = sync_rngs.iter_mut().chain(&mut async_rngs).map(|r| r.next_u64()).collect();
    (out, words)
}

/// The furthest time any replay of a coupled trial read: its last
/// asynchronous tick, or `r − 1` after `r` synchronous rounds.
fn reach(replays: &CoupledReplays) -> f64 {
    let sync = replays.sync.iter().map(|s| s.rounds.saturating_sub(1) as f64);
    sync.chain(replays.asynchronous.iter().map(|a| a.time)).fold(0.0, f64::max)
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
    /// (sync and cursor) records a prefix of the eager trace that holds
    /// every step the replays read.
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
                        // The asynchronous reference is the sequential
                        // engine over a replayer of the eager trace, not
                        // the lockstep loop. The synchronous one is a
                        // one-half replay on its own graph; the goldens
                        // `specs/sync_walk.expected` and
                        // `specs/coupled_anti_walk.expected`, captured
                        // before the lockstep loop existed, pin its rounds.
                        let sync = run_sync_dynamic(&eager, &SpreadConfig::new(0).with_mode(mode), &mut rng(p), max_rounds);
                        let asy = run_seq(&g, &mut Replayer::new(&eager), &mut rng(p), max_steps);
                        let live_sync = run_sync_dynamic(&mut live, &SpreadConfig::new(0).with_mode(mode), &mut rng(p), max_rounds);
                        prop_assert_eq!(&live_sync, &sync, "{}: live sync", name);
                        let live_cursor =
                            run_cursor(&mut live, &SpreadConfig::new(0).with_mode(mode), &mut rng(p), max_steps);
                        prop_assert_eq!(&live_cursor, &asy, "{}: live cursor", name);
                        sums = (sums.0 + sync.rounds as f64, sums.1 + asy.time);
                        done = (done.0 && sync.completed, done.1 && asy.completed);
                        reach = reach.max(asy.time).max(sync.rounds.saturating_sub(1) as f64);
                    }
                    let k = protos.len() as f64;
                    prop_assert!(is_prefix(live.trace(), &eager), "{}: not a prefix", name);
                    let steps = eager.times().partition_point(|&time| time <= reach);
                    prop_assert!(steps <= live.trace().len(), "{}: replays read past the recording", name);
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

    /// For every model, antithetic on and off, and a sealed trace, a live
    /// recording and a warm one (resumed after other replays read it, as
    /// a trace-cache hit is), the lockstep trial equals separate replays
    /// of its halves seed for seed: the same outcomes, the same final RNG
    /// state of every half, the same reach. A cache-bound
    /// `SimSpec` counts the same `trace_steps` on a cold cache and on
    /// one that a longer antithetic run warmed.
    #[test]
    fn lockstep_trials_equal_separate_replays(seed in 0u64..1_000_000) {
        let g = test_graph();
        let (horizon, max_steps, max_rounds) = (40.0, 1_000_000, 50_000);
        let mode = Mode::PushPull;
        let mut seeds = rng(seed);
        for (name, model) in all_models() {
            let (trace_seed, proto_seed) = (seeds.next_u64(), seeds.next_u64());
            let eager = record(&g, &model, trace_seed, horizon);
            let start = || TraceRecording::start(&g, 0, model.build_state(), rng(trace_seed), horizon);
            for antithetic in [false, true] {
                let protos = if antithetic { vec![proto_seed, !proto_seed] } else { vec![proto_seed] };
                // Each half alone, on its own graph and RNG.
                let mut separate = CoupledReplays { sync: Vec::new(), asynchronous: Vec::new() };
                let mut sync_words = Vec::new();
                let mut async_words = Vec::new();
                for &p in &protos {
                    let mut r = rng(p);
                    separate.sync.push(run_sync_dynamic(&eager, &SpreadConfig::new(0).with_mode(mode), &mut r, max_rounds));
                    sync_words.push(r.next_u64());
                    let mut r = rng(p);
                    separate.asynchronous.push(run_seq(&g, &mut Replayer::new(&eager), &mut r, max_steps));
                    async_words.push(r.next_u64());
                }
                let words = [sync_words, async_words].concat();
                let reach_alone = reach(&separate);
                let steps = eager.times().partition_point(|&time| time <= reach_alone);

                let mut live = start();
                let mut warm = start();
                for w in 0..3 {
                    let pull = SpreadConfig::new(0).with_mode(Mode::Pull);
                    run_coupled_dynamic(&mut warm, &pull, &mut [rng(w)], &mut [rng(w)], max_rounds, max_steps);
                }
                let traces: [(&str, TraceRef<'_>); 3] =
                    [("sealed", (&eager).into()), ("live", (&mut live).into()), ("warm", (&mut warm).into())];
                for (kind, trace) in traces {
                    let (together, together_words) = lockstep(trace, &protos, max_rounds, max_steps);
                    prop_assert_eq!(&together, &separate, "{} {} antithetic={}", name, kind, antithetic);
                    prop_assert_eq!(&together_words, &words, "{} {}: RNG state", name, kind);
                    prop_assert_eq!(reach(&together), reach_alone, "{} {}: reach", name, kind);
                }
                prop_assert!(live.trace().len() >= steps, "{}: live recording fell short", name);
                prop_assert!(is_prefix(live.trace(), &eager), "{}: not a prefix", name);
            }

            // The spec layer on a cold cache, then on one warmed by the
            // antithetic run (which reads at least as far).
            let caches = Arc::new(RunCaches::new());
            let spec = |antithetic: bool| {
                SimSpec::on_graph(&g)
                    .protocol(Protocol::push_pull_async())
                    .topology(Topology::Model(model))
                    .coupled(true)
                    .antithetic(antithetic)
                    .trials(3)
                    .seed(seed)
                    .horizon(horizon)
                    .max_steps(max_steps)
                    .max_rounds(max_rounds)
            };
            let cold = spec(false).build().expect("valid coupled spec").run();
            spec(true).build_cached(&caches).expect("valid coupled spec").run();
            let warmed = spec(false).build_cached(&caches).expect("valid coupled spec").run();
            prop_assert_eq!(&warmed.coupled, &cold.coupled, "{}: warm cache", name);
            prop_assert_eq!(warmed.telemetry.trace_steps, cold.telemetry.trace_steps, "{}", name);
        }
    }
}
