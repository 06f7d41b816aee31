//! Topology-trace record/replay: one churn realization, many runs.
//!
//! The paper's proofs are **coupling arguments**: two processes driven
//! by shared randomness so their spreading times compare pathwise. The
//! dynamic engines could not express that — every run drew its own
//! topology evolution from its own RNG stream, so E20's sync-vs-async
//! comparison ran *independent* realizations. This module closes the
//! gap:
//!
//! * [`TopologyTrace`] — a recorded topology realization: the initial
//!   graph (after model `init`) plus every applied change as a
//!   [`TraceStep`] diff (time, edges removed/added, nodes
//!   deactivated/activated). Traces are recorded either standalone
//!   ([`TopologyTrace::record`]: the model's event stream is driven on
//!   its own, with the informed view frozen to the source — an
//!   *oblivious* realization, the only kind a sync run can share) or
//!   from inside any engine run ([`TraceRecorder`]).
//! * [`TraceReplayer`] — the trace as a deterministic
//!   [`TopologyModel`]: replay consumes **no randomness**, so one
//!   recorded realization can drive arbitrarily many protocol runs —
//!   sequential ([`crate::dynamic::run_dynamic_with`]), sharded
//!   ([`crate::engine::run_dynamic_sharded_with`]), the cursor engine
//!   below — each with its own protocol RNG.
//! * [`run_trace_lazy`] — a queue-free cursor engine over a trace: no
//!   pending topology events at all, steps are applied when the next
//!   protocol tick passes them. It consumes the RNG in exactly the
//!   sequential replay's order, so it replays `run_dynamic_with` over
//!   the trace's replayer **seed-for-seed** (pinned in
//!   `tests/trace_replay.rs`).
//! * [`run_sync_dynamic`] — the synchronous-rounds protocol on the
//!   *same* trace, snapshotting the evolving graph at round boundaries
//!   (round `r` sees every change up to time `r − 1`; one round = one
//!   time unit, footnote 3 of the paper). This is what makes the
//!   sync/async comparison of E23 **paired**: both protocols watch the
//!   identical topology realization.
//!
//! Replay past the recorded horizon freezes the topology (no further
//! steps exist); record with a horizon comfortably above the expected
//! spreading time. No-op model events (e.g. rejected random-walk
//! steps) are dropped at recording time, so a trace's step count is
//! the number of *effective* topology changes, not the model's event
//! count.

use rumor_graph::dynamic::{GraphChange, MutableGraph};
use rumor_graph::{Graph, Node};
use rumor_sim::events::{EventQueue, RngContract};
use rumor_sim::rng::Xoshiro256PlusPlus;

use crate::dynamic::{DynamicModel, DynamicOutcome};
use crate::engine::scheduler::TopoDriver;
use crate::engine::source::EventSource;
use crate::engine::topology::{InformedView, RateImpact, TopoEvent, TopologyModel};
use crate::engine::TickSource;
use crate::mode::Mode;
use crate::outcome::{SyncOutcome, NEVER_ROUND};

/// One applied topology change: everything a single model event did to
/// the graph, as a diff against the state just before it.
///
/// Replay applies the four lists in a fixed order — remove, deactivate,
/// activate, add — which is valid for every model in this workspace
/// (an event never deactivates one node and wires up another).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// Simulation time of the change.
    pub time: f64,
    /// Undirected edges removed, as `(min, max)` pairs, ascending.
    pub removed: Vec<(Node, Node)>,
    /// Nodes that left the network, ascending.
    pub deactivated: Vec<Node>,
    /// Nodes that (re)joined the network, ascending.
    pub activated: Vec<Node>,
    /// Undirected edges inserted, as `(min, max)` pairs, ascending.
    pub added: Vec<(Node, Node)>,
}

impl TraceStep {
    /// Whether the event changed nothing (dropped at recording time).
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty()
            && self.deactivated.is_empty()
            && self.activated.is_empty()
            && self.added.is_empty()
    }

    /// The distinct nodes whose incident edges or activation changed.
    fn touched_nodes(&self) -> Vec<Node> {
        let mut nodes: Vec<Node> = self
            .removed
            .iter()
            .chain(self.added.iter())
            .flat_map(|&(u, v)| [u, v])
            .chain(self.deactivated.iter().copied())
            .chain(self.activated.iter().copied())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// The sharded engine's rate impact of this step.
    fn impact(&self) -> RateImpact {
        let touched = self.touched_nodes();
        if touched.len() <= 3 {
            RateImpact::nodes(&touched)
        } else {
            RateImpact::Global
        }
    }
}

/// Applies one recorded step to a mutable graph.
fn apply_step(net: &mut MutableGraph, step: &TraceStep) {
    for &(u, v) in &step.removed {
        let removed = net.remove_edge(u, v);
        debug_assert!(removed, "trace removes an absent edge ({u}, {v})");
    }
    for &v in &step.deactivated {
        net.deactivate(v);
    }
    for &v in &step.activated {
        net.activate(v);
    }
    for &(u, v) in &step.added {
        let added = net.add_edge(u, v);
        debug_assert!(added, "trace adds a present edge ({u}, {v})");
    }
}

/// Builds a step from the graph's change journal (everything one model
/// event did, in mutation order; see [`MutableGraph::track_changes`]).
///
/// This replaced the old shadow-graph diff: instead of re-scanning
/// adjacency after every event — O(n + m) whenever the event reported a
/// global rate impact, the dominant cost of recording the mobility and
/// rewire models — the graph itself journals effective mutations and
/// the step is assembled in O(changes).
///
/// Assumes no single event both applies and undoes the same change
/// (no model in this workspace does; the journal would faithfully
/// record the round trip, where the old diff recorded nothing).
fn step_from_changes(changes: &[GraphChange], t: f64) -> TraceStep {
    let mut removed = Vec::new();
    let mut added = Vec::new();
    let mut deactivated = Vec::new();
    let mut activated = Vec::new();
    for &c in changes {
        match c {
            GraphChange::EdgeAdded(u, v) => added.push((u, v)),
            GraphChange::EdgeRemoved(u, v) => removed.push((u, v)),
            GraphChange::NodeDeactivated(v) => deactivated.push(v),
            GraphChange::NodeActivated(v) => activated.push(v),
        }
    }
    removed.sort_unstable();
    added.sort_unstable();
    deactivated.sort_unstable();
    activated.sort_unstable();
    debug_assert!(
        !removed.iter().any(|e| added.binary_search(e).is_ok())
            && !deactivated.iter().any(|v| activated.binary_search(v).is_ok()),
        "one event must not apply and undo the same change"
    );
    TraceStep { time: t, removed, deactivated, activated, added }
}

/// A recorded topology realization: the post-`init` starting graph and
/// every effective change, in time order. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyTrace {
    initial: Graph,
    steps: Vec<TraceStep>,
    horizon: f64,
}

impl TopologyTrace {
    /// Records the evolution of the model `state` on base graph `g`
    /// over `[0, horizon]`, standalone (no protocol interleaved): the
    /// model's events are driven on their own, with the informed view
    /// frozen to `{source}` — informed-state-dependent models (the
    /// frontier adversary) are recorded **obliviously**, the only
    /// semantics under which a synchronous and an asynchronous run can
    /// share one realization.
    ///
    /// `contract` picks the stream: `V1` drives the model's eager event
    /// queue, `V2` draws the realization through the superposition
    /// scheduler — a different, contract-pinned stream of the same law.
    /// A built-in model records through
    /// [`DynamicModel::build_state`]. Recording a [`TraceReplayer`]
    /// reproduces its trace exactly (replay-of-replay is a fixed point,
    /// pinned in `tests/trace_replay.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or `horizon` is negative or
    /// not finite.
    pub fn record<M: TopologyModel + ?Sized>(
        contract: RngContract,
        g: &Graph,
        source: Node,
        state: &mut M,
        rng: &mut Xoshiro256PlusPlus,
        horizon: f64,
    ) -> TopologyTrace {
        let n = g.node_count();
        assert!((source as usize) < n, "source out of range");
        assert!(horizon >= 0.0 && horizon.is_finite(), "horizon must be finite and >= 0");
        let mut net = MutableGraph::from_graph(g);
        let mut driver = TopoDriver::new(contract, g, &mut net, state, rng);
        if state.enable_informed_tracking() {
            // Oblivious recording: the informed set is frozen to the
            // source for the whole realization.
            state.note_informed(source, &net);
        }
        let initial = net.to_graph();
        debug_assert_eq!(net.active_count(), n, "models do not deactivate during init");
        net.track_changes(true);
        let mut steps = Vec::new();
        let informed = |v: Node| v == source;
        loop {
            let t = driver.next_time(rng);
            if !t.is_finite() || t > horizon {
                break;
            }
            let (te, _impact) = driver.step(state, &mut net, &informed, rng);
            let step = step_from_changes(net.changes(), te);
            net.clear_changes();
            if !step.is_empty() {
                steps.push(step);
            }
        }
        TopologyTrace { initial, steps, horizon }
    }

    /// Number of nodes of the recorded network.
    pub fn node_count(&self) -> usize {
        self.initial.node_count()
    }

    /// The starting topology (after model `init` — for mobility this is
    /// the proximity graph of the drawn positions, not the base graph).
    pub fn initial(&self) -> &Graph {
        &self.initial
    }

    /// The recorded steps, in time order.
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// Number of recorded (effective) topology changes.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the realization contains no changes.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The recorded time horizon; replay freezes the topology beyond it.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Materializes the full snapshot sequence: `snapshots()[0]` is the
    /// initial graph, `snapshots()[i + 1]` the graph after step `i`.
    /// Inactive nodes appear isolated. Every engine replaying this
    /// trace walks exactly this sequence (prefix up to where it stops).
    pub fn snapshots(&self) -> Vec<Graph> {
        let mut net = MutableGraph::from_graph(&self.initial);
        let mut out = Vec::with_capacity(self.steps.len() + 1);
        out.push(self.initial.clone());
        for step in &self.steps {
            apply_step(&mut net, step);
            out.push(net.to_graph());
        }
        out
    }

    /// A deterministic [`TopologyModel`] that replays this trace.
    pub fn replayer(&self) -> TraceReplayer<'_> {
        TraceReplayer { trace: self, cursor: 0 }
    }
}

/// The trace as a [`TopologyModel`]: schedules each recorded step at
/// its recorded time and applies the recorded diff verbatim. Consumes
/// **no randomness**, so the protocol RNG stream of a replaying engine
/// is pure protocol randomness — the common-random-numbers half of the
/// coupled runs.
#[derive(Debug, Clone)]
pub struct TraceReplayer<'a> {
    trace: &'a TopologyTrace,
    cursor: usize,
}

impl TraceReplayer<'_> {
    /// Number of steps applied so far.
    pub fn applied(&self) -> usize {
        self.cursor
    }
}

impl TopologyModel for TraceReplayer<'_> {
    fn init(
        &mut self,
        g: &Graph,
        net: &mut MutableGraph,
        queue: &mut EventQueue<TopoEvent>,
        _rng: &mut Xoshiro256PlusPlus,
    ) {
        assert_eq!(
            g.node_count(),
            self.trace.node_count(),
            "trace was recorded on a different node count"
        );
        // Reset the cursor so one replayer can serve several engine
        // runs back to back.
        self.cursor = 0;
        net.replace_edges_with(&self.trace.initial);
        if let Some(first) = self.trace.steps.first() {
            queue.push(first.time, TopoEvent::Replay(0));
        }
    }

    fn apply(
        &mut self,
        event: TopoEvent,
        _t: f64,
        net: &mut MutableGraph,
        _informed: InformedView<'_>,
        queue: &mut EventQueue<TopoEvent>,
        _rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        let TopoEvent::Replay(i) = event else {
            unreachable!("a replayer schedules only replay steps");
        };
        debug_assert_eq!(i as usize, self.cursor, "replay steps fire in order");
        let step = &self.trace.steps[i as usize];
        apply_step(net, step);
        self.cursor = i as usize + 1;
        if let Some(next) = self.trace.steps.get(self.cursor) {
            queue.push(next.time, TopoEvent::Replay(self.cursor as u32));
        }
        step.impact()
    }
}

/// Wraps any [`TopologyModel`] so that an ordinary engine run records
/// the realized topology evolution as a side effect; recover it with
/// [`into_trace`](Self::into_trace).
///
/// The recorder never reports memoryless edge rates (recording needs
/// the eager event stream), so a wrapped model always runs through the
/// event-queue path even where the lazy engine would have been
/// eligible.
pub struct TraceRecorder<'a> {
    inner: Box<dyn TopologyModel + 'a>,
    initial: Option<Graph>,
    steps: Vec<TraceStep>,
    last_time: f64,
}

impl<'a> TraceRecorder<'a> {
    /// A recorder around `model`'s run state.
    pub fn new(model: &DynamicModel) -> Self {
        Self::wrap(model.build_state())
    }

    /// A recorder around an existing model state.
    pub fn wrap(inner: Box<dyn TopologyModel + 'a>) -> Self {
        Self { inner, initial: None, steps: Vec::new(), last_time: 0.0 }
    }

    /// The recorded trace; the horizon is the last event's time.
    ///
    /// # Panics
    ///
    /// Panics if no engine run initialized the recorder.
    pub fn into_trace(self) -> TopologyTrace {
        let initial = self.initial.expect("recorder was never run through an engine");
        TopologyTrace { initial, steps: self.steps, horizon: self.last_time }
    }

    /// Reads the effective step of one applied/fired event off the
    /// graph's change journal.
    fn journal(&mut self, t: f64, net: &mut MutableGraph) {
        let step = step_from_changes(net.changes(), t);
        net.clear_changes();
        if !step.is_empty() {
            self.steps.push(step);
        }
        self.last_time = t;
    }
}

impl TopologyModel for TraceRecorder<'_> {
    fn init(
        &mut self,
        g: &Graph,
        net: &mut MutableGraph,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) {
        self.inner.init(g, net, queue, rng);
        self.initial = Some(net.to_graph());
        // Journal from here on: every applied event's step is read off
        // `net.changes()` instead of diffing against a shadow copy.
        net.track_changes(true);
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
        self.journal(t, net);
        impact
    }

    fn init_channels(
        &mut self,
        g: &Graph,
        net: &mut MutableGraph,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> usize {
        let channels = self.inner.init_channels(g, net, queue, rng);
        self.initial = Some(net.to_graph());
        net.track_changes(true);
        channels
    }

    fn channel_weight(&self, channel: usize) -> f64 {
        self.inner.channel_weight(channel)
    }

    fn fire(
        &mut self,
        channel: usize,
        t: f64,
        net: &mut MutableGraph,
        informed: InformedView<'_>,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        let impact = self.inner.fire(channel, t, net, informed, queue, rng);
        self.journal(t, net);
        impact
    }

    fn enable_informed_tracking(&mut self) -> bool {
        self.inner.enable_informed_tracking()
    }

    fn note_informed(&mut self, v: Node, net: &MutableGraph) {
        self.inner.note_informed(v, net);
    }
}

/// Runs the asynchronous protocol over a recorded trace with a
/// **queue-free cursor**: no pending topology events exist; before each
/// protocol tick the cursor applies every recorded step up to the tick
/// time (topology winning ties, like the merged stream). RNG
/// consumption — one `Exp(n)` draw per tick, then the node and neighbor
/// draws — is exactly the sequential replay's, so this engine replays
/// [`run_dynamic_with`](crate::run_dynamic_with) over
/// `trace.replayer()` under the same `contract` **seed-for-seed**. A
/// replayed trace has no stochastic topology channels, so the scheduler
/// half of the contract is moot here — but v2 also pins the adjacency
/// to order-relaxed mode, and the neighbor draws must read the same
/// permuted rows the v2 sequential replay sees.
///
/// # Panics
///
/// Panics if `source` is out of range for the trace.
pub fn run_trace_lazy(
    contract: RngContract,
    trace: &TopologyTrace,
    source: Node,
    mode: Mode,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
) -> DynamicOutcome {
    let n = trace.node_count();
    assert!((source as usize) < n, "source out of range");

    let mut informed_time = vec![f64::INFINITY; n];
    informed_time[source as usize] = 0.0;
    let mut informed_count = 1usize;
    if n == 1 {
        return DynamicOutcome {
            time: 0.0,
            steps: 0,
            topology_events: 0,
            completed: true,
            informed_time,
        };
    }
    let mut net = MutableGraph::from_graph(&trace.initial);
    if contract == RngContract::V2 {
        net.relax_neighbor_order();
    }
    let mut cursor = 0usize;
    let mut ticks = TickSource::new(n as f64);
    let mut t = 0.0;
    let mut steps = 0u64;
    let mut topology_events = 0u64;
    let mut completed = false;
    while steps < max_steps {
        let (tt, ()) = ticks.pop(rng).expect("tick stream is endless");
        while let Some(step) = trace.steps.get(cursor) {
            if step.time > tt {
                break;
            }
            apply_step(&mut net, step);
            cursor += 1;
            topology_events += 1;
        }
        t = tt;
        steps += 1;
        let v = rng.range_usize(n) as Node;
        if net.is_active(v) && net.degree(v) > 0 {
            let w = net.random_neighbor(v, rng);
            crate::asynchronous::exchange(mode, &mut informed_time, &mut informed_count, v, w, tt);
        }
        if informed_count == n {
            completed = true;
            break;
        }
    }
    DynamicOutcome { time: t, steps, topology_events, completed, informed_time }
}

/// Runs the **synchronous** push/pull/push–pull protocol on an evolving
/// topology given by a recorded trace: the round machinery of
/// [`crate::run_sync`], with the graph snapshotted at round boundaries
/// — round `r` runs on the topology as of time `r − 1` (one round
/// corresponds to one asynchronous time unit, footnote 3), generalizing
/// [`run_sync_rewire`](crate::dynamic::run_sync_rewire) from periodic
/// snapshots to arbitrary recorded evolutions. Nodes isolated (or
/// departed) in the current snapshot skip their contact that round.
///
/// Driving this and an asynchronous replay of the *same* trace with a
/// common protocol seed is the coupled comparison of E23.
///
/// # Panics
///
/// Panics if `source` is out of range for the trace.
pub fn run_sync_dynamic(
    trace: &TopologyTrace,
    source: Node,
    mode: Mode,
    rng: &mut Xoshiro256PlusPlus,
    max_rounds: u64,
) -> SyncOutcome {
    let n = trace.node_count();
    assert!((source as usize) < n, "source out of range");

    let mut informed_round = vec![NEVER_ROUND; n];
    informed_round[source as usize] = 0;
    let mut informed_count = 1usize;
    let mut informed_by_round = vec![1usize];
    if n == 1 {
        return SyncOutcome { rounds: 0, completed: true, informed_round, informed_by_round };
    }
    let mut net = MutableGraph::from_graph(&trace.initial);
    let mut cursor = 0usize;
    let mut rounds = 0u64;
    let mut completed = false;
    for r in 1..=max_rounds {
        rounds = r;
        let boundary = (r - 1) as f64;
        while let Some(step) = trace.steps.get(cursor) {
            if step.time > boundary {
                break;
            }
            apply_step(&mut net, step);
            cursor += 1;
        }
        crate::sync::exchange_round(r, mode, &mut informed_round, &mut informed_count, |v| {
            if !net.is_active(v) || net.degree(v) == 0 {
                None // isolated this snapshot: no contact this round
            } else {
                Some(net.random_neighbor(v, rng))
            }
        });
        informed_by_round.push(informed_count);
        if informed_count == n {
            completed = true;
            break;
        }
    }
    SyncOutcome { rounds, completed, informed_round, informed_by_round }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_graph::generators;

    use crate::dynamic::{
        run_dynamic_with, run_sync_rewire, Adversary, EdgeMarkov, Mobility, NodeChurn, RandomWalk,
        Rewire, SnapshotFamily,
    };
    use crate::obs::NoProbe;
    use crate::sync::run_sync;

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

    fn all_models() -> Vec<(&'static str, DynamicModel)> {
        vec![
            ("markov", DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))),
            ("rewire", DynamicModel::Rewire(Rewire::new(2.0, SnapshotFamily::Gnp { p: 0.15 }))),
            ("churn", DynamicModel::NodeChurn(NodeChurn::new(0.3, 1.0, 2))),
            ("walk", DynamicModel::RandomWalk(RandomWalk::new(1.0))),
            ("mobility", DynamicModel::Mobility(Mobility::new(1.0, 0.35, 0.15))),
            ("adversary", DynamicModel::Adversary(Adversary::new(1.0, 3, 1.0))),
        ]
    }

    #[test]
    fn recorded_steps_are_time_ordered_and_effective() {
        let g = generators::gnp_connected(32, 0.2, &mut rng(1), 100);
        for (name, model) in all_models() {
            let trace = record_v1(&g, &model, 2, 12.0);
            assert!(!trace.is_empty(), "{name}: no steps recorded");
            assert!(
                trace.steps().windows(2).all(|w| w[0].time <= w[1].time),
                "{name}: out-of-order steps"
            );
            for step in trace.steps() {
                assert!(!step.is_empty(), "{name}: no-op step recorded");
                assert!(step.time > 0.0 && step.time <= trace.horizon(), "{name}: bad time");
            }
        }
    }

    #[test]
    fn static_trace_is_empty_and_sync_matches_run_sync() {
        let g = generators::gnp_connected(32, 0.2, &mut rng(3), 100);
        let trace = record_v1(&g, &DynamicModel::Static, 4, 100.0);
        assert!(trace.is_empty());
        assert_eq!(trace.initial(), &g);
        let plain = run_sync(&g, 0, Mode::PushPull, &mut rng(5), 10_000);
        let traced = run_sync_dynamic(&trace, 0, Mode::PushPull, &mut rng(5), 10_000);
        assert_eq!(traced, plain, "empty trace must replay the static sync run seed-for-seed");
    }

    #[test]
    fn replay_walks_the_recorded_snapshots() {
        let g = generators::gnp_connected(32, 0.2, &mut rng(6), 100);
        for (name, model) in all_models() {
            let trace = record_v1(&g, &model, 7, 8.0);
            let snapshots = trace.snapshots();
            assert_eq!(snapshots.len(), trace.len() + 1, "{name}");
            assert_eq!(&snapshots[0], trace.initial(), "{name}");
            // Applying steps one by one through a replayer's own
            // primitive walks the same sequence.
            let mut net = MutableGraph::from_graph(trace.initial());
            for (i, step) in trace.steps().iter().enumerate() {
                apply_step(&mut net, step);
                assert_eq!(net.to_graph(), snapshots[i + 1], "{name} step {i}");
            }
        }
    }

    #[test]
    fn lazy_cursor_replays_sequential_replay_seed_for_seed() {
        let g = generators::gnp_connected(48, 0.15, &mut rng(8), 100);
        for (name, model) in all_models() {
            let trace = record_v1(&g, &model, 9, 30.0);
            let mut a = rng(10);
            let mut replay = trace.replayer();
            let seq = run_v1(&g, &mut replay, &mut a, 1_000_000);
            let mut b = rng(10);
            let lazy =
                run_trace_lazy(RngContract::V1, &trace, 0, Mode::PushPull, &mut b, 1_000_000);
            assert_eq!(lazy, seq, "{name}: cursor engine diverged");
            assert_eq!(a.next_u64(), b.next_u64(), "{name}: RNG state diverged");
            assert_eq!(replay.applied() as u64, seq.topology_events, "{name}: cursor drift");
        }
    }

    #[test]
    fn sync_dynamic_on_a_rewire_trace_matches_run_sync_rewire_snapshots() {
        // A rewire trace snapshots at times k, 2k, …; run_sync_rewire
        // redraws at rounds k+1, 2k+1, …. The trace-driven sync engine
        // must apply them at the same round boundaries (the snapshots
        // themselves differ — different RNG streams — so compare the
        // *round structure* via a period longer than the run).
        let g = generators::gnp_connected(48, 0.2, &mut rng(11), 100);
        let family = SnapshotFamily::Gnp { p: 0.2 };
        // Period beyond the run length: both engines never rewire, so
        // the runs coincide with the static protocol seed-for-seed.
        let model = DynamicModel::Rewire(Rewire::new(1_000.0, family));
        let trace = record_v1(&g, &model, 12, 100.0);
        assert!(trace.is_empty());
        let a = run_sync_dynamic(&trace, 0, Mode::PushPull, &mut rng(13), 10_000);
        let b = run_sync_rewire(&g, 0, Mode::PushPull, 1_000, family, &mut rng(13), 10_000);
        assert_eq!(a, b);
    }

    #[test]
    fn sync_dynamic_completes_under_all_models() {
        let g = generators::gnp_connected(48, 0.2, &mut rng(14), 100);
        for (name, model) in all_models() {
            let trace = record_v1(&g, &model, 15, 200.0);
            let out = run_sync_dynamic(&trace, 0, Mode::PushPull, &mut rng(16), 100_000);
            assert!(out.completed, "{name}: sync run censored");
            assert_eq!(*out.informed_by_round.last().unwrap(), 48, "{name}");
        }
    }

    #[test]
    fn recorder_round_trips_through_an_engine_run() {
        // Recording a replayer inside a live engine run reproduces the
        // prefix of the trace the run actually consumed.
        let g = generators::gnp_connected(32, 0.2, &mut rng(17), 100);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(2.0));
        let trace = record_v1(&g, &model, 18, 20.0);
        let mut recorder = TraceRecorder::wrap(Box::new(trace.replayer()));
        let out = run_v1(&g, &mut recorder, &mut rng(19), 1_000_000);
        let rerecorded = trace_prefix(&trace, out.topology_events as usize);
        let got = recorder.into_trace();
        assert_eq!(got.initial(), rerecorded.initial());
        assert_eq!(got.steps(), rerecorded.steps());
    }

    fn trace_prefix(trace: &TopologyTrace, len: usize) -> TopologyTrace {
        TopologyTrace {
            initial: trace.initial.clone(),
            steps: trace.steps[..len].to_vec(),
            horizon: trace.horizon,
        }
    }

    #[test]
    fn replay_of_replay_is_a_fixed_point() {
        let g = generators::gnp_connected(32, 0.2, &mut rng(20), 100);
        for (name, model) in all_models() {
            let t1 = record_v1(&g, &model, 21, 15.0);
            let t2 = TopologyTrace::record(
                RngContract::V1,
                &g,
                0,
                &mut t1.replayer(),
                &mut rng(99),
                t1.horizon(),
            );
            assert_eq!(t2, t1, "{name}: replay of a replay drifted");
        }
    }

    #[test]
    fn one_replayer_serves_consecutive_engine_runs() {
        // The cursor resets on init, so a single replayer can be
        // driven through several runs back to back (regression: stale
        // cursor state leaked across runs).
        let g = generators::gnp_connected(32, 0.2, &mut rng(26), 100);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0));
        let trace = record_v1(&g, &model, 27, 15.0);
        let mut replay = trace.replayer();
        let a = run_v1(&g, &mut replay, &mut rng(28), 1_000_000);
        let b = run_v1(&g, &mut replay, &mut rng(28), 1_000_000);
        assert_eq!(a, b);
        assert_eq!(replay.applied() as u64, b.topology_events);
    }

    #[test]
    fn v2_record_of_a_replay_reproduces_the_trace() {
        // A replayer consumes no randomness and reports no stochastic
        // channels, so recording it under the v2 contract walks the
        // same side-queue events as v1: the fixed point holds across
        // contracts.
        let g = generators::gnp_connected(32, 0.2, &mut rng(30), 100);
        for (name, model) in all_models() {
            let t1 = record_v1(&g, &model, 31, 15.0);
            let t2 = TopologyTrace::record(
                RngContract::V2,
                &g,
                0,
                &mut t1.replayer(),
                &mut rng(99),
                t1.horizon(),
            );
            assert_eq!(t2, t1, "{name}: v2 replay of a replay drifted");
        }
    }

    #[test]
    fn v2_record_produces_time_ordered_effective_steps() {
        let g = generators::gnp_connected(32, 0.2, &mut rng(33), 100);
        for (name, model) in all_models() {
            let trace = TopologyTrace::record(
                RngContract::V2,
                &g,
                0,
                model.build_state().as_mut(),
                &mut rng(34),
                12.0,
            );
            assert!(!trace.is_empty(), "{name}: no steps recorded");
            assert!(
                trace.steps().windows(2).all(|w| w[0].time <= w[1].time),
                "{name}: out-of-order steps"
            );
            for step in trace.steps() {
                assert!(!step.is_empty(), "{name}: no-op step recorded");
                assert!(step.time > 0.0 && step.time <= trace.horizon(), "{name}: bad time");
            }
        }
    }

    #[test]
    fn recorder_captures_a_v2_engine_run() {
        // The recorder journals channel fires like queue events: under
        // edge-Markov every fire is one effective flip, so the trace
        // length equals the run's topology-event count.
        let g = generators::gnp_connected(32, 0.2, &mut rng(35), 100);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(2.0));
        let mut recorder = TraceRecorder::new(&model);
        let out = crate::dynamic::run_dynamic_with(
            RngContract::V2,
            &g,
            0,
            Mode::PushPull,
            &mut recorder,
            &mut rng(36),
            1_000_000,
            &mut NoProbe,
        );
        assert!(out.completed);
        let trace = recorder.into_trace();
        assert_eq!(trace.len() as u64, out.topology_events);
        assert!(trace.steps().windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn replay_past_the_horizon_freezes_the_topology() {
        // Dense base: a handful of frozen-off edges cannot disconnect it.
        let g = generators::complete(16);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(0.05));
        let trace = record_v1(&g, &model, 23, 2.0);
        let out =
            run_trace_lazy(RngContract::V1, &trace, 0, Mode::PushPull, &mut rng(24), 10_000_000);
        assert!(out.completed);
        assert!(out.topology_events <= trace.len() as u64);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn record_rejects_infinite_horizon() {
        let g = generators::complete(4);
        record_v1(&g, &DynamicModel::Static, 25, f64::INFINITY);
    }
}
