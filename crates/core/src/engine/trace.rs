//! Topology-trace record/replay: one churn realization, many runs.
//!
//! The paper's proofs are **coupling arguments**: two processes driven
//! by shared randomness so their spreading times compare pathwise. An
//! engine that draws its topology evolution from its own RNG stream
//! cannot express that: a sync-vs-async comparison over such runs is an
//! independent-runs design. This module closes the gap:
//!
//! * [`TopologyTrace`] — a recorded topology realization: the initial
//!   graph (after model `init`) plus every applied change as a
//!   [`TraceStep`] diff (time, edges removed/added, nodes
//!   deactivated/activated). Traces are recorded standalone
//!   ([`TopologyTrace::record`]): the model's event stream is driven on
//!   its own, with the informed set frozen to the source — an
//!   *oblivious* realization, the only kind a sync run can share.
//! * [`TraceRecording`] — the same standalone recording, resumable: it
//!   keeps its tail (graph, event driver, model state, trace RNG) and
//!   records more only when a replay asks for a time past what is
//!   recorded. Its steps are always a prefix of the eager
//!   [`TopologyTrace::record`] trace with the same inputs, so a coupled
//!   trial pays only for the realization its replays read.
//! * [`TraceReplayer`] — the trace as a deterministic
//!   [`TopologyModel`]: replay consumes **no randomness**, so one
//!   recorded realization can drive arbitrarily many protocol runs —
//!   sequential ([`crate::dynamic::run_dynamic_with`]) or the cursor
//!   engine below — each with its own protocol RNG.
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
//!   identical topology realization. It is also how an uncoupled
//!   synchronous run executes on any topology model: it records the
//!   model's realization on demand and replays it here.
//!
//! All three replays read steps through one accessor,
//! `TraceRef::step_by`, over either a sealed trace or a live
//! recording. The horizon is a cap, not a cost: replay past it freezes
//! the topology (no further steps exist), and a live recording never
//! records past it. No-op model events (e.g. rejected random-walk
//! steps) are dropped at recording time, so a trace's step count is
//! the number of *effective* topology changes, not the model's event
//! count.
//!
//! Steps are stored flat, struct-of-arrays: one `times` array, per-step
//! end offsets, one edge buffer (each step's removed edges, then its
//! added edges) and one node buffer (each step's deactivated nodes,
//! then its activated nodes). Recording appends an event's change
//! journal straight into the buffers and sorts each appended group in
//! place, so a step costs no heap allocation beyond the amortized growth
//! of the shared buffers. A [`TraceStep`] is a borrowed `Copy` view of
//! one step; the replays read steps only through it.

use rumor_graph::dynamic::{GraphChange, MutableGraph};
use rumor_graph::{Graph, Node};
use rumor_sim::rng::Xoshiro256PlusPlus;

use crate::dynamic::DynamicOutcome;
use crate::engine::scheduler::{TickSource, TopoDriver};
use crate::engine::topology::TopologyModel;
use crate::mode::Mode;
use crate::obs::{NoProbe, Probe, ProbeEvent};
use crate::outcome::SyncOutcome;
use crate::spread::SpreadConfig;
use crate::sync::Rounds;

/// One applied topology change: everything a single model event did to
/// the graph, as a diff against the state just before it — a borrowed
/// view into the trace's flat buffers (see the module docs).
///
/// Replay applies the four lists in a fixed order — remove, deactivate,
/// activate, add — which is valid for every model in this workspace
/// (an event never deactivates one node and wires up another).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStep<'a> {
    /// Simulation time of the change.
    pub time: f64,
    /// Undirected edges removed, as `(min, max)` pairs, ascending.
    pub removed: &'a [(Node, Node)],
    /// Nodes that left the network, ascending.
    pub deactivated: &'a [Node],
    /// Nodes that (re)joined the network, ascending.
    pub activated: &'a [Node],
    /// Undirected edges inserted, as `(min, max)` pairs, ascending.
    pub added: &'a [(Node, Node)],
}

impl TraceStep<'_> {
    /// Whether the event changed nothing (never true of a stored step:
    /// empty events are dropped at recording time).
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty()
            && self.deactivated.is_empty()
            && self.activated.is_empty()
            && self.added.is_empty()
    }
}

/// Applies one recorded step to a mutable graph.
fn apply_step(net: &mut MutableGraph, step: TraceStep<'_>) {
    for &(u, v) in step.removed {
        let removed = net.remove_edge(u, v);
        debug_assert!(removed, "trace removes an absent edge ({u}, {v})");
    }
    for &v in step.deactivated {
        net.deactivate(v);
    }
    for &v in step.activated {
        net.activate(v);
    }
    for &(u, v) in step.added {
        let added = net.add_edge(u, v);
        debug_assert!(added, "trace adds a present edge ({u}, {v})");
    }
}

/// Where the steps up to some index end in the [`StepStore`] buffers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct StepEnds {
    /// End of the last step's removed edges (its added edges follow).
    removed: u32,
    /// End of the last step's edges.
    edges: u32,
    /// End of the last step's deactivated nodes (its activated follow).
    deactivated: u32,
    /// End of the last step's nodes.
    nodes: u32,
}

/// Every recorded step in struct-of-arrays form: one time per step, one
/// edge buffer holding each step's removed edges and then its added
/// edges, one node buffer holding each step's deactivated nodes and
/// then its activated nodes, and the per-step end offsets into both.
/// A step costs no heap allocation beyond the amortized growth of the
/// shared buffers, and replay reads a step as a [`TraceStep`] view.
#[derive(Debug, Clone, PartialEq)]
struct StepStore {
    times: Vec<f64>,
    /// `ends[i]` holds where steps `0..i` end, so step `i` spans
    /// `ends[i]..ends[i + 1]`; `ends[0]` is all zeros.
    ends: Vec<StepEnds>,
    edges: Vec<(Node, Node)>,
    nodes: Vec<Node>,
}

impl StepStore {
    fn new() -> Self {
        StepStore {
            times: Vec::new(),
            ends: vec![StepEnds::default()],
            edges: Vec::new(),
            nodes: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.times.len()
    }

    /// The `i`-th step if it happens at or before `t`.
    #[inline]
    fn get_by(&self, i: usize, t: f64) -> Option<TraceStep<'_>> {
        let &time = self.times.get(i)?;
        (time <= t).then(|| self.view(i, time))
    }

    /// Step `i` (which must exist), happening at `time`.
    #[inline]
    fn view(&self, i: usize, time: f64) -> TraceStep<'_> {
        let (from, to) = (self.ends[i], self.ends[i + 1]);
        let at = |offset: u32| offset as usize;
        TraceStep {
            time,
            removed: &self.edges[at(from.edges)..at(to.removed)],
            deactivated: &self.nodes[at(from.nodes)..at(to.deactivated)],
            activated: &self.nodes[at(to.deactivated)..at(to.nodes)],
            added: &self.edges[at(to.removed)..at(to.edges)],
        }
    }

    fn iter(&self) -> impl ExactSizeIterator<Item = TraceStep<'_>> + '_ {
        self.times.iter().enumerate().map(|(i, &time)| self.view(i, time))
    }

    /// Appends the step of one event at time `t`, read off the graph's
    /// change journal (everything the event did, in mutation order; see
    /// [`MutableGraph::track_changes`]). An event that changed nothing
    /// appends nothing. Costs O(changes), each list sorted in place: the
    /// graph journals its effective mutations, so no event rescans
    /// adjacency.
    ///
    /// Assumes no single event both applies and undoes the same change
    /// (no model in this workspace does): the journal would record both
    /// halves of the round trip.
    fn push_changes(&mut self, changes: &[GraphChange], t: f64) {
        if changes.is_empty() {
            return;
        }
        let (e0, n0) = (self.edges.len(), self.nodes.len());
        for &c in changes {
            match c {
                GraphChange::EdgeRemoved(u, v) => self.edges.push((u, v)),
                GraphChange::NodeDeactivated(v) => self.nodes.push(v),
                GraphChange::EdgeAdded(..) | GraphChange::NodeActivated(_) => {}
            }
        }
        let (removed, deactivated) = (self.edges.len(), self.nodes.len());
        for &c in changes {
            match c {
                GraphChange::EdgeAdded(u, v) => self.edges.push((u, v)),
                GraphChange::NodeActivated(v) => self.nodes.push(v),
                GraphChange::EdgeRemoved(..) | GraphChange::NodeDeactivated(_) => {}
            }
        }
        let (cut, wired) = self.edges[e0..].split_at_mut(removed - e0);
        cut.sort_unstable();
        wired.sort_unstable();
        let (left, joined) = self.nodes[n0..].split_at_mut(deactivated - n0);
        left.sort_unstable();
        joined.sort_unstable();
        debug_assert!(
            !cut.iter().any(|e| wired.binary_search(e).is_ok())
                && !left.iter().any(|v| joined.binary_search(v).is_ok()),
            "one event must not apply and undo the same change"
        );
        let offset = |len: usize| u32::try_from(len).expect("trace buffers exceed u32 offsets");
        self.ends.push(StepEnds {
            removed: offset(removed),
            edges: offset(self.edges.len()),
            deactivated: offset(deactivated),
            nodes: offset(self.nodes.len()),
        });
        self.times.push(t);
    }
}

/// A recorded topology realization: the post-`init` starting graph and
/// every effective change, in time order. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyTrace {
    initial: Graph,
    steps: StepStore,
    horizon: f64,
}

impl TopologyTrace {
    /// Records the evolution of the model `state` on base graph `g`
    /// over `[0, horizon]`, standalone (no protocol interleaved): the
    /// model's events are driven on their own, with the informed set
    /// frozen to `{source}` — informed-state-dependent models (the
    /// frontier adversary) are recorded **obliviously**, the only
    /// semantics under which a synchronous and an asynchronous run can
    /// share one realization.
    ///
    /// The realization is drawn through the superposition scheduler
    /// ([`TopoDriver`]). A built-in model records through
    /// [`DynamicModel::build_state`](crate::DynamicModel::build_state).
    /// Recording a [`TraceReplayer`] reproduces its trace exactly
    /// (replay-of-replay is a fixed point, pinned in
    /// `tests/trace_replay.rs`). [`TraceRecording`] records the same
    /// realization on demand.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or `horizon` is negative or
    /// not finite.
    pub fn record<M: TopologyModel + ?Sized>(
        g: &Graph,
        source: Node,
        state: &mut M,
        rng: &mut Xoshiro256PlusPlus,
        horizon: f64,
    ) -> TopologyTrace {
        let (mut trace, mut net, mut driver, mut next) =
            TopologyTrace::start(g, source, state, rng, horizon);
        while next.is_finite() {
            next = trace.record_event(&mut net, &mut driver, state, rng, next);
        }
        trace
    }

    /// Starts a standalone recording: initializes the model on a copy
    /// of `g`, freezes the informed set to `{source}`, and peeks the
    /// first event. Returns the empty trace, the live graph and driver,
    /// and the first event's time (`INFINITY` if none falls within the
    /// horizon).
    fn start<M: TopologyModel + ?Sized>(
        g: &Graph,
        source: Node,
        state: &mut M,
        rng: &mut Xoshiro256PlusPlus,
        horizon: f64,
    ) -> (TopologyTrace, MutableGraph, TopoDriver, f64) {
        let n = g.node_count();
        assert!((source as usize) < n, "source out of range");
        assert!(horizon >= 0.0 && horizon.is_finite(), "horizon must be finite and >= 0");
        let mut net = MutableGraph::from_graph(g);
        let mut driver = TopoDriver::new(g, &mut net, state, rng);
        // Oblivious recording: the informed set is frozen to the source
        // for the whole realization.
        state.note_informed(source, &net);
        let initial = net.to_graph();
        debug_assert_eq!(net.active_count(), n, "models do not deactivate during init");
        net.track_changes(true);
        let trace = TopologyTrace { initial, steps: StepStore::new(), horizon };
        let next = trace.peek(&mut driver, rng);
        (trace, net, driver, next)
    }

    /// The driver's next event time, or `INFINITY` past the horizon.
    /// The driver retains the arrival it peeks, so peeking again (after
    /// a pause of a resumable recording) draws nothing.
    fn peek(&self, driver: &mut TopoDriver, rng: &mut Xoshiro256PlusPlus) -> f64 {
        let t = driver.next_time(rng);
        if t > self.horizon {
            f64::INFINITY
        } else {
            t
        }
    }

    /// Applies the event peeked at time `t`, keeps its step if it
    /// changed anything, and returns the next event's time (as
    /// [`peek`](Self::peek)).
    fn record_event<M: TopologyModel + ?Sized>(
        &mut self,
        net: &mut MutableGraph,
        driver: &mut TopoDriver,
        state: &mut M,
        rng: &mut Xoshiro256PlusPlus,
        t: f64,
    ) -> f64 {
        driver.step(state, net, rng);
        self.steps.push_changes(net.changes(), t);
        net.clear_changes();
        self.peek(driver, rng)
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
    pub fn steps(&self) -> impl ExactSizeIterator<Item = TraceStep<'_>> + '_ {
        self.steps.iter()
    }

    /// Every step's time, in step order (non-decreasing).
    pub fn times(&self) -> &[f64] {
        &self.steps.times
    }

    /// Number of recorded (effective) topology changes.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the realization contains no changes.
    pub fn is_empty(&self) -> bool {
        self.steps.len() == 0
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
        for step in self.steps.iter() {
            apply_step(&mut net, step);
            out.push(net.to_graph());
        }
        out
    }

    /// A deterministic [`TopologyModel`] that replays this trace.
    pub fn replayer(&self) -> TraceReplayer<'_> {
        TraceReplayer::new(self)
    }
}

/// A standalone recording that grows on demand.
///
/// [`start`](Self::start) does what [`TopologyTrace::record`] does up to
/// its first event, then stops. The recording keeps its tail — the
/// graph, the event driver, the model state and the trace RNG — and
/// records further only when a replay (through [`TraceReplayer::new`],
/// [`run_trace_lazy`] or [`run_sync_dynamic`]) asks for a time past
/// what is recorded, never past the horizon. The driver retains the
/// arrival it peeks, so pausing draws nothing extra: whatever has been
/// recorded is byte for byte a prefix of the eager trace, and
/// [`finish`](Self::finish) returns exactly that trace.
///
/// Once the next event would fall past the horizon the tail is dropped
/// and the recording is sealed.
pub struct TraceRecording {
    trace: TopologyTrace,
    tail: Option<Box<Tail>>,
}

/// Everything a paused recording needs to draw its next event.
struct Tail {
    net: MutableGraph,
    driver: TopoDriver,
    state: Box<dyn TopologyModel + Send>,
    rng: Xoshiro256PlusPlus,
    /// Time of the next (peeked, not yet recorded) event.
    next: f64,
}

impl TraceRecording {
    /// Starts recording the model `state` on base graph `g` over
    /// `[0, horizon]`, with the trace RNG `rng`; see
    /// [`TopologyTrace::record`] for the semantics.
    ///
    /// # Panics
    ///
    /// As [`TopologyTrace::record`].
    pub fn start(
        g: &Graph,
        source: Node,
        mut state: Box<dyn TopologyModel + Send>,
        mut rng: Xoshiro256PlusPlus,
        horizon: f64,
    ) -> TraceRecording {
        let (trace, net, driver, next) =
            TopologyTrace::start(g, source, state.as_mut(), &mut rng, horizon);
        let tail = next.is_finite().then(|| Box::new(Tail { net, driver, state, rng, next }));
        TraceRecording { trace, tail }
    }

    /// The steps recorded so far, as a trace (its horizon is the cap).
    pub fn trace(&self) -> &TopologyTrace {
        &self.trace
    }

    /// Time of the next event not yet recorded; `INFINITY` once sealed.
    pub(crate) fn frontier(&self) -> f64 {
        self.tail.as_ref().map_or(f64::INFINITY, |tail| tail.next)
    }

    /// The `i`-th step if it happens at or before `t`. Records events
    /// until that step exists or the next event is later than `t` (or
    /// past the horizon).
    pub(crate) fn step_by(&mut self, i: usize, t: f64) -> Option<TraceStep<'_>> {
        if i >= self.trace.steps.len() {
            self.record_through(i, t);
        }
        self.trace.steps.get_by(i, t)
    }

    /// The recording half of [`step_by`](Self::step_by), kept out of
    /// line so the replay loops that call the accessor stay small.
    #[inline(never)]
    fn record_through(&mut self, i: usize, t: f64) {
        while i >= self.trace.steps.len() {
            let Some(Tail { net, driver, state, rng, next }) = self.tail.as_deref_mut() else {
                break;
            };
            if *next > t {
                break;
            }
            *next = self.trace.record_event(net, driver, state.as_mut(), rng, *next);
            if !next.is_finite() {
                self.tail = None;
            }
        }
    }

    /// Records to the horizon and returns the sealed trace — equal to
    /// [`TopologyTrace::record`] with the same inputs.
    pub fn finish(mut self) -> TopologyTrace {
        self.step_by(usize::MAX, f64::INFINITY);
        self.trace
    }
}

impl std::fmt::Debug for TraceRecording {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecording")
            .field("steps", &self.trace.len())
            .field("horizon", &self.trace.horizon)
            .field("frontier", &self.frontier())
            .finish()
    }
}

/// How a replay reads a trace: a sealed [`TopologyTrace`] (shareable
/// across threads) or a live [`TraceRecording`] that grows as the
/// replay asks for later times. Every replay engine takes
/// `impl Into<TraceRef>`, so `&trace`, `&mut recording` and
/// `&mut trace_ref` (a reborrow) all work.
#[derive(Debug)]
pub enum TraceRef<'a> {
    /// A finished trace, read as is.
    Sealed(&'a TopologyTrace),
    /// A recording that grows on demand.
    Live(&'a mut TraceRecording),
}

impl TraceRef<'_> {
    /// The trace recorded so far.
    pub(crate) fn trace(&self) -> &TopologyTrace {
        match self {
            TraceRef::Sealed(trace) => trace,
            TraceRef::Live(rec) => &rec.trace,
        }
    }

    /// The `i`-th step if it happens at or before `t` — the one
    /// accessor every replay reads steps through. A live recording
    /// records up to `t` first (see [`TraceRecording::step_by`]).
    pub(crate) fn step_by(&mut self, i: usize, t: f64) -> Option<TraceStep<'_>> {
        match self {
            TraceRef::Sealed(trace) => trace.steps.get_by(i, t),
            TraceRef::Live(rec) => rec.step_by(i, t),
        }
    }
}

impl<'a> From<&'a TopologyTrace> for TraceRef<'a> {
    fn from(trace: &'a TopologyTrace) -> Self {
        TraceRef::Sealed(trace)
    }
}

impl<'a> From<&'a mut TraceRecording> for TraceRef<'a> {
    fn from(rec: &'a mut TraceRecording) -> Self {
        TraceRef::Live(rec)
    }
}

impl<'a> From<&'a mut TraceRef<'_>> for TraceRef<'a> {
    fn from(trace: &'a mut TraceRef<'_>) -> Self {
        match trace {
            TraceRef::Sealed(trace) => TraceRef::Sealed(trace),
            TraceRef::Live(rec) => TraceRef::Live(rec),
        }
    }
}

/// The trace as a [`TopologyModel`]: each recorded step is due at its
/// recorded time and applies the recorded diff verbatim. Consumes
/// **no randomness**, so the protocol RNG stream of a replaying engine
/// is pure protocol randomness — the common-random-numbers half of the
/// coupled runs. Over a live recording it reports the cursor step's
/// time as soon as the previous step is applied, so it records one step
/// ahead: up to the first step past the run's end.
#[derive(Debug)]
pub struct TraceReplayer<'a> {
    trace: TraceRef<'a>,
    cursor: usize,
}

impl<'a> TraceReplayer<'a> {
    /// A replayer over a sealed trace or a live recording.
    pub fn new(trace: impl Into<TraceRef<'a>>) -> Self {
        TraceReplayer { trace: trace.into(), cursor: 0 }
    }
}

impl TraceReplayer<'_> {
    /// Number of steps applied so far.
    pub fn applied(&self) -> usize {
        self.cursor
    }
}

impl TopologyModel for TraceReplayer<'_> {
    fn init(&mut self, g: &Graph, net: &mut MutableGraph, _rng: &mut Xoshiro256PlusPlus) -> usize {
        let trace = self.trace.trace();
        assert_eq!(
            g.node_count(),
            trace.node_count(),
            "trace was recorded on a different node count"
        );
        // Reset the cursor so one replayer can serve several engine
        // runs back to back.
        self.cursor = 0;
        net.replace_edges_with(&trace.initial);
        // Every step is a deterministic due event.
        0
    }

    fn next_due(&mut self) -> f64 {
        self.trace.step_by(self.cursor, f64::INFINITY).map_or(f64::INFINITY, |step| step.time)
    }

    fn apply(&mut self, _t: f64, net: &mut MutableGraph, _rng: &mut Xoshiro256PlusPlus) {
        let step = self.trace.step_by(self.cursor, f64::INFINITY).expect("a due step exists");
        apply_step(net, step);
        self.cursor += 1;
    }
}

/// Runs the asynchronous protocol over a recorded trace with a
/// **queue-free cursor**: no pending topology events exist; before each
/// protocol tick the cursor applies every recorded step up to the tick
/// time (topology winning ties, like the merged stream). RNG
/// consumption — one `Exp(n)` draw per tick, then the node and neighbor
/// draws — is exactly the sequential replay's, and both apply the
/// recorded steps to the same order-relaxed rows, so this engine
/// replays [`run_dynamic_with`](crate::run_dynamic_with) over
/// `trace.replayer()` **seed-for-seed**. It calls `probe` at the same
/// points with the same arguments as that replay does, so a probed
/// cursor run observes the identical event stream.
///
/// # Panics
///
/// Panics if `source` is out of range for the trace.
pub fn run_trace_lazy<'a, P: Probe>(
    trace: impl Into<TraceRef<'a>>,
    source: Node,
    mode: Mode,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
    probe: &mut P,
) -> DynamicOutcome {
    let mut trace = trace.into();
    let n = trace.trace().node_count();
    assert!((source as usize) < n, "source out of range");

    let mut informed_time = vec![f64::INFINITY; n];
    informed_time[source as usize] = 0.0;
    let mut informed_count = 1usize;
    if P::ENABLED {
        probe.trial_start(n, &[source]);
        probe.informed(0.0, informed_count);
    }
    if n == 1 {
        if P::ENABLED {
            probe.trial_end(0.0, true);
        }
        return DynamicOutcome {
            time: 0.0,
            steps: 0,
            topology_events: 0,
            completed: true,
            informed_time,
        };
    }
    let mut net = MutableGraph::from_graph(&trace.trace().initial);
    let mut cursor = 0usize;
    let mut ticks = TickSource::new(n as f64);
    let mut t = 0.0;
    let mut steps = 0u64;
    let mut topology_events = 0u64;
    let mut completed = false;
    while steps < max_steps {
        let tt = ticks.pop(rng);
        while let Some(step) = trace.step_by(cursor, tt) {
            apply_step(&mut net, step);
            cursor += 1;
            topology_events += 1;
            if P::ENABLED {
                probe.event(step.time, ProbeEvent::Topology);
                probe.topology_changed(step.time);
            }
        }
        t = tt;
        steps += 1;
        if P::ENABLED {
            probe.event(tt, ProbeEvent::Tick);
        }
        let v = rng.range_usize(n) as Node;
        if net.is_active(v) && net.degree(v) > 0 {
            let w = net.random_neighbor(v, rng);
            let how = crate::asynchronous::exchange(
                mode,
                &mut informed_time,
                &mut informed_count,
                v,
                w,
                tt,
            );
            if let (true, Some(how)) = (P::ENABLED, how) {
                let (informer, learner) = how.roles(v, w);
                probe.informed(tt, informed_count);
                probe.transmitted(informer, learner, how, tt);
            }
        }
        if informed_count == n {
            completed = true;
            break;
        }
    }
    if P::ENABLED {
        probe.trial_end(t, completed);
    }
    DynamicOutcome { time: t, steps, topology_events, completed, informed_time }
}

/// Runs the **synchronous** push/pull/push–pull protocol on an evolving
/// topology given by a recorded trace: the round loop of
/// [`crate::run_sync`], with the graph snapshotted at round boundaries
/// — round `r` runs on the topology as of time `r − 1` (one round
/// corresponds to one asynchronous time unit, footnote 3). Nodes
/// isolated (or departed) in the current snapshot skip their contact
/// that round.
///
/// This is the synchronous protocol on every topology model: an
/// uncoupled synchronous spec on a model records the realization on
/// demand (a [`TraceRecording`] with the round budget as horizon) and
/// runs it here. Driving this and an asynchronous replay of the *same*
/// trace with a common protocol seed is the coupled comparison of E23.
///
/// # Panics
///
/// Panics if `source` is out of range for the trace.
pub fn run_sync_dynamic<'a>(
    trace: impl Into<TraceRef<'a>>,
    source: Node,
    mode: Mode,
    rng: &mut Xoshiro256PlusPlus,
    max_rounds: u64,
) -> SyncOutcome {
    let mut trace = trace.into();
    let n = trace.trace().node_count();
    assert!((source as usize) < n, "source out of range");

    let mut net = MutableGraph::from_graph(&trace.trace().initial);
    let mut cursor = 0usize;
    let config = SpreadConfig::new(source).with_mode(mode);
    Rounds::new(n, &config).run(max_rounds, |st, r| {
        let boundary = (r - 1) as f64;
        while let Some(step) = trace.step_by(cursor, boundary) {
            apply_step(&mut net, step);
            cursor += 1;
        }
        st.exchange_round(r, rng, &mut NoProbe, |v, rng| {
            if !net.is_active(v) || net.degree(v) == 0 {
                None // isolated this snapshot: no contact this round
            } else {
                Some(net.random_neighbor(v, rng))
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_graph::generators;

    use crate::dynamic::{
        run_dynamic_with, Adversary, DynamicModel, EdgeMarkov, Mobility, NodeChurn, RandomWalk,
        Rewire, SnapshotFamily,
    };
    use crate::sync::run_sync;

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
            let trace = record(&g, &model, 2, 12.0);
            assert!(!trace.is_empty(), "{name}: no steps recorded");
            assert!(trace.times().windows(2).all(|w| w[0] <= w[1]), "{name}: out-of-order steps");
            for step in trace.steps() {
                assert!(!step.is_empty(), "{name}: no-op step recorded");
                assert!(step.time > 0.0 && step.time <= trace.horizon(), "{name}: bad time");
            }
        }
    }

    #[test]
    fn static_trace_is_empty_and_sync_matches_run_sync() {
        let g = generators::gnp_connected(32, 0.2, &mut rng(3), 100);
        let trace = record(&g, &DynamicModel::Static, 4, 100.0);
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
            let trace = record(&g, &model, 7, 8.0);
            let snapshots = trace.snapshots();
            assert_eq!(snapshots.len(), trace.len() + 1, "{name}");
            assert_eq!(&snapshots[0], trace.initial(), "{name}");
            // Applying steps one by one through a replayer's own
            // primitive walks the same sequence.
            let mut net = MutableGraph::from_graph(trace.initial());
            for (i, step) in trace.steps().enumerate() {
                apply_step(&mut net, step);
                assert_eq!(net.to_graph(), snapshots[i + 1], "{name} step {i}");
            }
        }
    }

    #[test]
    fn lazy_cursor_replays_sequential_replay_seed_for_seed() {
        let g = generators::gnp_connected(48, 0.15, &mut rng(8), 100);
        for (name, model) in all_models() {
            let trace = record(&g, &model, 9, 30.0);
            let mut a = rng(10);
            let mut replay = trace.replayer();
            let seq = run_seq(&g, &mut replay, &mut a, 1_000_000);
            let mut b = rng(10);
            let lazy = run_trace_lazy(&trace, 0, Mode::PushPull, &mut b, 1_000_000, &mut NoProbe);
            assert_eq!(lazy, seq, "{name}: cursor engine diverged");
            assert_eq!(a.next_u64(), b.next_u64(), "{name}: RNG state diverged");
            assert_eq!(replay.applied() as u64, seq.topology_events, "{name}: cursor drift");
        }
    }

    #[test]
    fn sync_dynamic_completes_under_all_models() {
        let g = generators::gnp_connected(48, 0.2, &mut rng(14), 100);
        for (name, model) in all_models() {
            let trace = record(&g, &model, 15, 200.0);
            let out = run_sync_dynamic(&trace, 0, Mode::PushPull, &mut rng(16), 100_000);
            assert!(out.completed, "{name}: sync run censored");
            assert_eq!(*out.informed_by_round.last().unwrap(), 48, "{name}");
        }
    }

    #[test]
    fn replay_of_replay_is_a_fixed_point() {
        let g = generators::gnp_connected(32, 0.2, &mut rng(20), 100);
        for (name, model) in all_models() {
            let t1 = record(&g, &model, 21, 15.0);
            let t2 = TopologyTrace::record(&g, 0, &mut t1.replayer(), &mut rng(99), t1.horizon());
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
        let trace = record(&g, &model, 27, 15.0);
        let mut replay = trace.replayer();
        let a = run_seq(&g, &mut replay, &mut rng(28), 1_000_000);
        let b = run_seq(&g, &mut replay, &mut rng(28), 1_000_000);
        assert_eq!(a, b);
        assert_eq!(replay.applied() as u64, b.topology_events);
    }

    #[test]
    fn replay_past_the_horizon_freezes_the_topology() {
        // Dense base: a handful of frozen-off edges cannot disconnect it.
        let g = generators::complete(16);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(0.05));
        let trace = record(&g, &model, 23, 2.0);
        let out = run_trace_lazy(&trace, 0, Mode::PushPull, &mut rng(24), 10_000_000, &mut NoProbe);
        assert!(out.completed);
        assert!(out.topology_events <= trace.len() as u64);
    }

    #[test]
    fn a_recording_grows_only_as_far_as_asked() {
        let g = generators::gnp_connected(32, 0.2, &mut rng(40), 100);
        for (name, model) in all_models() {
            let eager = record(&g, &model, 41, 12.0);
            let mut rec = TraceRecording::start(&g, 0, model.build_state(), rng(41), 12.0);
            for t in [0.0, 0.5, 3.0, 3.0, 7.5, 100.0] {
                assert!(rec.step_by(usize::MAX, t).is_none());
                // Exactly the eager steps at or before `t` (capped by
                // the horizon), and the next event lies past `t`.
                let within = eager.times().partition_point(|&time| time <= t);
                assert_eq!(
                    rec.trace().steps().collect::<Vec<_>>(),
                    eager.steps().take(within).collect::<Vec<_>>(),
                    "{name} at {t}"
                );
                assert!(rec.frontier() > t, "{name} at {t}");
            }
            assert_eq!(rec.frontier(), f64::INFINITY, "{name}: not sealed past the horizon");
            assert_eq!(rec.finish(), eager, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn record_rejects_infinite_horizon() {
        let g = generators::complete(4);
        record(&g, &DynamicModel::Static, 25, f64::INFINITY);
    }
}
