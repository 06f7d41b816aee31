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
//!   Replaying a trace consumes **no randomness**, so one recorded
//!   realization can drive arbitrarily many protocol runs, each with its
//!   own protocol RNG.
//! * [`TraceRecording`] — the same standalone recording, resumable: it
//!   keeps its tail (graph, event driver, model state, trace RNG) and
//!   records more only when a replay asks for a time past what is
//!   recorded. Its steps are always a prefix of the eager
//!   [`TopologyTrace::record`] trace with the same inputs, so a coupled
//!   trial pays only for the realization its replays read.
//! * [`run_sync_dynamic`] — the synchronous-rounds protocol on the
//!   *same* trace, snapshotting the evolving graph at round boundaries
//!   (round `r` sees every change up to time `r − 1`; one round = one
//!   time unit, footnote 3 of the paper). This is what makes the
//!   sync/async comparison of E23 **paired**: both protocols watch the
//!   identical topology realization. It is also how an uncoupled
//!   synchronous run executes on any topology model: it records the
//!   model's realization on demand and replays it here.
//! * [`run_coupled_dynamic`] — the replays of one coupled trial (a
//!   synchronous and an asynchronous half per protocol seed) in
//!   **lockstep on one graph**. The half that reads the graph next runs
//!   until another half would read: sync round `r` reads it as of time
//!   `r − 1`, an async tick after every step up to the tick, and an
//!   async half holds a drawn tick that falls past its turn. So each
//!   trace step is applied once, in trace order, as far as the
//!   furthest half reads, and every half sees the graph exactly as its
//!   own replay would: the same outcomes and the same draws, seed for
//!   seed. [`run_sync_dynamic`] is its one-half synchronous form, and a
//!   lone asynchronous replay is the call with one asynchronous RNG and
//!   no synchronous one, so the replay loop exists once. An asynchronous
//!   half is the global-clock tick loop over a queue-free cursor: no
//!   pending topology events exist, and the steps up to each tick are
//!   applied before it (topology winning ties). It draws what the
//!   sequential engine ([`crate::run_dynamic_with`]) draws over a model
//!   that replays the trace, so the two agree seed for seed (pinned in
//!   `tests/trace_replay.rs`).
//!
//! Every replay reads steps through one accessor, `TraceRef::step_by`,
//! over either a sealed trace or a live recording; the lockstep loop
//! calls it from the one cursor its halves share. The horizon is a cap,
//! not a cost: replay past it freezes the topology (no further steps
//! exist), and a live recording never records past it. No-op model
//! events (e.g. rejected random-walk steps) are dropped at recording
//! time, so a trace's step count is the number of *effective* topology
//! changes, not the model's event count.
//!
//! Steps are stored flat, struct-of-arrays: one `times` array, per-step
//! end offsets, one edge buffer (each step's removed edges, then its
//! added edges) and one node buffer (each step's deactivated nodes,
//! then its activated nodes). The graph's change journal
//! ([`MutableGraph::changes`]) keeps the same four typed runs, so
//! recording an event is four appends, and a run is sorted in place
//! only if it came out of order (a full-graph rewire journals both edge
//! runs ascending, so a rewire step sorts nothing). A step costs no heap
//! allocation beyond the amortized growth of the shared buffers. A
//! [`TraceStep`] is a borrowed `Copy` view of one step; the replays read
//! steps only through it, and a replay adds each recorded edge with
//! [`MutableGraph::add_edge_unchecked`]: the recording proved it absent,
//! and the replay graph's edge set equals the recording graph's at
//! every step, so the row is not scanned again.

use rumor_graph::dynamic::{ChangeJournal, MutableGraph};
use rumor_graph::{Graph, Node};
use rumor_sim::rng::Xoshiro256PlusPlus;

use crate::asynchronous::{RunState, TickTopology};
use crate::engine::scheduler::TopoDriver;
use crate::engine::topology::TopologyModel;
#[cfg(test)]
use crate::mode::Mode;
use crate::obs::NoProbe;
use crate::outcome::{AsyncOutcome, SyncOutcome};
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
    // A trace holds only effective changes, and the replay graph has
    // the recording graph's edge set at every step: each add is of an
    // absent edge (debug builds check).
    for &(u, v) in step.added {
        net.add_edge_unchecked(u, v);
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
    /// change journal (see [`MutableGraph::track_changes`]): one append
    /// per typed run, each sorted in place only if it came out of order.
    /// An event that changed nothing appends nothing. Costs O(changes):
    /// the graph journals its effective mutations, so no event rescans
    /// adjacency.
    ///
    /// Assumes no single event both applies and undoes the same change
    /// (no model in this workspace does): the journal would record both
    /// halves of the round trip.
    fn push_changes(&mut self, changes: &ChangeJournal, t: f64) {
        if changes.is_empty() {
            return;
        }
        let (e0, n0) = (self.edges.len(), self.nodes.len());
        let removed = append_sorted(&mut self.edges, &changes.removed);
        append_sorted(&mut self.edges, &changes.added);
        let deactivated = append_sorted(&mut self.nodes, &changes.deactivated);
        append_sorted(&mut self.nodes, &changes.activated);
        debug_assert!(
            {
                let (cut, wired) = self.edges[e0..].split_at(removed - e0);
                let (left, joined) = self.nodes[n0..].split_at(deactivated - n0);
                !cut.iter().any(|e| wired.binary_search(e).is_ok())
                    && !left.iter().any(|v| joined.binary_search(v).is_ok())
            },
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

/// Appends `run` to `buf` in ascending order, sorting the appended part
/// only if `run` is out of order; returns the new end of `buf`. Inlined
/// into [`StepStore::push_changes`], so a one-change step makes no call
/// here: its one non-empty run is one entry, which is sorted.
#[inline(always)]
fn append_sorted<T: Copy + Ord>(buf: &mut Vec<T>, run: &[T]) -> usize {
    let start = buf.len();
    buf.extend_from_slice(run);
    if run.len() > 1 && !run.is_sorted() {
        sort_from(buf, start);
    }
    buf.len()
}

/// Sorts `buf[start..]`; kept out of line, as most runs arrive sorted.
#[inline(never)]
fn sort_from<T: Ord>(buf: &mut [T], start: usize) {
    buf[start..].sort_unstable();
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
    /// Recording a replay of a trace reproduces the trace exactly
    /// (replay-of-replay is a fixed point, pinned in
    /// `tests/trace_replay.rs`). [`TraceRecording`] records the same
    /// realization on demand.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or `horizon` is negative or
    /// not finite.
    pub fn record(
        g: &Graph,
        source: Node,
        state: &mut dyn TopologyModel,
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
    fn start(
        g: &Graph,
        source: Node,
        state: &mut dyn TopologyModel,
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
    fn record_event(
        &mut self,
        net: &mut MutableGraph,
        driver: &mut TopoDriver,
        state: &mut dyn TopologyModel,
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
}

/// A standalone recording that grows on demand.
///
/// [`start`](Self::start) does what [`TopologyTrace::record`] does up to
/// its first event, then stops. The recording keeps its tail — the
/// graph, the event driver, the model state and the trace RNG — and
/// records further only when a replay (through [`run_sync_dynamic`] or
/// [`run_coupled_dynamic`]) asks for a time past what is recorded, never
/// past the horizon. The driver retains the arrival it peeks, so pausing
/// draws nothing extra: whatever has been recorded is byte for byte a
/// prefix of the eager trace.
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

/// The graph every half of a lockstep replay reads, and the cursor that
/// walks the trace into it: each step is applied once, in trace order,
/// as far as the furthest half has read.
struct Shared<'a> {
    trace: TraceRef<'a>,
    net: MutableGraph,
    /// Steps applied to `net` so far.
    applied: usize,
}

impl<'a> Shared<'a> {
    /// The trace's initial graph, no step applied.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range for the trace.
    fn new(trace: TraceRef<'a>, source: Node) -> Self {
        let initial = &trace.trace().initial;
        assert!((source as usize) < initial.node_count(), "source out of range");
        let net = MutableGraph::from_graph(initial);
        Shared { trace, net, applied: 0 }
    }

    /// Applies every step at or before `t` not applied yet.
    #[inline]
    fn advance(&mut self, t: f64) {
        while let Some(step) = self.trace.step_by(self.applied, t) {
            apply_step(&mut self.net, step);
            self.applied += 1;
        }
    }
}

/// One protocol run of a lockstep replay, resumable: it reads the shared
/// graph at non-decreasing times, and [`lockstep`] runs whichever half
/// reads next.
trait Half {
    /// When this half next reads the graph, `None` once it has finished.
    /// An asynchronous half draws its next tick here and holds it until
    /// it runs.
    fn next_read(&mut self, shared: &mut Shared<'_>) -> Option<f64>;

    /// Runs this half's reads at or before `until`, advancing the shared
    /// graph to each one first.
    fn advance(&mut self, until: f64, shared: &mut Shared<'_>);
}

/// Runs `halves` in lockstep on one graph, in the order of their reads:
/// the half that reads first advances until another half would read, so
/// the graph only moves forward and each half sees it exactly as its own
/// replay would have. A finished half drops out; the others continue.
/// With one half this is that half's replay.
fn lockstep(shared: &mut Shared<'_>, halves: &mut [&mut dyn Half]) {
    loop {
        // The half that reads first, and when the next other half reads.
        let (mut first, mut t0, mut t1) = (None, f64::INFINITY, f64::INFINITY);
        for (i, half) in halves.iter_mut().enumerate() {
            let Some(t) = half.next_read(shared) else { continue };
            if first.is_none() || t < t0 {
                (first, t0, t1) = (Some(i), t, t0);
            } else if t < t1 {
                t1 = t;
            }
        }
        let Some(i) = first else { return };
        halves[i].advance(t1, shared);
    }
}

/// A half's view of the trace as the tick loop's [`TickTopology`]: the
/// shared graph, how many steps this half has seen, and the tick it
/// holds. A step another half already applied is only seen; the next one
/// is applied here, and a live recording is never asked for a step past
/// the tick.
struct Cursor<'s, 'a> {
    shared: &'s mut Shared<'a>,
    seen: usize,
    held: Option<f64>,
}

impl TickTopology for Cursor<'_, '_> {
    #[inline(always)]
    fn before_tick(&mut self, _rng: &mut Xoshiro256PlusPlus) -> Option<f64> {
        self.held.take()
    }

    #[inline(always)]
    fn event_by(&mut self, t: f64, _rng: &mut Xoshiro256PlusPlus) -> Option<f64> {
        let shared = &mut *self.shared;
        if self.seen == shared.applied {
            let step = shared.trace.step_by(shared.applied, t)?;
            apply_step(&mut shared.net, step);
            shared.applied += 1;
        }
        let time = shared.trace.trace().times()[self.seen];
        debug_assert!(time <= t, "a half read the graph past its tick");
        self.seen += 1;
        Some(time)
    }

    #[inline(always)]
    fn partner(&mut self, v: Node, rng: &mut Xoshiro256PlusPlus) -> Option<Node> {
        self.shared.net.try_random_neighbor(v, rng)
    }
}

/// An asynchronous replay as a lockstep half: the global-clock tick loop
/// over the trace cursor, holding a drawn tick while it falls past what
/// [`lockstep`] lets it run.
struct AsyncHalf<'r> {
    st: RunState,
    held: Option<f64>,
    rng: &'r mut Xoshiro256PlusPlus,
}

impl AsyncHalf<'_> {
    /// Runs the ticks at or before `until` over `shared`, and holds the
    /// next one. Running to `-∞` runs no tick but draws the next one.
    #[inline(always)]
    fn run(&mut self, until: f64, shared: &mut Shared<'_>) {
        let seen = self.st.topology_events as usize;
        let mut cursor = Cursor { shared, seen, held: self.held };
        self.held = self.st.run_ticks(&mut cursor, until, self.rng, &mut NoProbe);
    }
}

impl Half for AsyncHalf<'_> {
    fn next_read(&mut self, shared: &mut Shared<'_>) -> Option<f64> {
        self.run(f64::NEG_INFINITY, shared);
        self.held
    }

    fn advance(&mut self, until: f64, shared: &mut Shared<'_>) {
        self.run(until, shared);
    }
}

/// A synchronous replay as a lockstep half: round `r` reads the graph
/// as of time `r − 1`.
struct SyncHalf<'r> {
    rounds: Rounds,
    rng: &'r mut Xoshiro256PlusPlus,
    max_rounds: u64,
}

impl Half for SyncHalf<'_> {
    fn next_read(&mut self, _shared: &mut Shared<'_>) -> Option<f64> {
        self.rounds.next_round(self.max_rounds).map(|r| (r - 1) as f64)
    }

    fn advance(&mut self, until: f64, shared: &mut Shared<'_>) {
        while let Some(r) = self.rounds.next_round(self.max_rounds) {
            let boundary = (r - 1) as f64;
            if boundary > until {
                break;
            }
            shared.advance(boundary);
            let net = &shared.net;
            // A node isolated in this snapshot skips its contact.
            self.rounds.exchange_round(r, self.rng, &mut NoProbe, |v, rng| {
                net.try_random_neighbor(v, rng)
            });
        }
    }
}

/// Runs the **synchronous** push/pull/push–pull protocol under a
/// [`SpreadConfig`] on an evolving topology given by a recorded trace:
/// the round loop of [`crate::run_sync_probed`], with the graph
/// snapshotted at round boundaries — round `r` runs on the topology as
/// of time `r − 1` (one round corresponds to one asynchronous time
/// unit, footnote 3). Nodes isolated (or departed) in the current
/// snapshot skip their contact that round.
///
/// This is the synchronous protocol on every topology model: an
/// uncoupled synchronous spec on a model records the realization on
/// demand (a [`TraceRecording`] with the round budget as horizon) and
/// runs it here. It is the one-half form of [`run_coupled_dynamic`],
/// which runs it beside asynchronous replays of the *same* trace — the
/// coupled comparison of E23.
///
/// # Panics
///
/// Panics if a source is out of range for the trace.
pub fn run_sync_dynamic<'a>(
    trace: impl Into<TraceRef<'a>>,
    config: &SpreadConfig,
    rng: &mut Xoshiro256PlusPlus,
    max_rounds: u64,
) -> SyncOutcome {
    let rngs = std::slice::from_mut(rng);
    let mut out = run_coupled_dynamic(trace, config, rngs, &mut [], max_rounds, 0);
    out.sync.pop().expect("one synchronous replay")
}

/// What the replays of one coupled trial return: see
/// [`run_coupled_dynamic`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledReplays {
    /// One synchronous outcome per synchronous RNG, in order.
    pub sync: Vec<SyncOutcome>,
    /// One asynchronous outcome per asynchronous RNG, in order.
    pub asynchronous: Vec<AsyncOutcome>,
}

/// Runs the replays of one coupled trial on one graph, in lockstep: a
/// synchronous replay ([`run_sync_dynamic`]) per RNG in `sync_rngs` and
/// an asynchronous one (the global-clock tick loop over the trace
/// cursor) per RNG in `async_rngs`, all over the same trace and under
/// the same `config`.
/// The halves run in the order in which they read the graph (sync round
/// `r` at time `r − 1`, an asynchronous tick after every step up to
/// it), so each trace step is applied once, as far as the furthest half
/// reads, and each half sees the graph exactly as its own replay would.
/// Every outcome and every final RNG state is therefore the separate
/// replay's, seed for seed; only the applying is shared.
///
/// # Panics
///
/// Panics if a source is out of range for the trace.
pub fn run_coupled_dynamic<'a>(
    trace: impl Into<TraceRef<'a>>,
    config: &SpreadConfig,
    sync_rngs: &mut [Xoshiro256PlusPlus],
    async_rngs: &mut [Xoshiro256PlusPlus],
    max_rounds: u64,
    max_steps: u64,
) -> CoupledReplays {
    let mut shared = Shared::new(trace.into(), config.sources()[0]);
    replay_coupled(&mut shared, config, sync_rngs, async_rngs, max_rounds, max_steps)
}

/// [`run_coupled_dynamic`] on a given shared graph.
fn replay_coupled(
    shared: &mut Shared<'_>,
    config: &SpreadConfig,
    sync_rngs: &mut [Xoshiro256PlusPlus],
    async_rngs: &mut [Xoshiro256PlusPlus],
    max_rounds: u64,
    max_steps: u64,
) -> CoupledReplays {
    let n = shared.net.node_count();
    config.validate(n);
    let mut syncs: Vec<SyncHalf<'_>> = sync_rngs
        .iter_mut()
        .map(|rng| SyncHalf { rounds: Rounds::new(n, config), rng, max_rounds })
        .collect();
    let mut asyncs: Vec<AsyncHalf<'_>> = async_rngs
        .iter_mut()
        .map(|rng| AsyncHalf { st: RunState::new(n, config, max_steps), held: None, rng })
        .collect();
    let mut halves: Vec<&mut dyn Half> = syncs.iter_mut().map(|h| h as &mut dyn Half).collect();
    halves.extend(asyncs.iter_mut().map(|h| h as &mut dyn Half));
    lockstep(shared, &mut halves);
    CoupledReplays {
        sync: syncs.into_iter().map(|h| h.rounds.finish()).collect(),
        asynchronous: asyncs.into_iter().map(|h| h.st.into_outcome()).collect(),
    }
}

/// [`replay_coupled`] from one source in one mode, for the unit tests.
#[cfg(test)]
fn coupled(
    shared: &mut Shared<'_>,
    source: Node,
    mode: Mode,
    sync_rngs: &mut [Xoshiro256PlusPlus],
    async_rngs: &mut [Xoshiro256PlusPlus],
    max_rounds: u64,
    max_steps: u64,
) -> CoupledReplays {
    let config = SpreadConfig::new(source).with_mode(mode);
    replay_coupled(shared, &config, sync_rngs, async_rngs, max_rounds, max_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_graph::generators;

    use crate::dynamic::{
        Adversary, DynamicModel, EdgeMarkov, Mobility, NodeChurn, RandomWalk, Rewire,
        SnapshotFamily,
    };
    use crate::sync::run_sync;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from(seed)
    }

    /// Records `model` from source 0.
    fn record(g: &Graph, model: &DynamicModel, seed: u64, horizon: f64) -> TopologyTrace {
        TopologyTrace::record(g, 0, model.build_state().as_mut(), &mut rng(seed), horizon)
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
        let traced = run_sync_dynamic(&trace, &SpreadConfig::new(0), &mut rng(5), 10_000);
        assert_eq!(traced, plain, "empty trace must replay the static sync run seed-for-seed");
    }

    #[test]
    fn sync_dynamic_completes_under_all_models() {
        let g = generators::gnp_connected(48, 0.2, &mut rng(14), 100);
        for (name, model) in all_models() {
            let trace = record(&g, &model, 15, 200.0);
            let out = run_sync_dynamic(&trace, &SpreadConfig::new(0), &mut rng(16), 100_000);
            assert!(out.completed, "{name}: sync run censored");
            assert_eq!(*out.informed_by_round.last().unwrap(), 48, "{name}");
        }
    }

    #[test]
    fn replay_past_the_horizon_freezes_the_topology() {
        // Dense base: a handful of frozen-off edges cannot disconnect it.
        let g = generators::complete(16);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(0.05));
        let trace = record(&g, &model, 23, 2.0);
        let config = SpreadConfig::new(0);
        let out = run_coupled_dynamic(&trace, &config, &mut [], &mut [rng(24)], 0, 10_000_000);
        let out = &out.asynchronous[0];
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
            assert_eq!(rec.trace(), &eager, "{name}");
        }
    }

    #[test]
    fn a_coupled_trial_applies_each_step_at_most_once() {
        let g = generators::gnp_connected(48, 0.15, &mut rng(50), 100);
        for (name, model) in all_models() {
            let trace = record(&g, &model, 51, 60.0);
            for seeds in [&[52u64][..], &[52, !52]] {
                let rngs = || seeds.iter().map(|&s| rng(s)).collect::<Vec<_>>();
                let (mut sync_rngs, mut async_rngs) = (rngs(), rngs());
                let mut rec = TraceRecording::start(&g, 0, model.build_state(), rng(51), 60.0);
                let mut shared = Shared::new(TraceRef::from(&mut rec), 0);
                let out = coupled(
                    &mut shared,
                    0,
                    Mode::PushPull,
                    &mut sync_rngs,
                    &mut async_rngs,
                    100_000,
                    1_000_000,
                );
                // Steps each replay read on its own graph: an async half
                // up to its last tick, a sync half up to its last round's
                // boundary.
                let read = |t: f64| trace.times().partition_point(|&time| time <= t);
                let sync_reads = out.sync.iter().map(|s| read(s.rounds.saturating_sub(1) as f64));
                let async_reads = out.asynchronous.iter().map(|a| a.topology_events as usize);
                let reads: Vec<usize> = sync_reads.chain(async_reads).collect();
                let furthest = *reads.iter().max().unwrap();
                // The shared cursor applied each of the furthest half's
                // steps once: not the separate replays' sum.
                let applied = shared.applied;
                assert_eq!(applied, furthest, "{name}: applied {seeds:?}");
                assert!(applied > 0, "{name}");
                assert!(applied < reads.iter().sum::<usize>(), "{name}: {reads:?}");
                for a in &out.asynchronous {
                    assert_eq!(a.topology_events as usize, read(a.time), "{name}");
                }
                drop(shared);
                assert!(rec.trace().len() >= applied, "{name}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn record_rejects_infinite_horizon() {
        let g = generators::complete(4);
        record(&g, &DynamicModel::Static, 25, f64::INFINITY);
    }
}
