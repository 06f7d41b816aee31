//! The pluggable topology-model layer shared by every dynamic engine.
//!
//! [`TopologyModel`] is the one interface through which the engines
//! consume topology evolution: a model schedules its next events into
//! the shared [`EventQueue`] (*next-event draw*), mutates the
//! [`MutableGraph`] when an event fires (*apply*), and reports which
//! nodes' contact rates the mutation can have touched
//! ([`RateImpact`], the *incremental rate delta* the sharded engine's
//! conservative horizon maintenance needs). The sequential engine
//! ([`crate::run_dynamic`]) merges the scheduled events with protocol
//! ticks in one stream; the sharded engine processes them at its window
//! barriers; the lazy engine asks a model whether it is per-edge
//! memoryless ([`TopologyModel::memoryless_edge_rates`]) and, if so,
//! skips event scheduling entirely. All engines share these
//! implementations, so they agree event for event — the foundation of
//! the K = 1 replay invariant.
//!
//! Six models are implemented behind the trait: the PR 1 trio
//! (edge-Markov flips, periodic rewiring, node churn — re-expressed
//! here with bit-identical RNG consumption, so pre-refactor runs replay
//! seed-for-seed; pinned in `tests/replay_golden.rs`) and three models
//! new with this layer: random-walk edge dynamics, geometric mobility
//! on a [`GridIndex`], and budget-limited adversarial removal of the
//! informed/uninformed frontier.

use std::collections::BTreeSet;

use rumor_graph::arena;
use rumor_graph::dynamic::MutableGraph;
use rumor_graph::geometry::GridIndex;
use rumor_graph::{Graph, GraphBuilder, Node};
use rumor_sim::events::EventQueue;
use rumor_sim::rng::Xoshiro256PlusPlus;

use crate::dynamic::{
    Adversary, DynamicModel, EdgeMarkov, Mobility, NodeChurn, RandomWalk, Rewire, SnapshotFamily,
};

/// Pending topology events in the interleaved stream.
///
/// One shared payload type keeps the event queue monomorphic across
/// models; each [`TopologyModel`] implementation consumes only the
/// variants it scheduled and panics on any other (a scheduling bug).
#[derive(Debug, Clone, Copy)]
pub enum TopoEvent {
    /// Flip base-edge `i` (index into the edge-Markov base edge list).
    Flip(u32),
    /// Replace the topology with a fresh snapshot.
    Snapshot,
    /// Toggle node participation (leave if active, join if away).
    Toggle(Node),
    /// Walk one endpoint of live edge `i` along the base graph.
    Walk(u32),
    /// Move node `v` to a new position and refresh its proximity edges.
    Move(Node),
    /// Adversary strike: cut frontier edges up to the budget.
    Strike,
    /// Re-insert adversary-cut edge `i` (index into the heal slab).
    Heal(u32),
    /// Apply recorded trace step `i`
    /// ([`TraceReplayer`](crate::engine::trace::TraceReplayer)).
    Replay(u32),
}

/// Which nodes a topology event's mutation can have re-rated.
///
/// The sharded engine keeps per-node cross-rate caches; a `Nodes`
/// impact lets it adjust only the listed nodes' contributions
/// (incremental rate delta), while `Global` forces a full rate
/// recomputation. Over-reporting is safe (unchanged nodes are no-ops);
/// under-reporting corrupts the horizon.
#[derive(Debug, Clone, Copy)]
pub enum RateImpact {
    /// Only the first `len` entries of `nodes` can have changed rates.
    Nodes {
        /// Inline node storage (events touch at most 3 nodes).
        nodes: [Node; 3],
        /// Number of valid entries.
        len: u8,
    },
    /// Any node's rate may have changed.
    Global,
}

impl RateImpact {
    /// An impact covering exactly `nodes` (at most 3).
    pub fn nodes(nodes: &[Node]) -> Self {
        assert!(nodes.len() <= 3, "local impacts cover at most 3 nodes");
        let mut buf = [0 as Node; 3];
        buf[..nodes.len()].copy_from_slice(nodes);
        RateImpact::Nodes { nodes: buf, len: nodes.len() as u8 }
    }

    /// The touched nodes, or `None` for a global impact.
    pub fn touched(&self) -> Option<&[Node]> {
        match self {
            RateImpact::Nodes { nodes, len } => Some(&nodes[..*len as usize]),
            RateImpact::Global => None,
        }
    }
}

/// Read-only answer to *"does `v` currently know the rumor?"*, handed
/// to [`TopologyModel::apply`] so informed-state-dependent models (the
/// frontier adversary) work in every engine: the sequential engine
/// closes over its informed-time vector, the sharded engine over its
/// shard states.
pub type InformedView<'a> = &'a dyn Fn(Node) -> bool;

/// A topology-evolution model, as consumed by the dynamic engines.
///
/// Implementations must follow the engines' RNG discipline: draw from
/// the RNG only when scheduling or applying actually needs randomness,
/// and schedule nothing when all rates are zero — that is what makes a
/// zero-rate model replay the static engine seed-for-seed.
pub trait TopologyModel {
    /// Schedules the model's initial events and applies any initial
    /// topology (e.g. the mobility model replaces `net`'s edges with
    /// the proximity graph of freshly drawn positions). `g` is the
    /// starting snapshot `net` was built from.
    fn init(
        &mut self,
        g: &Graph,
        net: &mut MutableGraph,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    );

    /// Applies one event at time `t`, schedules its successors, and
    /// reports the rate impact of the mutation.
    fn apply(
        &mut self,
        event: TopoEvent,
        t: f64,
        net: &mut MutableGraph,
        informed: InformedView<'_>,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact;

    /// The `(off_rate, on_rate)` per-edge chain rates if this model is
    /// independent two-state Markov per base edge — the memorylessness
    /// the lazy engine ([`crate::engine::run_edge_markov_lazy`]) needs to
    /// resolve edges on touch instead of scheduling events. `None` for
    /// models with cross-edge or informed-state coupling.
    fn memoryless_edge_rates(&self) -> Option<(f64, f64)> {
        None
    }

    /// v2 ([`rumor_sim::events::RngContract::V2`]) initialization:
    /// applies any initial topology, schedules only *deterministic*
    /// events into `queue`, and returns how many stochastic channels
    /// the model drives through [`channel_weight`](Self::channel_weight)
    /// and [`fire`](Self::fire). The default routes to [`init`](Self::init)
    /// and reports zero channels — correct for models whose events are
    /// all deterministic (static, periodic rewiring, trace replay),
    /// which therefore consume the identical stream under both
    /// contracts.
    fn init_channels(
        &mut self,
        g: &Graph,
        net: &mut MutableGraph,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> usize {
        self.init(g, net, queue, rng);
        0
    }

    /// Current total rate of stochastic channel `ch` (e.g. *number of
    /// present edges × off-rate*). The scheduler re-reads every channel
    /// after each event it delivers, so implementations just compute
    /// the exact value from model state — no delta bookkeeping at this
    /// boundary.
    fn channel_weight(&self, ch: usize) -> f64 {
        let _ = ch;
        0.0
    }

    /// Applies one stochastic arrival thinned to channel `ch` at time
    /// `t`: the model draws *which* member of the channel fires
    /// (uniform over its flat member table), mutates the topology, and
    /// schedules any deterministic follow-ups into `queue`. Only
    /// called for `ch < init_channels(..)`.
    fn fire(
        &mut self,
        ch: usize,
        t: f64,
        net: &mut MutableGraph,
        informed: InformedView<'_>,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        let _ = (ch, t, net, informed, queue, rng);
        unreachable!("model reported no stochastic channels")
    }

    /// Opt-in to incremental informed-set deltas: a model that returns
    /// `true` receives [`note_informed`](Self::note_informed) for the
    /// source and every node the protocol informs, instead of
    /// re-deriving informed state from the [`InformedView`] on each
    /// event. Only the v2 sequential engine offers the feed (the
    /// sharded engine's windows report counts, not identities);
    /// models must stay correct without it.
    fn enable_informed_tracking(&mut self) -> bool {
        false
    }

    /// Delta feed for [`enable_informed_tracking`](Self::enable_informed_tracking):
    /// `v` just became informed, under the topology currently in `net`.
    fn note_informed(&mut self, v: Node, net: &MutableGraph) {
        let _ = (v, net);
    }
}

/// Receives a [`DynamicModel`]'s concrete run state from
/// [`DynamicModel::with_state`], so code generic over the state type —
/// an engine loop — is compiled per model.
pub trait StateVisitor {
    /// What the visit produces.
    type Output;

    /// Called once with the model's freshly built run state.
    fn visit<M: TopologyModel + 'static>(self, state: M) -> Self::Output;
}

impl DynamicModel {
    /// Builds this model's run state as its concrete type and hands it
    /// to `visitor` — the one place a descriptor becomes a state. Code
    /// that visits here monomorphizes over the state: the per-event
    /// `fire` / `channel_weight` calls inline instead of going through
    /// the vtable, which is worth ~10% on the event-dense models. Same
    /// computation, same draws — goldens are dispatch-blind.
    pub fn with_state<V: StateVisitor>(&self, visitor: V) -> V::Output {
        match *self {
            DynamicModel::Static => visitor.visit(StaticState),
            DynamicModel::EdgeMarkov(m) => visitor.visit(EdgeMarkovState::new(m)),
            DynamicModel::Rewire(m) => visitor.visit(RewireState::new(m)),
            DynamicModel::NodeChurn(m) => visitor.visit(NodeChurnState::new(m)),
            DynamicModel::RandomWalk(m) => visitor.visit(RandomWalkState::new(m)),
            DynamicModel::Mobility(m) => visitor.visit(MobilityState::new(m)),
            DynamicModel::Adversary(m) => visitor.visit(AdversaryState::new(m)),
        }
    }

    /// Builds the run state machine for this model behind the
    /// [`TopologyModel`] interface.
    pub fn build_state(&self) -> Box<dyn TopologyModel> {
        struct Boxed;
        impl StateVisitor for Boxed {
            type Output = Box<dyn TopologyModel>;
            fn visit<M: TopologyModel + 'static>(self, state: M) -> Self::Output {
                Box::new(state)
            }
        }
        self.with_state(Boxed)
    }
}

/// The no-op model: no events, no randomness, the static process.
pub(crate) struct StaticState;

impl TopologyModel for StaticState {
    fn init(
        &mut self,
        _g: &Graph,
        _net: &mut MutableGraph,
        _queue: &mut EventQueue<TopoEvent>,
        _rng: &mut Xoshiro256PlusPlus,
    ) {
    }

    fn apply(
        &mut self,
        _event: TopoEvent,
        _t: f64,
        _net: &mut MutableGraph,
        _informed: InformedView<'_>,
        _queue: &mut EventQueue<TopoEvent>,
        _rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        unreachable!("the static model schedules no events")
    }

    fn memoryless_edge_rates(&self) -> Option<(f64, f64)> {
        // Rates 0/0 freeze every edge in its starting state.
        Some((0.0, 0.0))
    }
}

/// Edge-Markov churn: independent on/off chains per base edge.
pub(crate) struct EdgeMarkovState {
    base: Vec<(Node, Node)>,
    present: Vec<bool>,
    off: f64,
    on: f64,
    /// v2 channel-member table: a flat swap-partition of the edge
    /// pairs themselves, the present edges in `members[..n_present]`
    /// and the absent ones after — O(1) to move an edge across the
    /// boundary when it flips, O(1) to draw a uniform member of either
    /// side, and no indirection through `base` on the hot path.
    members: Vec<(Node, Node)>,
    n_present: usize,
}

impl EdgeMarkovState {
    pub(crate) fn new(m: EdgeMarkov) -> Self {
        // Pooled: one state is built per realization, and the base edge
        // list + presence bitmap + member table are the run's largest
        // model buffers.
        Self {
            base: arena::take_pairs(),
            present: arena::take_flags(),
            off: m.off_rate,
            on: m.on_rate,
            members: arena::take_pairs(),
            n_present: 0,
        }
    }
}

impl Drop for EdgeMarkovState {
    fn drop(&mut self) {
        arena::give_pairs(std::mem::take(&mut self.base));
        arena::give_pairs(std::mem::take(&mut self.members));
        arena::give_flags(std::mem::take(&mut self.present));
    }
}

impl TopologyModel for EdgeMarkovState {
    fn init(
        &mut self,
        g: &Graph,
        _net: &mut MutableGraph,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) {
        self.base.extend(g.edges());
        self.present.resize(self.base.len(), true);
        if self.off > 0.0 {
            for i in 0..self.base.len() {
                queue.push(rng.exp(self.off), TopoEvent::Flip(i as u32));
            }
        }
    }

    fn apply(
        &mut self,
        event: TopoEvent,
        t: f64,
        net: &mut MutableGraph,
        _informed: InformedView<'_>,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        let TopoEvent::Flip(i) = event else {
            unreachable!("edge-Markov schedules only flips");
        };
        let i = i as usize;
        let (u, v) = self.base[i];
        if self.present[i] {
            net.remove_edge(u, v);
            self.present[i] = false;
            if self.on > 0.0 {
                queue.push(t + rng.exp(self.on), TopoEvent::Flip(i as u32));
            }
        } else {
            net.add_edge(u, v);
            self.present[i] = true;
            if self.off > 0.0 {
                queue.push(t + rng.exp(self.off), TopoEvent::Flip(i as u32));
            }
        }
        RateImpact::nodes(&[u, v])
    }

    fn memoryless_edge_rates(&self) -> Option<(f64, f64)> {
        Some((self.off, self.on))
    }

    fn init_channels(
        &mut self,
        g: &Graph,
        _net: &mut MutableGraph,
        _queue: &mut EventQueue<TopoEvent>,
        _rng: &mut Xoshiro256PlusPlus,
    ) -> usize {
        // `base` and `present` stay empty: the v2 path's edge state IS
        // the swap partition (pairs in `members[..n_present]` are
        // present, the rest absent); only the v1 `apply` path reads the
        // bitmap or indexes `base`.
        self.members.extend(g.edges());
        self.n_present = self.members.len();
        2
    }

    fn channel_weight(&self, ch: usize) -> f64 {
        match ch {
            0 => self.n_present as f64 * self.off,
            _ => (self.members.len() - self.n_present) as f64 * self.on,
        }
    }

    fn fire(
        &mut self,
        ch: usize,
        _t: f64,
        net: &mut MutableGraph,
        _informed: InformedView<'_>,
        _queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        let slot = if ch == 0 {
            rng.range_usize(self.n_present)
        } else {
            self.n_present + rng.range_usize(self.members.len() - self.n_present)
        };
        let (u, v) = self.members[slot];
        if ch == 0 {
            net.remove_edge(u, v);
            self.n_present -= 1;
            self.members.swap(slot, self.n_present);
        } else {
            // The swap partition is the proof of absence.
            net.add_edge_unchecked(u, v);
            self.members.swap(slot, self.n_present);
            self.n_present += 1;
        }
        RateImpact::nodes(&[u, v])
    }
}

/// Periodic full rewiring from a snapshot family.
pub(crate) struct RewireState {
    period: f64,
    family: SnapshotFamily,
}

impl RewireState {
    pub(crate) fn new(m: Rewire) -> Self {
        Self { period: m.period, family: m.family }
    }
}

impl TopologyModel for RewireState {
    fn init(
        &mut self,
        _g: &Graph,
        _net: &mut MutableGraph,
        queue: &mut EventQueue<TopoEvent>,
        _rng: &mut Xoshiro256PlusPlus,
    ) {
        if self.period.is_finite() {
            queue.push(self.period, TopoEvent::Snapshot);
        }
    }

    fn apply(
        &mut self,
        event: TopoEvent,
        t: f64,
        net: &mut MutableGraph,
        _informed: InformedView<'_>,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        let TopoEvent::Snapshot = event else {
            unreachable!("rewiring schedules only snapshots");
        };
        let snapshot = self.family.draw(net.node_count(), rng);
        net.replace_edges_with(&snapshot);
        queue.push(t + self.period, TopoEvent::Snapshot);
        RateImpact::Global
    }
}

/// Poisson node leave/join with rumor retention.
pub(crate) struct NodeChurnState {
    leave: f64,
    join: f64,
    attach: usize,
    /// v2 channel-member table: swap-partition of node ids, active
    /// nodes in `members[..n_active]`, departed nodes after.
    members: Vec<Node>,
    n_active: usize,
}

impl NodeChurnState {
    pub(crate) fn new(m: NodeChurn) -> Self {
        Self {
            leave: m.leave_rate,
            join: m.join_rate,
            attach: m.attach_degree,
            members: arena::take_nodes(),
            n_active: 0,
        }
    }
}

impl Drop for NodeChurnState {
    fn drop(&mut self) {
        arena::give_nodes(std::mem::take(&mut self.members));
    }
}

impl TopologyModel for NodeChurnState {
    fn init(
        &mut self,
        g: &Graph,
        _net: &mut MutableGraph,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) {
        if self.leave > 0.0 {
            for v in 0..g.node_count() as Node {
                queue.push(rng.exp(self.leave), TopoEvent::Toggle(v));
            }
        }
    }

    fn apply(
        &mut self,
        event: TopoEvent,
        t: f64,
        net: &mut MutableGraph,
        _informed: InformedView<'_>,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        let TopoEvent::Toggle(v) = event else {
            unreachable!("node churn schedules only toggles");
        };
        if net.is_active(v) {
            net.deactivate(v);
            if self.join > 0.0 {
                queue.push(t + rng.exp(self.join), TopoEvent::Toggle(v));
            }
        } else {
            net.activate(v);
            attach_node(net, v, self.attach, rng);
            if self.leave > 0.0 {
                queue.push(t + rng.exp(self.leave), TopoEvent::Toggle(v));
            }
        }
        // A toggle re-rates the node's whole (former) neighborhood.
        RateImpact::Global
    }

    fn init_channels(
        &mut self,
        g: &Graph,
        _net: &mut MutableGraph,
        _queue: &mut EventQueue<TopoEvent>,
        _rng: &mut Xoshiro256PlusPlus,
    ) -> usize {
        self.members.extend(0..g.node_count() as Node);
        self.n_active = g.node_count();
        2
    }

    fn channel_weight(&self, ch: usize) -> f64 {
        match ch {
            0 => self.n_active as f64 * self.leave,
            _ => (self.members.len() - self.n_active) as f64 * self.join,
        }
    }

    fn fire(
        &mut self,
        ch: usize,
        _t: f64,
        net: &mut MutableGraph,
        _informed: InformedView<'_>,
        _queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        if ch == 0 {
            let slot = rng.range_usize(self.n_active);
            let v = self.members[slot];
            net.deactivate(v);
            self.n_active -= 1;
            self.members.swap(slot, self.n_active);
        } else {
            let slot = self.n_active + rng.range_usize(self.members.len() - self.n_active);
            let v = self.members[slot];
            net.activate(v);
            attach_node(net, v, self.attach, rng);
            self.members.swap(slot, self.n_active);
            self.n_active += 1;
        }
        RateImpact::Global
    }
}

/// Random-walk edge dynamics: every live edge is a walker; at its
/// events one endpoint slides to a uniformly random base-graph neighbor
/// of its current position. Walkers occupy distinct vertex pairs by
/// construction (a step into an occupied pair is rejected), so the live
/// edge count is conserved.
pub(crate) struct RandomWalkState {
    base: Option<Graph>,
    rate: f64,
    /// Current endpoints of walker `i` (initially the base edges).
    edges: Vec<(Node, Node)>,
}

impl RandomWalkState {
    pub(crate) fn new(m: RandomWalk) -> Self {
        Self { base: None, rate: m.rate, edges: arena::take_pairs() }
    }
}

impl Drop for RandomWalkState {
    fn drop(&mut self) {
        arena::give_pairs(std::mem::take(&mut self.edges));
    }
}

impl TopologyModel for RandomWalkState {
    fn init(
        &mut self,
        g: &Graph,
        _net: &mut MutableGraph,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) {
        self.base = Some(g.clone()); // O(1): CSR arrays are Arc-shared
        self.edges.extend(g.edges());
        if self.rate > 0.0 {
            for i in 0..self.edges.len() {
                queue.push(rng.exp(self.rate), TopoEvent::Walk(i as u32));
            }
        }
    }

    fn apply(
        &mut self,
        event: TopoEvent,
        t: f64,
        net: &mut MutableGraph,
        _informed: InformedView<'_>,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        let TopoEvent::Walk(i) = event else {
            unreachable!("random-walk dynamics schedule only walks");
        };
        let (u, v) = self.edges[i as usize];
        // One endpoint anchors, the other re-samples along the base
        // graph: a single random-walk step from its current position.
        let (anchor, mover) = if rng.range_usize(2) == 0 { (u, v) } else { (v, u) };
        let target = self.base.as_ref().expect("init ran").random_neighbor(mover, rng);
        queue.push(t + rng.exp(self.rate), TopoEvent::Walk(i));
        if target == anchor || net.has_edge(anchor, target) {
            // Self-pair or occupied pair: the step is rejected and the
            // walker stays put (lazy-walk censoring).
            return RateImpact::nodes(&[]);
        }
        net.remove_edge(anchor, mover);
        net.add_edge(anchor, target);
        self.edges[i as usize] = (anchor, target);
        RateImpact::nodes(&[anchor, mover, target])
    }

    fn init_channels(
        &mut self,
        g: &Graph,
        _net: &mut MutableGraph,
        _queue: &mut EventQueue<TopoEvent>,
        _rng: &mut Xoshiro256PlusPlus,
    ) -> usize {
        self.base = Some(g.clone()); // O(1): CSR arrays are Arc-shared
        self.edges.extend(g.edges());
        1
    }

    fn channel_weight(&self, _ch: usize) -> f64 {
        self.edges.len() as f64 * self.rate
    }

    fn fire(
        &mut self,
        _ch: usize,
        _t: f64,
        net: &mut MutableGraph,
        _informed: InformedView<'_>,
        _queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        // All walkers share one rate, so the arrival thins uniformly.
        // One draw over `2m` outcomes picks the walker AND which
        // endpoint anchors — (i, dir) are independent and uniform.
        let x = rng.range_usize(2 * self.edges.len());
        let i = x >> 1;
        let (u, v) = self.edges[i];
        let (anchor, mover) = if x & 1 == 0 { (u, v) } else { (v, u) };
        let target = self.base.as_ref().expect("init ran").random_neighbor(mover, rng);
        // `slide_edge` fuses the occupied-pair probe with the move —
        // one scan of the anchor's list instead of three.
        if target == anchor || !net.slide_edge(anchor, mover, target) {
            return RateImpact::nodes(&[]);
        }
        self.edges[i] = (anchor, target);
        RateImpact::nodes(&[anchor, mover, target])
    }
}

/// Geometric mobility: nodes live in the unit square, edges connect
/// pairs within the connection radius, and nodes take bounded random
/// steps at Poisson times. Positions are indexed by a [`GridIndex`] so
/// each move costs O(neighborhood occupancy).
pub(crate) struct MobilityState {
    cfg: Mobility,
    grid: Option<GridIndex>,
    n: usize,
    scratch: Vec<Node>,
    /// Pre-move adjacency of the moving node (reused across events).
    old: Vec<Node>,
}

impl MobilityState {
    pub(crate) fn new(m: Mobility) -> Self {
        Self { cfg: m, grid: None, n: 0, scratch: arena::take_nodes(), old: arena::take_nodes() }
    }

    /// Draws positions, indexes them, and installs the proximity graph
    /// — the placement phase shared by both contracts' inits.
    fn place_nodes(&mut self, g: &Graph, net: &mut MutableGraph, rng: &mut Xoshiro256PlusPlus) {
        let n = g.node_count();
        self.n = n;
        let mut positions = arena::take_positions();
        positions.extend((0..n).map(|_| (rng.f64_unit(), rng.f64_unit())));
        let grid = GridIndex::new(positions, self.cfg.radius);
        // The starting topology is the proximity graph of the drawn
        // positions, not the caller's base graph (which only fixes n).
        let mut b = GraphBuilder::new(n);
        for (u, v) in grid.proximity_edges() {
            b.add_edge(u, v);
        }
        net.replace_edges_with(&b.build().expect("proximity edges are simple"));
        self.grid = Some(grid);
    }

    /// One bounded random step of node `v` plus the proximity-edge diff
    /// — everything a move event does except its rescheduling.
    fn step_node(&mut self, v: Node, net: &mut MutableGraph, rng: &mut Xoshiro256PlusPlus) {
        let grid = self.grid.as_mut().expect("init ran");
        let (x, y) = grid.position(v);
        let step = self.cfg.step;
        let nx = (x + (2.0 * rng.f64_unit() - 1.0) * step).clamp(0.0, 1.0);
        let ny = (y + (2.0 * rng.f64_unit() - 1.0) * step).clamp(0.0, 1.0);
        grid.move_to(v, nx, ny);
        grid.within_radius(v, &mut self.scratch);
        // Diff the sorted current adjacency against the sorted radius
        // query: drop edges that fell out of range, add the newcomers.
        self.old.clear();
        self.old.extend(net.neighbors(v));
        for &w in self.old.iter().filter(|w| !self.scratch.contains(w)) {
            net.remove_edge(v, w);
        }
        for &w in self.scratch.iter().filter(|w| !self.old.contains(w)) {
            net.add_edge(v, w);
        }
    }
}

impl Drop for MobilityState {
    fn drop(&mut self) {
        arena::give_nodes(std::mem::take(&mut self.scratch));
        arena::give_nodes(std::mem::take(&mut self.old));
    }
}

impl TopologyModel for MobilityState {
    fn init(
        &mut self,
        g: &Graph,
        net: &mut MutableGraph,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) {
        self.place_nodes(g, net, rng);
        if self.cfg.move_rate > 0.0 {
            for v in 0..self.n as Node {
                queue.push(rng.exp(self.cfg.move_rate), TopoEvent::Move(v));
            }
        }
    }

    fn apply(
        &mut self,
        event: TopoEvent,
        t: f64,
        net: &mut MutableGraph,
        _informed: InformedView<'_>,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        let TopoEvent::Move(v) = event else {
            unreachable!("mobility schedules only moves");
        };
        self.step_node(v, net, rng);
        queue.push(t + rng.exp(self.cfg.move_rate), TopoEvent::Move(v));
        // The gained/lost neighbors' degrees changed too.
        RateImpact::Global
    }

    fn init_channels(
        &mut self,
        g: &Graph,
        net: &mut MutableGraph,
        _queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> usize {
        self.place_nodes(g, net, rng);
        1
    }

    fn channel_weight(&self, _ch: usize) -> f64 {
        self.n as f64 * self.cfg.move_rate
    }

    fn fire(
        &mut self,
        _ch: usize,
        _t: f64,
        net: &mut MutableGraph,
        _informed: InformedView<'_>,
        _queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        // Every node moves at the same rate: thin uniformly.
        let v = rng.range_usize(self.n) as Node;
        self.step_node(v, net, rng);
        RateImpact::Global
    }
}

/// Budget-limited adversarial removal of the informed/uninformed
/// frontier: at each strike the adversary cuts up to `budget` edges
/// with exactly one informed endpoint — the worst-case dynamics the
/// paper's lower bounds gesture at. Cut edges heal after a fixed delay
/// (never, if the delay is infinite).
pub(crate) struct AdversaryState {
    cfg: Adversary,
    /// Slab of cut edges awaiting their heal event; slots are recycled
    /// through `free` once healed, so memory is bounded by the number
    /// of *concurrently* healing edges, not the total ever cut.
    healing: Vec<(Node, Node)>,
    /// Healed slab slots available for reuse.
    free: Vec<u32>,
    /// Edges selected by the current strike (reused across strikes).
    cut: Vec<(Node, Node)>,
    /// Whether the engine feeds informed-set deltas (v2 sequential).
    tracking: bool,
    /// Informed bitmap mirrored from [`TopologyModel::note_informed`].
    informed: Vec<bool>,
    /// The live frontier, maintained incrementally: every present edge
    /// with exactly one informed endpoint, keyed `(informed,
    /// uninformed)`. Strikes cut the lexicographically smallest
    /// entries — a deterministic order, like the v1 scan's, just a
    /// different one (each contract pins its own golden stream).
    boundary: BTreeSet<(Node, Node)>,
}

impl AdversaryState {
    pub(crate) fn new(m: Adversary) -> Self {
        Self {
            cfg: m,
            healing: Vec::new(),
            free: Vec::new(),
            cut: arena::take_pairs(),
            tracking: false,
            informed: Vec::new(),
            boundary: BTreeSet::new(),
        }
    }

    fn is_informed(&self, v: Node) -> bool {
        self.informed.get(v as usize).copied().unwrap_or(false)
    }

    /// Cuts `edge`, scheduling its heal if healing is configured.
    fn cut_edge(
        &mut self,
        edge: (Node, Node),
        t: f64,
        net: &mut MutableGraph,
        queue: &mut EventQueue<TopoEvent>,
    ) {
        let (u, w) = edge;
        net.remove_edge(u, w);
        if self.cfg.heal_after.is_finite() {
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.healing[slot as usize] = (u, w);
                    slot
                }
                None => {
                    self.healing.push((u, w));
                    (self.healing.len() - 1) as u32
                }
            };
            queue.push(t + self.cfg.heal_after, TopoEvent::Heal(slot));
        }
    }
}

impl Drop for AdversaryState {
    fn drop(&mut self) {
        arena::give_pairs(std::mem::take(&mut self.cut));
    }
}

impl TopologyModel for AdversaryState {
    fn init(
        &mut self,
        _g: &Graph,
        _net: &mut MutableGraph,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) {
        if self.cfg.rate > 0.0 {
            queue.push(rng.exp(self.cfg.rate), TopoEvent::Strike);
        }
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
        match event {
            TopoEvent::Strike => {
                self.cut.clear();
                'scan: for v in 0..net.node_count() as Node {
                    if !informed(v) {
                        continue;
                    }
                    for &w in net.neighbors(v) {
                        if !informed(w) {
                            self.cut.push((v, w));
                            if self.cut.len() == self.cfg.budget {
                                break 'scan;
                            }
                        }
                    }
                }
                for k in 0..self.cut.len() {
                    let edge = self.cut[k];
                    self.cut_edge(edge, t, net, queue);
                }
                queue.push(t + rng.exp(self.cfg.rate), TopoEvent::Strike);
                RateImpact::Global
            }
            TopoEvent::Heal(i) => {
                let (u, w) = self.healing[i as usize];
                self.free.push(i);
                if net.is_active(u) && net.is_active(w) {
                    net.add_edge(u, w);
                    // Under delta tracking the healed edge rejoins the
                    // frontier if it still has exactly one informed
                    // endpoint. (No-op on the v1 path: tracking stays
                    // false there.)
                    if self.tracking && self.is_informed(u) != self.is_informed(w) {
                        self.boundary.insert(if self.is_informed(u) { (u, w) } else { (w, u) });
                    }
                }
                RateImpact::nodes(&[u, w])
            }
            _ => unreachable!("the adversary schedules only strikes and heals"),
        }
    }

    fn init_channels(
        &mut self,
        _g: &Graph,
        _net: &mut MutableGraph,
        _queue: &mut EventQueue<TopoEvent>,
        _rng: &mut Xoshiro256PlusPlus,
    ) -> usize {
        // Strikes are the one stochastic channel; heals stay
        // deterministic side-queue events.
        1
    }

    fn channel_weight(&self, _ch: usize) -> f64 {
        self.cfg.rate
    }

    fn fire(
        &mut self,
        _ch: usize,
        t: f64,
        net: &mut MutableGraph,
        informed: InformedView<'_>,
        queue: &mut EventQueue<TopoEvent>,
        _rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        // The v2 strike law: cut the `budget` lexicographically
        // smallest `(informed, uninformed)` frontier edges. With delta
        // tracking those come straight off the incrementally maintained
        // boundary — O(budget · log F) instead of the v1 path's
        // O(frontier) informed-set rescan. Engines that cannot feed
        // deltas (the sharded coordinator's windows report counts, not
        // identities) recompute the same set from the view, so both
        // paths produce the identical event stream.
        self.cut.clear();
        if self.tracking {
            while self.cut.len() < self.cfg.budget {
                let Some(edge) = self.boundary.pop_first() else {
                    break;
                };
                self.cut.push(edge);
            }
        } else {
            for v in 0..net.node_count() as Node {
                if !informed(v) {
                    continue;
                }
                for &w in net.neighbors(v) {
                    if !informed(w) {
                        self.cut.push((v, w));
                    }
                }
            }
            self.cut.sort_unstable();
            self.cut.truncate(self.cfg.budget);
        }
        for k in 0..self.cut.len() {
            let edge = self.cut[k];
            self.cut_edge(edge, t, net, queue);
        }
        RateImpact::Global
    }

    fn enable_informed_tracking(&mut self) -> bool {
        self.tracking = true;
        true
    }

    fn note_informed(&mut self, v: Node, net: &MutableGraph) {
        if !self.tracking {
            return;
        }
        if self.informed.len() < net.node_count() {
            self.informed.resize(net.node_count(), false);
        }
        if std::mem::replace(&mut self.informed[v as usize], true) {
            return;
        }
        // v crossed the frontier: edges into the informed set leave the
        // boundary, edges to still-uninformed neighbors join it.
        for &w in net.neighbors(v) {
            if self.informed[w as usize] {
                self.boundary.remove(&(w, v));
            } else {
                self.boundary.insert((v, w));
            }
        }
    }
}

/// Wires a (re)joining node to up to `attach` distinct random active
/// nodes, by rejection sampling over node indices.
fn attach_node(net: &mut MutableGraph, v: Node, attach: usize, rng: &mut Xoshiro256PlusPlus) {
    let n = net.node_count();
    let candidates = net.active_count().saturating_sub(1);
    let want = attach.min(candidates);
    let mut added = 0;
    // Each accepted candidate succeeds with probability >= 1/n per draw,
    // so 64·n draws fail with negligible probability; give up rather
    // than loop forever when almost everyone is away.
    let mut budget = 64usize.saturating_mul(n);
    while added < want && budget > 0 {
        budget -= 1;
        let u = rng.range_usize(n) as Node;
        if u != v && net.is_active(u) && net.add_edge(v, u) {
            added += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_graph::generators;

    /// The adversary's incremental boundary equals a brute-force
    /// frontier recomputation after an arbitrary interleaving of
    /// informs, strikes, and heals (satellite of the v2 scheduler PR:
    /// the per-strike O(frontier) rescan is gone from the v2 path).
    #[test]
    fn adversary_incremental_boundary_matches_rescan() {
        for seed in 0..8u64 {
            let mut rng = Xoshiro256PlusPlus::seed_from(900 + seed);
            let g = generators::gnp_connected(40, 0.12, &mut rng, 100);
            let mut net = MutableGraph::from_graph(&g);
            let mut state =
                AdversaryState::new(Adversary { rate: 1.0, budget: 3, heal_after: 0.5 });
            assert!(state.enable_informed_tracking());
            let mut queue = EventQueue::new();
            let channels = state.init_channels(&g, &mut net, &mut queue, &mut rng);
            assert_eq!(channels, 1);

            state.note_informed(0, &net);
            let mut t = 0.0;
            for round in 0..200 {
                t += 0.1;
                match rng.range_usize(3) {
                    0 => {
                        let v = rng.range_usize(net.node_count()) as Node;
                        state.note_informed(v, &net);
                    }
                    1 => {
                        let informed = state.informed.clone();
                        state.fire(
                            0,
                            t,
                            &mut net,
                            &|v| informed.get(v as usize).copied().unwrap_or(false),
                            &mut queue,
                            &mut rng,
                        );
                    }
                    _ => {
                        if let Some((ht, ev)) = queue.pop() {
                            let informed = state.informed.clone();
                            state.apply(
                                ev,
                                ht.max(t),
                                &mut net,
                                &|v| informed.get(v as usize).copied().unwrap_or(false),
                                &mut queue,
                                &mut rng,
                            );
                        }
                    }
                }
                // Brute-force frontier from the bitmap + live topology.
                let mut expect = BTreeSet::new();
                for v in 0..net.node_count() as Node {
                    if !state.is_informed(v) {
                        continue;
                    }
                    for &w in net.neighbors(v) {
                        if !state.is_informed(w) {
                            expect.insert((v, w));
                        }
                    }
                }
                assert_eq!(
                    state.boundary, expect,
                    "seed {seed} round {round}: boundary diverged from rescan"
                );
            }
        }
    }

    /// Channel weights track the swap-partition boundaries exactly.
    #[test]
    fn edge_markov_channel_weights_track_flips() {
        let mut rng = Xoshiro256PlusPlus::seed_from(21);
        let g = generators::gnp_connected(32, 0.2, &mut rng, 100);
        let mut net = MutableGraph::from_graph(&g);
        let mut state = EdgeMarkovState::new(EdgeMarkov { off_rate: 2.0, on_rate: 0.5 });
        let mut queue = EventQueue::new();
        assert_eq!(state.init_channels(&g, &mut net, &mut queue, &mut rng), 2);
        assert!(queue.is_empty(), "edge-Markov v2 schedules nothing eagerly");
        let e = g.edge_count() as f64;
        assert_eq!(state.channel_weight(0), e * 2.0);
        assert_eq!(state.channel_weight(1), 0.0);
        let informed = |_: Node| false;
        for _ in 0..50 {
            state.fire(0, 1.0, &mut net, &informed, &mut queue, &mut rng);
        }
        assert_eq!(state.channel_weight(0), (e - 50.0) * 2.0);
        assert_eq!(state.channel_weight(1), 50.0 * 0.5);
        for _ in 0..50 {
            state.fire(1, 2.0, &mut net, &informed, &mut queue, &mut rng);
        }
        assert_eq!(net.to_graph().edge_count(), g.edge_count());
        assert_eq!(state.channel_weight(1), 0.0);
    }
}
