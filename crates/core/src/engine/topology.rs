//! The pluggable topology-model layer shared by every dynamic engine.
//!
//! [`TopologyModel`] is the one interface through which the engines
//! consume topology evolution. A model reports its stochastic event
//! classes as *channels* with a current total rate
//! ([`TopologyModel::channel_weight`]); the engine's
//! [`TopoDriver`](crate::engine::TopoDriver) draws one superposed
//! arrival, thins it to a channel, and the model picks the firing
//! member and mutates the [`MutableGraph`] (*fire*). A model keeps at
//! most one deterministic event pending (a rewire snapshot, the oldest
//! heal, the next trace replay step) and reports its time through
//! [`TopologyModel::next_due`]; the driver applies it through *apply*
//! when it comes before the next arrival. The sequential engine
//! ([`crate::run_dynamic`]) interleaves the events with protocol ticks
//! and feeds every newly informed node back through
//! [`TopologyModel::note_informed`]; a standalone trace recording
//! drives the same events on their own.
//!
//! Six models are implemented behind the trait: edge-Markov flips,
//! periodic rewiring, node churn, random-walk edge dynamics, geometric
//! mobility on a [`GridIndex`], and budget-limited adversarial removal
//! of the informed/uninformed frontier.

use std::collections::{BTreeSet, VecDeque};

use rumor_graph::arena;
use rumor_graph::dynamic::MutableGraph;
use rumor_graph::geometry::GridIndex;
use rumor_graph::{Graph, GraphBuilder, Node};
use rumor_sim::rng::Xoshiro256PlusPlus;

use crate::dynamic::{
    Adversary, DynamicModel, EdgeMarkov, Mobility, NodeChurn, RandomWalk, Rewire, SnapshotFamily,
};

/// A topology-evolution model, as consumed by the dynamic engines.
///
/// Implementations must follow the engines' RNG discipline: draw from
/// the RNG only when firing or applying actually needs randomness, and
/// report zero channel weight when all rates are zero — that is what
/// makes a zero-rate model replay the static engine seed-for-seed.
pub trait TopologyModel {
    /// Applies any initial topology (e.g. the mobility model replaces
    /// `net`'s edges with the proximity graph of freshly drawn
    /// positions), schedules the model's first deterministic event (see
    /// [`next_due`](Self::next_due)), and returns how many stochastic
    /// channels the model drives through
    /// [`channel_weight`](Self::channel_weight) and [`fire`](Self::fire).
    /// `g` is the starting snapshot `net` was built from.
    fn init(&mut self, g: &Graph, net: &mut MutableGraph, rng: &mut Xoshiro256PlusPlus) -> usize;

    /// Time of the model's one pending deterministic event, `INFINITY`
    /// when none is due. The driver re-reads it after `init` and after
    /// every event it delivers; it may record ahead (a replay over a
    /// live recording) but consumes no engine randomness.
    fn next_due(&mut self) -> f64 {
        f64::INFINITY
    }

    /// Applies the deterministic event [`next_due`](Self::next_due)
    /// reported, at that time `t`. Only called when it is finite.
    fn apply(&mut self, t: f64, net: &mut MutableGraph, rng: &mut Xoshiro256PlusPlus) {
        let _ = (t, net, rng);
        unreachable!("model reported no due events")
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
    /// (uniform over its flat member table) and mutates the topology;
    /// a deterministic follow-up shows in its next
    /// [`next_due`](Self::next_due). Only called for `ch < init(..)`.
    fn fire(&mut self, ch: usize, t: f64, net: &mut MutableGraph, rng: &mut Xoshiro256PlusPlus) {
        let _ = (ch, t, net, rng);
        unreachable!("model reported no stochastic channels")
    }

    /// Informed-set feed: `v` just became informed, under the topology
    /// currently in `net`. The sequential engine calls it for the
    /// source and every node the protocol informs; a standalone trace
    /// recording calls it for the source alone. Informed-state-dependent
    /// models (the frontier adversary) maintain their view from it; the
    /// default ignores it.
    fn note_informed(&mut self, v: Node, net: &MutableGraph) {
        let _ = (v, net);
    }
}

impl DynamicModel {
    /// Builds the run state machine for this model behind the
    /// [`TopologyModel`] interface — the one place a descriptor becomes
    /// a state, so one model engine is compiled, not one per model.
    /// The per-event `fire` / `channel_weight` calls go through the
    /// vtable. Against an engine monomorphized per model that costs
    /// about 2% of the benchmark's `dynamic_models` throughput; the
    /// bare run on markov, G(256, 0.05) reads 1.037 → 1.110 ms at min
    /// (2 vCPUs). Same computation, same draws. Asserts `check`.
    pub fn build_state(&self) -> Box<dyn TopologyModel + Send> {
        self.check().unwrap_or_else(|rule| panic!("{rule}"));
        match *self {
            DynamicModel::Static => Box::new(StaticState),
            DynamicModel::EdgeMarkov(m) => Box::new(EdgeMarkovState::new(m)),
            DynamicModel::Rewire(m) => Box::new(RewireState::new(m)),
            DynamicModel::NodeChurn(m) => Box::new(NodeChurnState::new(m)),
            DynamicModel::RandomWalk(m) => Box::new(RandomWalkState::new(m)),
            DynamicModel::Mobility(m) => Box::new(MobilityState::new(m)),
            DynamicModel::Adversary(m) => Box::new(AdversaryState::new(m)),
        }
    }
}

/// The no-op model: no events, no randomness, the static process.
pub(crate) struct StaticState;

impl TopologyModel for StaticState {
    fn init(
        &mut self,
        _g: &Graph,
        _net: &mut MutableGraph,
        _rng: &mut Xoshiro256PlusPlus,
    ) -> usize {
        0
    }
}

/// Edge-Markov churn: independent on/off chains per base edge.
pub(crate) struct EdgeMarkovState {
    off: f64,
    on: f64,
    /// Channel-member table and the whole edge state: a flat
    /// swap-partition of the edge pairs themselves, the present edges
    /// in `members[..n_present]` and the absent ones after — O(1) to
    /// move an edge across the boundary when it flips, O(1) to draw a
    /// uniform member of either side.
    members: Vec<(Node, Node)>,
    n_present: usize,
}

impl EdgeMarkovState {
    pub(crate) fn new(m: EdgeMarkov) -> Self {
        // Pooled: one state is built per realization, and the member
        // table is the run's largest model buffer.
        Self { off: m.off_rate, on: m.on_rate, members: arena::take_pairs(), n_present: 0 }
    }
}

impl Drop for EdgeMarkovState {
    fn drop(&mut self) {
        arena::give_pairs(std::mem::take(&mut self.members));
    }
}

impl TopologyModel for EdgeMarkovState {
    fn init(&mut self, g: &Graph, _net: &mut MutableGraph, _rng: &mut Xoshiro256PlusPlus) -> usize {
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

    fn fire(&mut self, ch: usize, _t: f64, net: &mut MutableGraph, rng: &mut Xoshiro256PlusPlus) {
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
    }
}

/// Periodic full rewiring from a snapshot family.
pub(crate) struct RewireState {
    period: f64,
    family: SnapshotFamily,
    /// Time of the next snapshot (`INFINITY` for an infinite period).
    next: f64,
}

impl RewireState {
    pub(crate) fn new(m: Rewire) -> Self {
        Self { period: m.period, family: m.family, next: f64::INFINITY }
    }
}

impl TopologyModel for RewireState {
    fn init(
        &mut self,
        _g: &Graph,
        _net: &mut MutableGraph,
        _rng: &mut Xoshiro256PlusPlus,
    ) -> usize {
        // Snapshots come at fixed times: no stochastic channel at all.
        self.next = self.period;
        0
    }

    fn next_due(&mut self) -> f64 {
        self.next
    }

    fn apply(&mut self, t: f64, net: &mut MutableGraph, rng: &mut Xoshiro256PlusPlus) {
        let snapshot = self.family.draw(net.node_count(), rng);
        net.replace_edges_with(&snapshot);
        self.next = t + self.period;
    }
}

/// Poisson node leave/join with rumor retention.
pub(crate) struct NodeChurnState {
    leave: f64,
    join: f64,
    attach: usize,
    /// Channel-member table: swap-partition of node ids, active nodes
    /// in `members[..n_active]`, departed nodes after.
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
    fn init(&mut self, g: &Graph, _net: &mut MutableGraph, _rng: &mut Xoshiro256PlusPlus) -> usize {
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

    fn fire(&mut self, ch: usize, _t: f64, net: &mut MutableGraph, rng: &mut Xoshiro256PlusPlus) {
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
    fn init(&mut self, g: &Graph, _net: &mut MutableGraph, _rng: &mut Xoshiro256PlusPlus) -> usize {
        self.base = Some(g.clone()); // O(1): CSR arrays are Arc-shared
        self.edges.extend(g.edges());
        1
    }

    fn channel_weight(&self, _ch: usize) -> f64 {
        self.edges.len() as f64 * self.rate
    }

    fn fire(&mut self, _ch: usize, _t: f64, net: &mut MutableGraph, rng: &mut Xoshiro256PlusPlus) {
        // All walkers share one rate, so the arrival thins uniformly.
        // One draw over `2m` outcomes picks the walker AND which
        // endpoint anchors — (i, dir) are independent and uniform. The
        // mover then takes one random-walk step along the base graph.
        let x = rng.range_usize(2 * self.edges.len());
        let i = x >> 1;
        let (u, v) = self.edges[i];
        let (anchor, mover) = if x & 1 == 0 { (u, v) } else { (v, u) };
        let target = self.base.as_ref().expect("init ran").random_neighbor(mover, rng);
        // `slide_edge` fuses the occupied-pair probe with the move —
        // one scan of the anchor's list instead of three. A self-pair
        // or occupied pair rejects the step and the walker stays put
        // (lazy-walk censoring).
        if target == anchor || !net.slide_edge(anchor, mover, target) {
            return;
        }
        self.edges[i] = (anchor, target);
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
    /// The moving node's radius query (reused across events).
    scratch: Vec<Node>,
}

impl MobilityState {
    pub(crate) fn new(m: Mobility) -> Self {
        Self { cfg: m, grid: None, n: 0, scratch: arena::take_nodes() }
    }

    /// Draws positions, indexes them, and installs the proximity graph.
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

    /// One bounded random step of node `v` plus the proximity-edge diff.
    fn step_node(&mut self, v: Node, net: &mut MutableGraph, rng: &mut Xoshiro256PlusPlus) {
        let grid = self.grid.as_mut().expect("init ran");
        let (x, y) = grid.position(v);
        let step = self.cfg.step;
        let nx = (x + (2.0 * rng.f64_unit() - 1.0) * step).clamp(0.0, 1.0);
        let ny = (y + (2.0 * rng.f64_unit() - 1.0) * step).clamp(0.0, 1.0);
        grid.move_to(v, nx, ny);
        // The ascending radius query is `v`'s new adjacency: edges that
        // fell out of range drop, newcomers join in ascending order.
        grid.within_radius(v, &mut self.scratch);
        net.set_neighbors(v, &self.scratch);
    }
}

impl Drop for MobilityState {
    fn drop(&mut self) {
        arena::give_nodes(std::mem::take(&mut self.scratch));
    }
}

impl TopologyModel for MobilityState {
    fn init(&mut self, g: &Graph, net: &mut MutableGraph, rng: &mut Xoshiro256PlusPlus) -> usize {
        self.place_nodes(g, net, rng);
        1
    }

    fn channel_weight(&self, _ch: usize) -> f64 {
        self.n as f64 * self.cfg.move_rate
    }

    fn fire(&mut self, _ch: usize, _t: f64, net: &mut MutableGraph, rng: &mut Xoshiro256PlusPlus) {
        // Every node moves at the same rate: thin uniformly.
        let v = rng.range_usize(self.n) as Node;
        self.step_node(v, net, rng);
    }
}

/// Budget-limited adversarial removal of the informed/uninformed
/// frontier: at each strike the adversary cuts up to `budget` edges
/// with exactly one informed endpoint — the worst-case dynamics the
/// paper's lower bounds gesture at. Cut edges heal after a fixed delay
/// (never, if the delay is infinite).
pub(crate) struct AdversaryState {
    cfg: Adversary,
    /// Cut edges awaiting their heal, with its time, in cut order. Every
    /// heal comes the same fixed delay after its cut and cut times never
    /// decrease, so this is also heal order — with ties in cut order —
    /// and the head is the model's one due event.
    healing: VecDeque<(f64, Node, Node)>,
    /// Informed bitmap mirrored from [`TopologyModel::note_informed`].
    informed: Vec<bool>,
    /// The live frontier, maintained incrementally: every present edge
    /// with exactly one informed endpoint, keyed `(informed,
    /// uninformed)`. Strikes cut the lexicographically smallest
    /// entries.
    boundary: BTreeSet<(Node, Node)>,
}

impl AdversaryState {
    pub(crate) fn new(m: Adversary) -> Self {
        Self { cfg: m, healing: VecDeque::new(), informed: Vec::new(), boundary: BTreeSet::new() }
    }

    fn is_informed(&self, v: Node) -> bool {
        self.informed.get(v as usize).copied().unwrap_or(false)
    }

    /// Cuts `edge`, scheduling its heal if healing is configured.
    fn cut_edge(&mut self, (u, w): (Node, Node), t: f64, net: &mut MutableGraph) {
        net.remove_edge(u, w);
        if self.cfg.heal_after.is_finite() {
            self.healing.push_back((t + self.cfg.heal_after, u, w));
        }
    }
}

impl TopologyModel for AdversaryState {
    fn init(
        &mut self,
        _g: &Graph,
        _net: &mut MutableGraph,
        _rng: &mut Xoshiro256PlusPlus,
    ) -> usize {
        // Strikes are the one stochastic channel; heals are the
        // deterministic due events.
        1
    }

    fn next_due(&mut self) -> f64 {
        self.healing.front().map_or(f64::INFINITY, |&(at, ..)| at)
    }

    fn apply(&mut self, _t: f64, net: &mut MutableGraph, _rng: &mut Xoshiro256PlusPlus) {
        let (_, u, w) = self.healing.pop_front().expect("a due heal has a cut edge");
        if net.is_active(u) && net.is_active(w) {
            net.add_edge(u, w);
            // The healed edge rejoins the frontier if it still has
            // exactly one informed endpoint.
            if self.is_informed(u) != self.is_informed(w) {
                self.boundary.insert(if self.is_informed(u) { (u, w) } else { (w, u) });
            }
        }
    }

    fn channel_weight(&self, _ch: usize) -> f64 {
        self.cfg.rate
    }

    fn fire(&mut self, _ch: usize, t: f64, net: &mut MutableGraph, _rng: &mut Xoshiro256PlusPlus) {
        // The strike law: cut the `budget` lexicographically smallest
        // `(informed, uninformed)` frontier edges, straight off the
        // incrementally maintained boundary — O(budget · log F).
        for _ in 0..self.cfg.budget {
            let Some(edge) = self.boundary.pop_first() else {
                break;
            };
            self.cut_edge(edge, t, net);
        }
    }

    fn note_informed(&mut self, v: Node, net: &MutableGraph) {
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
    /// informs, strikes, and heals. Heals run through a FIFO whose head
    /// is the one due event, and come back in the order a queue holding
    /// every heal would pop them: cut order, with the cuts of strikes
    /// at equal times in push order.
    #[test]
    fn adversary_incremental_boundary_matches_rescan() {
        use rumor_sim::events::EventQueue;

        for seed in 0..8u64 {
            let mut rng = Xoshiro256PlusPlus::seed_from(900 + seed);
            let g = generators::gnp_connected(40, 0.12, &mut rng, 100);
            let mut net = MutableGraph::from_graph(&g);
            let mut state =
                AdversaryState::new(Adversary { rate: 1.0, budget: 3, heal_after: 0.5 });
            let channels = state.init(&g, &mut net, &mut rng);
            assert_eq!(channels, 1);
            assert_eq!(state.next_due(), f64::INFINITY, "nothing is cut yet");
            // Every cut with its heal time, popped as a full heal queue
            // would pop it.
            let mut all_heals = EventQueue::new();

            state.note_informed(0, &net);
            let mut t = 0.0;
            for round in 0..200 {
                // Every fourth round repeats the time, so some strikes
                // tie with the one before.
                if rng.range_usize(4) != 0 {
                    t += 0.1;
                }
                match rng.range_usize(3) {
                    0 => {
                        let v = rng.range_usize(net.node_count()) as Node;
                        state.note_informed(v, &net);
                    }
                    1 => {
                        let before = state.healing.len();
                        state.fire(0, t, &mut net, &mut rng);
                        for &(at, u, w) in state.healing.range(before..) {
                            all_heals.push(at, (u, w));
                        }
                    }
                    _ => {
                        let due = state.next_due();
                        if due.is_finite() {
                            let (at, u, w) = state.healing[0];
                            assert_eq!(all_heals.pop(), Some((at, (u, w))), "heal out of order");
                            state.apply(due.max(t), &mut net, &mut rng);
                        }
                    }
                }
                let head = state.healing.front().map_or(f64::INFINITY, |&(at, ..)| at);
                assert_eq!(
                    state.next_due(),
                    head,
                    "seed {seed} round {round}: the due time is not the heal FIFO head's"
                );
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
        assert_eq!(state.init(&g, &mut net, &mut rng), 2);
        assert_eq!(state.next_due(), f64::INFINITY, "edge-Markov schedules nothing");
        let e = g.edge_count() as f64;
        assert_eq!(state.channel_weight(0), e * 2.0);
        assert_eq!(state.channel_weight(1), 0.0);
        for _ in 0..50 {
            state.fire(0, 1.0, &mut net, &mut rng);
        }
        assert_eq!(state.channel_weight(0), (e - 50.0) * 2.0);
        assert_eq!(state.channel_weight(1), 50.0 * 0.5);
        for _ in 0..50 {
            state.fire(1, 2.0, &mut net, &mut rng);
        }
        assert_eq!(net.to_graph().edge_count(), g.edge_count());
        assert_eq!(state.channel_weight(1), 0.0);
    }
}
