//! Mutable adjacency for dynamic-network simulation: flat CSR base plus
//! a copy-on-write delta overlay.
//!
//! The CSR [`Graph`] is immutable by design; temporal-graph
//! engines need edges that appear and disappear while a protocol runs.
//! [`MutableGraph`] bridges the two worlds without abandoning flat
//! memory: it aliases the CSR arrays of its starting snapshot (O(1)
//! construction, no per-trial deep copy) and gives a node its own
//! **overlay row** the first time churn touches it — a copy of its base
//! row that later edits mutate in place. Overlay rows live in one flat
//! slab (a single `Vec<Node>` with per-row bounds), so list accesses
//! stay inside one contiguous buffer instead of chasing per-node heap
//! cells. Untouched nodes read the base arrays directly; touched nodes
//! read their slab row. Either way the view is one plain slice, so
//! [`degree`](MutableGraph::degree), [`neighbors`](MutableGraph::neighbors),
//! and [`random_neighbor`](MutableGraph::random_neighbor) — one
//! `range_usize(deg)` draw indexing the k-th stored neighbor — are O(1).
//!
//! Rows are **order-relaxed**: a mutation is a short scan plus
//! `push`/`swap_remove` — no memmove, no binary search. A row holds
//! the same *set* of neighbors as a sorted list would, in an order
//! that is a pure function of the base row and the mutation history,
//! so neighbor draws stay bit-for-bit reproducible. Until its first
//! mutation a row is the starting graph's sorted CSR row, so draws
//! match [`Graph::random_neighbor`] on the same topology exactly —
//! what a zero-churn run's replay of the static engine rests on.
//!
//! Once the overlay outgrows a threshold the graph **compacts**: the
//! current view is flushed into a fresh flat base (staged in pooled
//! buffers from [`crate::arena`]) and the overlay empties. Compaction
//! is a logical no-op — views, draws, and replay are unaffected; only
//! the layout changes. All scratch (overlay lists, index arrays,
//! compaction staging) cycles through the thread-local arena, so
//! repeated trials allocate ~nothing after warm-up.

use std::sync::Arc;

use rumor_sim::rng::Xoshiro256PlusPlus;

use crate::arena;
use crate::builder::GraphBuilder;
use crate::csr::{Graph, Node};

/// Bounds of one overlay row inside the flat slab: the row occupies
/// `slab[start..start + cap]` with the live prefix `[start..start +
/// len]`. Rows that outgrow their capacity relocate to the slab's end
/// with doubled headroom (the old region becomes waste, reclaimed by
/// the next compaction) — `Vec` growth, flattened into one allocation
/// shared by every row so list accesses stay inside a single
/// contiguous, cache-dense buffer instead of chasing per-node heap
/// cells.
///
/// The metas themselves are indexed **by node**, with `cap == 0` as the
/// "never touched, read the base row" sentinel (a real overlay row
/// always has `cap >= 4`), so a hot-path access is one meta load and
/// one slab load — no slot indirection in between.
#[derive(Debug, Clone, Copy)]
struct RowMeta {
    start: u32,
    len: u32,
    cap: u32,
}

impl RowMeta {
    /// The untouched-node sentinel (`cap == 0`).
    const NONE: RowMeta = RowMeta { start: 0, len: 0, cap: 0 };
}

/// Default compaction threshold for a base with `base_len` adjacency
/// entries: compact once the overlay lists hold more than **twice** the
/// base (but never fuss over tiny graphs).
///
/// Overlay lists are full adjacency copies, so their total size tracks
/// the *current* adjacency of touched nodes — for churn that keeps the
/// edge count roughly stable the overlay converges to about one base
/// worth of entries and stays there, and steady state pays no
/// compaction at all (the sweep bench shows recopy cycles cost more
/// than they save). Crossing 2× the base means the graph has genuinely
/// outgrown its snapshot; re-anchoring then keeps memory at O(current
/// graph) with geometric, amortized-O(1) flushes, like `Vec` growth.
fn default_threshold(base_len: usize) -> usize {
    (base_len * 2).max(64)
}

/// The flat base arrays: either shared with the [`Graph`] the mutable
/// view was built from (zero-copy) or owned pooled buffers written by
/// compaction.
#[derive(Debug)]
enum BaseStore {
    Shared { offsets: Arc<[usize]>, neighbors: Arc<[Node]> },
    Owned { offsets: Vec<usize>, neighbors: Vec<Node> },
}

impl BaseStore {
    #[inline]
    fn slices(&self) -> (&[usize], &[Node]) {
        match self {
            BaseStore::Shared { offsets, neighbors } => (offsets, neighbors),
            BaseStore::Owned { offsets, neighbors } => (offsets, neighbors),
        }
    }

    /// A placeholder that owns nothing (used when moving the store out).
    fn hollow() -> Self {
        BaseStore::Owned { offsets: Vec::new(), neighbors: Vec::new() }
    }

    /// Returns owned buffers to the arena.
    fn recycle(self) {
        if let BaseStore::Owned { offsets, neighbors } = self {
            arena::give_offsets(offsets);
            arena::give_nodes(neighbors);
        }
    }
}

/// The change journal (see [`MutableGraph::track_changes`]): every
/// effective mutation since the last clear, in four typed runs. Edge
/// endpoints are canonical `(min, max)` pairs. Each run lists its
/// entries in mutation order, so a run is ascending whenever its
/// mutations came in ascending order — [`MutableGraph::replace_edges_with`]
/// journals both edge runs that way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChangeJournal {
    /// Edges removed, including those a departing node lost.
    pub removed: Vec<(Node, Node)>,
    /// Nodes that left the network.
    pub deactivated: Vec<Node>,
    /// Nodes that (re)joined the network.
    pub activated: Vec<Node>,
    /// Edges inserted.
    pub added: Vec<(Node, Node)>,
}

impl ChangeJournal {
    /// Whether nothing was journaled.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty()
            && self.deactivated.is_empty()
            && self.activated.is_empty()
            && self.added.is_empty()
    }

    /// Empties all four runs, keeping their allocations.
    pub fn clear(&mut self) {
        self.removed.clear();
        self.deactivated.clear();
        self.activated.clear();
        self.added.clear();
    }
}

/// An undirected simple graph under edit: a flat CSR base, copy-on-write
/// per-node overlay lists, and per-node activation flags.
///
/// Inactive nodes keep their identity (indices are stable) but have all
/// incident edges removed and never gain new ones until reactivated;
/// [`degree`](Self::degree) and [`neighbors`](Self::neighbors) of an
/// inactive node are guarded to report an empty adjacency no matter
/// what the underlying storage holds.
///
/// # Example
///
/// ```
/// use rumor_graph::dynamic::MutableGraph;
/// use rumor_graph::generators;
///
/// let mut net = MutableGraph::from_graph(&generators::cycle(4));
/// assert_eq!(net.edge_count(), 4);
/// assert!(net.remove_edge(0, 1));
/// assert!(!net.has_edge(0, 1));
/// assert!(net.add_edge(0, 2));
/// // Rows keep insertion order: 1 was swap-removed, 2 pushed.
/// assert_eq!(net.neighbors(0), &[3, 2]);
/// ```
#[derive(Debug)]
pub struct MutableGraph {
    base: BaseStore,
    /// Overlay row bounds, indexed by node ([`RowMeta::NONE`] until the
    /// node's first touch). Each row holds the **full current
    /// adjacency** of its node — a copy of the base row taken on first
    /// touch, edited in place afterwards by push/swap-remove.
    rows: Vec<RowMeta>,
    /// One contiguous buffer backing every overlay row.
    slab: Vec<Node>,
    /// Total entries across live overlay lists (compaction trigger).
    overlay_entries: usize,
    /// Compact once `overlay_entries` exceeds this.
    compact_threshold: usize,
    /// Whether `compact_threshold` tracks the base size automatically.
    auto_threshold: bool,
    edge_count: usize,
    active: Vec<bool>,
    active_count: usize,
    /// Change journal; appended to only while `tracking`.
    journal: ChangeJournal,
    tracking: bool,
}

impl MutableGraph {
    /// An editable view over a CSR snapshot; every node starts active.
    ///
    /// O(n): the adjacency arrays are **shared** with `g`, not copied.
    pub fn from_graph(g: &Graph) -> Self {
        let base = BaseStore::Shared { offsets: g.offsets_arc(), neighbors: g.neighbors_arc() };
        Self::with_base(g.node_count(), base, g.edge_count())
    }

    /// An edgeless graph on `n` active nodes.
    pub fn empty(n: usize) -> Self {
        let mut offsets = arena::take_offsets();
        offsets.resize(n + 1, 0);
        Self::with_base(n, BaseStore::Owned { offsets, neighbors: arena::take_nodes() }, 0)
    }

    /// Shared construction: pooled side arrays around `base`.
    fn with_base(n: usize, base: BaseStore, edge_count: usize) -> Self {
        let mut active = arena::take_flags();
        active.resize(n, true);
        let base_len = base.slices().1.len();
        Self {
            base,
            rows: vec![RowMeta::NONE; n],
            slab: arena::take_nodes(),
            overlay_entries: 0,
            compact_threshold: default_threshold(base_len),
            auto_threshold: true,
            edge_count,
            active,
            active_count: n,
            journal: ChangeJournal::default(),
            tracking: false,
        }
    }

    /// Number of nodes (stable under all mutations).
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of undirected edges currently present.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Current degree of `v` (0 for an inactive node), in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: Node) -> usize {
        self.neighbors(v).len()
    }

    /// The current neighbors of `v`, in the order the mutation history
    /// left them (see the module docs): the node's overlay list if
    /// churn has touched it, its row of the flat base otherwise. Empty
    /// for an inactive node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: Node) -> &[Node] {
        let vi = v as usize;
        let m = self.rows[vi];
        if !self.active[vi] {
            &[]
        } else if m.cap == 0 {
            let (off, nb) = self.base.slices();
            &nb[off[vi]..off[vi + 1]]
        } else {
            &self.slab[m.start as usize..(m.start + m.len) as usize]
        }
    }

    /// A uniformly random current neighbor of `v`, drawn exactly like
    /// [`Graph::random_neighbor`]: one `range_usize(deg)` call indexing
    /// the k-th stored neighbor, O(1) whether or not `v` has an overlay.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or currently isolated.
    #[inline]
    pub fn random_neighbor(&self, v: Node, rng: &mut Xoshiro256PlusPlus) -> Node {
        let nbrs = self.neighbors(v);
        assert!(!nbrs.is_empty(), "node {v} is isolated; protocols need degree >= 1");
        nbrs[rng.range_usize(nbrs.len())]
    }

    /// [`random_neighbor`](Self::random_neighbor), or `None` without a
    /// draw when `v` has no neighbor now (isolated or inactive): the
    /// contact partner of a protocol step on the evolving graph.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn try_random_neighbor(&self, v: Node, rng: &mut Xoshiro256PlusPlus) -> Option<Node> {
        let nbrs = self.neighbors(v);
        (!nbrs.is_empty()).then(|| nbrs[rng.range_usize(nbrs.len())])
    }

    /// Whether the undirected edge `{u, v}` is currently present.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: Node, v: Node) -> bool {
        self.neighbors(u).contains(&v)
    }

    /// Inserts the undirected edge `{u, v}`; returns `false` if it was
    /// already present (the graph is unchanged).
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range endpoints, or inactive
    /// endpoints — topology models must not wire up departed nodes.
    pub fn add_edge(&mut self, u: Node, v: Node) -> bool {
        // Range first: an out-of-range `u` must reach the range assert
        // of `add_edge_unchecked`, not fail indexing inside `has_edge`.
        if (u as usize) < self.node_count() && self.has_edge(u, v) {
            return false;
        }
        self.add_edge_unchecked(u, v);
        true
    }

    /// Inserts the undirected edge `{u, v}` the caller has already
    /// established to be absent, skipping the presence probe (a scan of
    /// `u`'s row) of [`add_edge`](Self::add_edge). It has three callers,
    /// each carrying its own proof of absence:
    ///
    /// - edge-Markov's toggle: the model's swap partition holds every
    ///   base edge as present or absent, and only it edits the graph;
    /// - the frontier adversary's heal: a cut edge leaves the frontier,
    ///   so nothing re-cuts or re-adds it before its heal;
    /// - trace replay: a trace holds only effective changes, and the
    ///   replay graph starts from the trace's initial graph and applies
    ///   its steps in order, so its edge set equals the recording
    ///   graph's at every step, where each recorded add was an absent
    ///   edge.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range endpoints, or inactive
    /// endpoints; debug builds also panic if the edge was present
    /// (release builds would corrupt the adjacency — callers carry the
    /// proof of absence).
    pub fn add_edge_unchecked(&mut self, u: Node, v: Node) {
        assert!(u != v, "self-loop at node {u}");
        assert!(
            (u as usize) < self.node_count() && (v as usize) < self.node_count(),
            "edge ({u}, {v}) out of range for {} nodes",
            self.node_count()
        );
        assert!(
            self.active[u as usize] && self.active[v as usize],
            "edge ({u}, {v}) touches an inactive node"
        );
        let su = self.touch(u);
        debug_assert!(!self.row(su).contains(&v), "add_edge_unchecked on a present edge");
        self.row_push(su, v);
        let sv = self.touch(v);
        self.row_push(sv, u);
        self.overlay_entries += 2;
        self.edge_count += 1;
        if self.tracking {
            self.journal.added.push((u.min(v), u.max(v)));
        }
        self.maybe_compact();
    }

    /// Slides the edge `{anchor, from}` to `{anchor, to}` — the
    /// random-walk step — in one fused operation: if `{anchor, to}` is
    /// already present nothing changes and `false` is returned (the
    /// walk's occupied-pair rejection); otherwise `from` is rewritten to
    /// `to` in `anchor`'s list in place, the reverse entries are fixed
    /// up, and `true` is returned. One scan of `anchor`'s list serves as
    /// both the rejection probe and the position lookup, where the
    /// equivalent `has_edge` + `remove_edge` + `add_edge` sequence scans
    /// it three times.
    ///
    /// # Panics
    ///
    /// Panics if `to == anchor` or `to == from`, any node is out of
    /// range, `to` is inactive, or the edge `{anchor, from}` is absent.
    pub fn slide_edge(&mut self, anchor: Node, from: Node, to: Node) -> bool {
        assert!(to != anchor && to != from, "slide target {to} collides with the edge");
        assert!(
            (anchor as usize) < self.node_count()
                && (from as usize) < self.node_count()
                && (to as usize) < self.node_count(),
            "slide ({anchor}, {from} -> {to}) out of range for {} nodes",
            self.node_count()
        );
        assert!(self.active[to as usize], "slide target {to} is inactive");
        let sa = self.touch(anchor);
        let m = self.rows[sa];
        let row = &mut self.slab[m.start as usize..(m.start + m.len) as usize];
        let mut pos_from = usize::MAX;
        for (k, &w) in row.iter().enumerate() {
            if w == to {
                return false;
            }
            if w == from {
                pos_from = k;
            }
        }
        assert!(pos_from != usize::MAX, "slide of an absent edge");
        row[pos_from] = to;
        let sf = self.touch(from);
        assert!(self.row_find_swap_remove(sf, anchor), "adjacency is symmetric");
        let st = self.touch(to);
        self.row_push(st, anchor);
        if self.tracking {
            self.journal.removed.push((anchor.min(from), anchor.max(from)));
            self.journal.added.push((anchor.min(to), anchor.max(to)));
        }
        true
    }

    /// Removes the undirected edge `{u, v}`; returns `false` if it was
    /// not present.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn remove_edge(&mut self, u: Node, v: Node) -> bool {
        assert!(
            (u as usize) < self.node_count() && (v as usize) < self.node_count(),
            "edge ({u}, {v}) out of range for {} nodes",
            self.node_count()
        );
        if !self.active[u as usize] {
            return false;
        }
        let su = self.touch(u);
        if !self.row_find_swap_remove(su, v) {
            return false;
        }
        let sv = self.touch(v);
        assert!(self.row_find_swap_remove(sv, u), "adjacency is symmetric");
        self.overlay_entries -= 2;
        self.edge_count -= 1;
        if self.tracking {
            self.journal.removed.push((u.min(v), u.max(v)));
        }
        self.maybe_compact();
        true
    }

    /// Rewrites `v`'s adjacency to the set `new` in one batch, leaving
    /// rows, journal and counts exactly as this sequence would: first
    /// [`remove_edge`](Self::remove_edge)`(v, w)` for every dropped `w`,
    /// in `v`'s current row order, then [`add_edge`](Self::add_edge)`(v,
    /// w)` for every new `w`, in `new`'s order. The batch touches `v`
    /// once, finds membership by binary search in `new` instead of
    /// probing row against row, and checks for compaction once at the
    /// end (compaction only changes layout, so no row reads
    /// differently) — the geometric mobility move's edge diff.
    ///
    /// # Panics
    ///
    /// Panics if `v` or an entry of `new` is out of range or inactive,
    /// if `new` is not strictly ascending, or if it holds `v`.
    pub fn set_neighbors(&mut self, v: Node, new: &[Node]) {
        let n = self.node_count();
        assert!((v as usize) < n, "node {v} out of range for {n} nodes");
        assert!(self.active[v as usize], "rewiring inactive node {v}");
        assert!(new.windows(2).all(|w| w[0] < w[1]), "new neighbors of {v} must be ascending");
        for &w in new {
            assert!(w != v, "self-loop at node {v}");
            assert!(
                (w as usize) < n && self.active[w as usize],
                "neighbor {w} is out of range or inactive"
            );
        }
        let sv = self.touch(v);
        // Pass 1, in row order: keep what `new` holds (marking it), and
        // list the drops in the order the reference removals run.
        let mut kept = arena::take_flags();
        kept.resize(new.len(), false);
        let mut dropped = arena::take_nodes();
        for &w in self.row(sv) {
            match new.binary_search(&w) {
                Ok(k) => kept[k] = true,
                Err(_) => dropped.push(w),
            }
        }
        for &w in &dropped {
            assert!(self.row_find_swap_remove(sv, w), "dropped neighbor is in the row");
            let sw = self.touch(w);
            assert!(self.row_find_swap_remove(sw, v), "adjacency is symmetric");
            if self.tracking {
                self.journal.removed.push((v.min(w), v.max(w)));
            }
        }
        let mut added = 0;
        for (&w, _) in new.iter().zip(&kept).filter(|(_, &k)| !k) {
            self.row_push(sv, w);
            let sw = self.touch(w);
            self.row_push(sw, v);
            if self.tracking {
                self.journal.added.push((v.min(w), v.max(w)));
            }
            added += 1;
        }
        self.overlay_entries = self.overlay_entries + 2 * added - 2 * dropped.len();
        self.edge_count = self.edge_count + added - dropped.len();
        arena::give_flags(kept);
        arena::give_nodes(dropped);
        self.maybe_compact();
    }

    /// Whether `v` currently participates in the network.
    #[inline]
    pub fn is_active(&self, v: Node) -> bool {
        self.active[v as usize]
    }

    /// Number of active nodes.
    pub fn active_count(&self) -> usize {
        self.active_count
    }

    /// Deactivates `v`, removing all its incident edges; returns the
    /// number of edges removed. No-op (returning 0) if already inactive.
    pub fn deactivate(&mut self, v: Node) -> usize {
        if !self.active[v as usize] {
            return 0;
        }
        let mut nbrs = arena::take_nodes();
        nbrs.extend_from_slice(self.neighbors(v));
        for &w in &nbrs {
            let sw = self.touch(w);
            assert!(self.row_find_swap_remove(sw, v), "adjacency is symmetric");
            if self.tracking {
                self.journal.removed.push((v.min(w), v.max(w)));
            }
        }
        let stripped = nbrs.len();
        arena::give_nodes(nbrs);
        let sv = self.touch(v);
        self.row_clear(sv);
        self.overlay_entries -= 2 * stripped;
        self.edge_count -= stripped;
        self.active[v as usize] = false;
        self.active_count -= 1;
        if self.tracking {
            self.journal.deactivated.push(v);
        }
        self.maybe_compact();
        stripped
    }

    /// Reactivates `v` (with no edges; callers attach as their model
    /// dictates). No-op if already active.
    pub fn activate(&mut self, v: Node) {
        if !self.active[v as usize] {
            self.active[v as usize] = true;
            self.active_count += 1;
            if self.tracking {
                self.journal.activated.push(v);
            }
        }
    }

    /// Replaces the whole edge set with the edges of `snapshot`, keeping
    /// activation flags: edges touching inactive nodes are dropped.
    ///
    /// With every node active this is O(n): the snapshot's CSR arrays
    /// are adopted as the new shared base and the overlay empties.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot` has a different node count.
    pub fn replace_edges_with(&mut self, snapshot: &Graph) {
        let n = self.node_count();
        assert_eq!(snapshot.node_count(), n, "snapshot node count must match");
        if self.tracking {
            self.journal_replace_diff(snapshot);
        }
        self.clear_overlay();
        let old = std::mem::replace(&mut self.base, BaseStore::hollow());
        old.recycle();
        if self.active_count == n {
            self.base = BaseStore::Shared {
                offsets: snapshot.offsets_arc(),
                neighbors: snapshot.neighbors_arc(),
            };
            self.edge_count = snapshot.edge_count();
        } else {
            let mut offsets = arena::take_offsets();
            let mut neighbors = arena::take_nodes();
            offsets.push(0);
            for v in snapshot.nodes() {
                if self.active[v as usize] {
                    neighbors
                        .extend(snapshot.neighbors(v).iter().filter(|&&w| self.active[w as usize]));
                }
                offsets.push(neighbors.len());
            }
            self.edge_count = neighbors.len() / 2;
            self.base = BaseStore::Owned { offsets, neighbors };
        }
        if self.auto_threshold {
            self.compact_threshold = default_threshold(self.base.slices().1.len());
        }
    }

    /// Freezes the current topology into an immutable CSR [`Graph`]
    /// (inactive nodes appear as isolated). O(1) while the view is still
    /// its untouched shared base (no overlay row, every node active):
    /// the graph aliases the base's CSR arrays.
    pub fn to_graph(&self) -> Graph {
        if let BaseStore::Shared { offsets, neighbors } = &self.base {
            if self.slab.is_empty() && self.active_count == self.node_count() {
                return Graph::from_csr(Arc::clone(offsets), Arc::clone(neighbors));
            }
        }
        let mut b = GraphBuilder::with_edge_capacity(self.node_count(), self.edge_count);
        for v in 0..self.node_count() as Node {
            for &w in self.neighbors(v) {
                if v < w {
                    b.add_edge(v, w);
                }
            }
        }
        b.build().expect("mutable graph upholds CSR invariants")
    }

    /// Overrides the compaction threshold: the overlay is flushed into a
    /// fresh flat base whenever its total entry count exceeds `entries`.
    ///
    /// Compaction is logically invisible (views, draws, and replay are
    /// unaffected), so this is purely a performance knob — exposed for
    /// benchmarks sweeping the compaction policy. `usize::MAX` disables
    /// compaction; `0` compacts after every mutation. The default
    /// tracks the base size (twice the adjacency array).
    pub fn set_compaction_threshold(&mut self, entries: usize) {
        self.compact_threshold = entries;
        self.auto_threshold = false;
        self.maybe_compact();
    }

    /// Starts (`true`) or stops (`false`) journaling effective changes;
    /// starting clears any previous journal.
    ///
    /// While tracking, every effective mutation appends to one run of
    /// the [`ChangeJournal`]: an edge insert to `added`, an edge removal
    /// to `removed`, a departure to `deactivated` (after its stripped
    /// edges, which go to `removed`) and a (re)join to `activated`.
    /// No-op calls (duplicate insert, absent removal, repeated toggles)
    /// record nothing, and compaction records nothing (it changes
    /// layout, not topology). Topology-trace recording uses this to
    /// store an event's step in O(changes), one append per run, instead
    /// of rescanning adjacency.
    pub fn track_changes(&mut self, on: bool) {
        self.journal.clear();
        self.tracking = on;
    }

    /// The changes journaled since the last
    /// [`clear_changes`](Self::clear_changes), as four typed runs (all
    /// empty when tracking is off).
    pub fn changes(&self) -> &ChangeJournal {
        &self.journal
    }

    /// Empties the change journal (tracking stays on).
    pub fn clear_changes(&mut self) {
        self.journal.clear();
    }

    // ---- internals ----------------------------------------------------

    /// The overlay row index of `v` (its node index), copying the base
    /// row into the slab on first touch. Row contents are then read
    /// through [`row`](Self::row) and edited through the `row_*`
    /// primitives — all index-addressed, so interleaved touches (which
    /// may relocate rows inside the slab) never invalidate a held
    /// index.
    #[inline]
    fn touch(&mut self, v: Node) -> usize {
        let vi = v as usize;
        if self.rows[vi].cap != 0 {
            vi
        } else {
            self.copy_row_to_overlay(v)
        }
    }

    /// First-touch path of [`touch`](Self::touch): appends a slab row
    /// holding `v`'s current adjacency with growth headroom.
    fn copy_row_to_overlay(&mut self, v: Node) -> usize {
        let vi = v as usize;
        let start = self.slab.len();
        let (off, nb) = self.base.slices();
        let row: &[Node] = if self.active[vi] { &nb[off[vi]..off[vi + 1]] } else { &[] };
        let len = row.len();
        // ~1.25x headroom: degree-stable churn (the common case) almost
        // never relocates, while the slab stays dense enough that the
        // hot rows share cache lines. Relocation doubles, so outliers
        // converge in O(log) moves anyway.
        let cap = (len + (len >> 2) + 2).max(4);
        assert!(start + cap <= u32::MAX as usize, "overlay slab exceeds u32 indexing");
        self.slab.extend_from_slice(row);
        self.slab.resize(start + cap, 0);
        self.rows[vi] = RowMeta { start: start as u32, len: len as u32, cap: cap as u32 };
        self.overlay_entries += len;
        vi
    }

    /// The live entries of overlay row `idx`.
    #[inline]
    fn row(&self, idx: usize) -> &[Node] {
        let m = self.rows[idx];
        &self.slab[m.start as usize..(m.start + m.len) as usize]
    }

    /// Relocates row `idx` to the slab's end with doubled capacity (the
    /// old region becomes waste until the next compaction).
    fn grow_row(&mut self, idx: usize) {
        let m = self.rows[idx];
        let new_cap = (2 * m.cap).max(4) as usize;
        let start = self.slab.len();
        assert!(start + new_cap <= u32::MAX as usize, "overlay slab exceeds u32 indexing");
        self.slab.extend_from_within(m.start as usize..(m.start + m.len) as usize);
        self.slab.resize(start + new_cap, 0);
        self.rows[idx] = RowMeta { start: start as u32, len: m.len, cap: new_cap as u32 };
    }

    #[inline]
    fn row_push(&mut self, idx: usize, x: Node) {
        let mut m = self.rows[idx];
        if m.len == m.cap {
            self.grow_row(idx);
            m = self.rows[idx];
        }
        self.slab[(m.start + m.len) as usize] = x;
        self.rows[idx].len = m.len + 1;
    }

    /// Scans row `idx` for `x` and swap-removes the first occurrence in
    /// the same pass (one slice borrow, one meta load); returns whether
    /// `x` was found. The removal workhorse.
    #[inline]
    fn row_find_swap_remove(&mut self, idx: usize, x: Node) -> bool {
        let m = self.rows[idx];
        let (s, l) = (m.start as usize, m.len as usize);
        let row = &mut self.slab[s..s + l];
        match row.iter().position(|&w| w == x) {
            Some(i) => {
                row[i] = row[l - 1];
                self.rows[idx].len -= 1;
                true
            }
            None => false,
        }
    }

    #[inline]
    fn row_clear(&mut self, idx: usize) {
        self.rows[idx].len = 0;
    }

    #[inline]
    fn maybe_compact(&mut self) {
        // Second disjunct: slab *waste* (growth-headroom pads plus
        // regions abandoned by row relocation) is also bounded, so
        // disabling it requires `set_compaction_threshold(usize::MAX)`
        // just like the live-entry bound (`saturating_mul` keeps MAX
        // meaning "never").
        if self.overlay_entries > self.compact_threshold
            || self.slab.len() > self.compact_threshold.saturating_mul(4)
        {
            self.compact();
        }
    }

    /// Flushes the current view into a fresh flat base (pooled staging)
    /// and empties the overlay. Logical no-op.
    fn compact(&mut self) {
        let n = self.node_count();
        let mut offsets = arena::take_offsets();
        let mut neighbors = arena::take_nodes();
        offsets.reserve(n + 1);
        neighbors.reserve(2 * self.edge_count);
        offsets.push(0);
        for v in 0..n as Node {
            neighbors.extend_from_slice(self.neighbors(v));
            offsets.push(neighbors.len());
        }
        debug_assert_eq!(neighbors.len(), 2 * self.edge_count);
        let old = std::mem::replace(&mut self.base, BaseStore::Owned { offsets, neighbors });
        old.recycle();
        self.clear_overlay();
        if self.auto_threshold {
            self.compact_threshold = default_threshold(self.base.slices().1.len());
        }
    }

    /// Empties the overlay; the slab keeps its allocation for reuse.
    fn clear_overlay(&mut self) {
        self.rows.fill(RowMeta::NONE);
        self.slab.clear();
        self.overlay_entries = 0;
    }

    /// Journals the edge diff `self → snapshot-filtered-by-activation`
    /// (called before [`Self::replace_edges_with`] rewrites storage).
    ///
    /// Per node `v`, ascending, it merges the upper parts (neighbors
    /// `w > v`) of the live row and the snapshot row, both ascending,
    /// and writes each pair straight into the `removed` or `added` run:
    /// so both runs come out ascending. A snapshot row is CSR and a row
    /// of a shared base is sorted, so they are merged in place; only a
    /// row out of order (an overlay row, or a compacted one) is sorted
    /// in scratch first.
    fn journal_replace_diff(&mut self, snapshot: &Graph) {
        let mut j = std::mem::take(&mut self.journal);
        let mut scratch = arena::take_nodes();
        for v in 0..self.node_count() as Node {
            let mut old = self.neighbors(v);
            if !old.is_sorted() {
                scratch.clear();
                scratch.extend_from_slice(old);
                scratch.sort_unstable();
                old = &scratch;
            }
            let new = if self.active[v as usize] { snapshot.neighbors(v) } else { &[] };
            let old = &old[old.partition_point(|&w| w <= v)..];
            let new = &new[new.partition_point(|&w| w <= v)..];
            let (mut i, mut k) = (0, 0);
            while i < old.len() && k < new.len() {
                let (a, b) = (old[i], new[k]);
                if !self.active[b as usize] {
                    k += 1;
                } else if a < b {
                    j.removed.push((v, a));
                    i += 1;
                } else if b < a {
                    j.added.push((v, b));
                    k += 1;
                } else {
                    // Equal: the edge survives the replacement.
                    i += 1;
                    k += 1;
                }
            }
            j.removed.extend(old[i..].iter().map(|&a| (v, a)));
            let fresh = new[k..].iter().filter(|&&b| self.active[b as usize]);
            j.added.extend(fresh.map(|&b| (v, b)));
        }
        arena::give_nodes(scratch);
        self.journal = j;
    }
}

impl Clone for MutableGraph {
    fn clone(&self) -> Self {
        let base = match &self.base {
            BaseStore::Shared { offsets, neighbors } => {
                BaseStore::Shared { offsets: Arc::clone(offsets), neighbors: Arc::clone(neighbors) }
            }
            BaseStore::Owned { offsets, neighbors } => {
                let mut o = arena::take_offsets();
                o.extend_from_slice(offsets);
                let mut nb = arena::take_nodes();
                nb.extend_from_slice(neighbors);
                BaseStore::Owned { offsets: o, neighbors: nb }
            }
        };
        let mut active = arena::take_flags();
        active.extend_from_slice(&self.active);
        let mut slab = arena::take_nodes();
        slab.extend_from_slice(&self.slab);
        Self {
            base,
            rows: self.rows.clone(),
            slab,
            overlay_entries: self.overlay_entries,
            compact_threshold: self.compact_threshold,
            auto_threshold: self.auto_threshold,
            edge_count: self.edge_count,
            active,
            active_count: self.active_count,
            journal: self.journal.clone(),
            tracking: self.tracking,
        }
    }
}

impl Drop for MutableGraph {
    fn drop(&mut self) {
        arena::give_flags(std::mem::take(&mut self.active));
        arena::give_nodes(std::mem::take(&mut self.slab));
        std::mem::replace(&mut self.base, BaseStore::hollow()).recycle();
    }
}

/// Logical equality: same node set, activation flags, and per-node
/// neighbor *sets* — independent of base/overlay layout, compaction
/// state, or the order a row's mutation history left it in.
impl PartialEq for MutableGraph {
    fn eq(&self, other: &Self) -> bool {
        let same_set = |a: &[Node], b: &[Node]| {
            a == b
                || (a.len() == b.len() && {
                    let (mut a, mut b) = (a.to_vec(), b.to_vec());
                    a.sort_unstable();
                    b.sort_unstable();
                    a == b
                })
        };
        self.node_count() == other.node_count()
            && self.edge_count == other.edge_count
            && self.active == other.active
            && (0..self.node_count() as Node)
                .all(|v| same_set(self.neighbors(v), other.neighbors(v)))
    }
}

impl Eq for MutableGraph {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn from_graph_round_trips() {
        let g = generators::hypercube(4);
        let net = MutableGraph::from_graph(&g);
        assert_eq!(net.node_count(), g.node_count());
        assert_eq!(net.edge_count(), g.edge_count());
        assert_eq!(net.to_graph(), g);
        for v in g.nodes() {
            assert_eq!(net.neighbors(v), g.neighbors(v));
            assert_eq!(net.degree(v), g.degree(v));
        }
    }

    #[test]
    fn untouched_adapter_samples_like_csr() {
        // The parity property the dynamic engine's churn-0 guarantee
        // rests on: identical draw sequence, identical neighbor choice.
        let g = generators::gnp_connected(32, 0.2, &mut Xoshiro256PlusPlus::seed_from(5), 100);
        let net = MutableGraph::from_graph(&g);
        let mut a = Xoshiro256PlusPlus::seed_from(9);
        let mut b = Xoshiro256PlusPlus::seed_from(9);
        for v in g.nodes() {
            for _ in 0..16 {
                assert_eq!(g.random_neighbor(v, &mut a), net.random_neighbor(v, &mut b));
            }
        }
    }

    #[test]
    fn add_and_remove_maintain_invariants() {
        let mut net = MutableGraph::from_graph(&generators::cycle(5));
        assert!(net.remove_edge(0, 1));
        assert!(!net.remove_edge(0, 1), "second removal is a no-op");
        assert!(!net.has_edge(0, 1) && !net.has_edge(1, 0));
        assert!(net.add_edge(0, 2));
        assert!(!net.add_edge(2, 0), "duplicate insert is a no-op");
        assert_eq!(net.edge_count(), 5);
        let sorted_row = |v: Node| {
            let mut list = net.neighbors(v).to_vec();
            list.sort_unstable();
            list
        };
        assert_eq!(sorted_row(0), [2, 4]);
        assert_eq!(sorted_row(1), [2]);
        assert_eq!(sorted_row(2), [0, 1, 3]);
        for v in 0..5u32 {
            let list = net.neighbors(v);
            assert_eq!(list.len(), net.degree(v));
            for &w in list {
                assert!(net.has_edge(w, v), "asymmetry {v}-{w}");
            }
        }
        // Freezing canonicalizes the relaxed rows into a sorted CSR.
        assert_eq!(net.to_graph().neighbors(2), &[0, 1, 3]);
    }

    #[test]
    fn slide_edge_moves_rejects_and_journals() {
        let mut net = MutableGraph::from_graph(&generators::cycle(6));
        net.track_changes(true);
        // 0-1 slides to 0-3 in place: present edge moves, symmetry holds.
        assert!(net.slide_edge(0, 1, 3));
        assert!(!net.has_edge(0, 1) && net.has_edge(0, 3) && net.has_edge(3, 0));
        assert_eq!(net.edge_count(), 6);
        assert_eq!(net.changes().removed, [(0, 1)]);
        assert_eq!(net.changes().added, [(0, 3)]);
        assert_eq!(net.neighbors(0), &[3, 5]);
        // Occupied-pair rejection: 0-5 exists, so 0-3 cannot slide onto
        // it — and nothing changes.
        net.clear_changes();
        assert!(!net.slide_edge(0, 3, 5));
        assert!(net.has_edge(0, 3) && net.has_edge(0, 5));
        assert!(net.changes().is_empty());
    }

    #[test]
    fn add_edge_unchecked_matches_checked_add() {
        let mut a = MutableGraph::from_graph(&generators::cycle(5));
        let mut b = a.clone();
        assert!(a.add_edge(0, 2));
        b.add_edge_unchecked(0, 2);
        assert_eq!(a, b);
        assert_eq!(a.neighbors(0), b.neighbors(0), "same row order too");
    }

    #[test]
    #[should_panic(expected = "inactive")]
    fn rewiring_an_inactive_node_panics() {
        let mut net = MutableGraph::from_graph(&generators::cycle(5));
        net.deactivate(2);
        net.set_neighbors(2, &[0, 4]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rewiring_a_node_to_itself_panics() {
        let mut net = MutableGraph::from_graph(&generators::cycle(5));
        net.set_neighbors(2, &[1, 2, 3]);
    }

    #[test]
    fn deactivate_strips_edges_and_activate_restores_participation() {
        let mut net = MutableGraph::from_graph(&generators::star(6));
        assert_eq!(net.deactivate(0), 5, "center loses all spokes");
        assert_eq!(net.edge_count(), 0);
        assert!(!net.is_active(0));
        assert_eq!(net.active_count(), 5);
        assert_eq!(net.deactivate(0), 0, "repeat is a no-op");
        net.activate(0);
        assert!(net.is_active(0));
        assert_eq!(net.degree(0), 0, "reactivation does not restore edges");
        assert!(net.add_edge(0, 1));
        assert_eq!(net.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "inactive")]
    fn wiring_an_inactive_node_panics() {
        let mut net = MutableGraph::from_graph(&generators::path(3));
        net.deactivate(2);
        net.add_edge(1, 2);
    }

    #[test]
    fn replace_edges_respects_activation() {
        let mut net = MutableGraph::from_graph(&generators::cycle(6));
        net.deactivate(3);
        net.replace_edges_with(&generators::complete(6));
        assert!(!net.is_active(3));
        assert_eq!(net.degree(3), 0);
        // K6 minus node 3: a K5 on the remaining nodes.
        assert_eq!(net.edge_count(), 10);
        for v in [0u32, 1, 2, 4, 5] {
            assert_eq!(net.degree(v), 4);
            assert!(!net.has_edge(v, 3));
        }
    }

    #[test]
    fn replace_with_all_active_adopts_the_snapshot() {
        let mut net = MutableGraph::from_graph(&generators::cycle(6));
        net.remove_edge(0, 1);
        let k6 = generators::complete(6);
        net.replace_edges_with(&k6);
        assert_eq!(net.edge_count(), 15);
        assert_eq!(net.to_graph(), k6);
    }

    /// An untouched shared view freezes by aliasing its base, and the
    /// result equals what the builder writes from the rows; an edited
    /// or partly inactive view still goes through the builder.
    #[test]
    fn to_graph_of_an_untouched_view_aliases_its_base() {
        let built = |net: &MutableGraph| {
            let mut b = GraphBuilder::new(net.node_count());
            for v in 0..net.node_count() as Node {
                for &w in net.neighbors(v) {
                    if v < w {
                        b.add_edge(v, w);
                    }
                }
            }
            b.build().unwrap()
        };
        let g = generators::hypercube(4);
        let net = MutableGraph::from_graph(&g);
        let frozen = net.to_graph();
        assert!(Arc::ptr_eq(&frozen.offsets_arc(), &g.offsets_arc()), "untouched base is shared");
        assert_eq!(frozen, built(&net));
        assert_eq!(frozen, g);

        let mut net = MutableGraph::from_graph(&generators::cycle(6));
        net.remove_edge(0, 1);
        let k6 = generators::complete(6);
        net.replace_edges_with(&k6);
        let frozen = net.to_graph();
        assert!(Arc::ptr_eq(&frozen.neighbors_arc(), &k6.neighbors_arc()), "replaced base");
        assert_eq!(frozen, built(&net));

        net.remove_edge(2, 3);
        assert_eq!(net.to_graph(), built(&net), "an overlay row takes the builder route");
        net.add_edge(2, 3);
        net.deactivate(5);
        assert_eq!(net.to_graph(), built(&net), "an inactive node takes the builder route");
    }

    #[test]
    fn empty_graph_accumulates_edges() {
        let mut net = MutableGraph::empty(4);
        assert_eq!(net.edge_count(), 0);
        assert!(net.add_edge(0, 1));
        assert!(net.add_edge(2, 3));
        assert_eq!(net.to_graph().edge_count(), 2);
    }

    /// Regression (flat-memory refactor): the overlay view must stay
    /// consistent with `active` under the `empty` + node-churn
    /// interplay — a deactivated node's `degree()`/`neighbors()` must
    /// never leak stale adjacency, whatever the storage holds.
    #[test]
    fn deactivated_views_are_empty_even_from_empty_construction() {
        let mut net = MutableGraph::empty(5);
        net.add_edge(0, 1);
        net.add_edge(0, 2);
        net.add_edge(1, 2);
        assert_eq!(net.deactivate(0), 2);
        assert_eq!(net.degree(0), 0, "stale degree on a deactivated node");
        assert_eq!(net.neighbors(0), &[] as &[Node], "stale adjacency on a deactivated node");
        assert!(!net.has_edge(0, 1) && !net.has_edge(1, 0));
        assert_eq!(net.neighbors(1), &[2]);
        // Reactivate, churn again: views stay coherent.
        net.activate(0);
        assert_eq!(net.degree(0), 0);
        assert!(net.add_edge(0, 3));
        assert_eq!(net.neighbors(0), &[3]);
        assert_eq!(net.edge_count(), 2);
    }

    /// Compaction is logically invisible: same views, same draws.
    #[test]
    fn compaction_preserves_views_and_draws() {
        let g = generators::gnp_connected(24, 0.3, &mut Xoshiro256PlusPlus::seed_from(3), 100);
        let mut eager = MutableGraph::from_graph(&g);
        eager.set_compaction_threshold(0); // compact after every mutation
        let mut lazy = MutableGraph::from_graph(&g);
        lazy.set_compaction_threshold(usize::MAX); // never compact
        let mut rng = Xoshiro256PlusPlus::seed_from(17);
        for _ in 0..300 {
            let u = rng.range_usize(24) as Node;
            let w = rng.range_usize(24) as Node;
            if u == w {
                continue;
            }
            if rng.range_usize(2) == 0 {
                assert_eq!(eager.add_edge(u, w), lazy.add_edge(u, w));
            } else {
                assert_eq!(eager.remove_edge(u, w), lazy.remove_edge(u, w));
            }
        }
        assert_eq!(eager, lazy, "divergent views");
        assert_eq!(eager.edge_count(), lazy.edge_count());
        let mut a = Xoshiro256PlusPlus::seed_from(29);
        let mut b = Xoshiro256PlusPlus::seed_from(29);
        for v in 0..24u32 {
            assert_eq!(eager.neighbors(v), lazy.neighbors(v));
            if eager.degree(v) > 0 {
                for _ in 0..8 {
                    assert_eq!(eager.random_neighbor(v, &mut a), lazy.random_neighbor(v, &mut b));
                }
            }
        }
    }

    #[test]
    fn change_journal_records_effective_mutations_only() {
        let mut net = MutableGraph::from_graph(&generators::cycle(4));
        net.track_changes(true);
        assert!(net.add_edge(0, 2));
        assert!(!net.add_edge(2, 0), "duplicate insert journals nothing");
        assert!(net.remove_edge(1, 2));
        assert!(!net.remove_edge(1, 2));
        net.deactivate(0);
        net.deactivate(0);
        net.activate(0);
        let changes = net.changes();
        assert_eq!(changes.added, [(0, 2)]);
        // Deactivation strips the incident edges in row order (after the
        // earlier removal), then journals the departure itself.
        assert_eq!(changes.removed[0], (1, 2));
        let mut stripped = changes.removed[1..].to_vec();
        stripped.sort_unstable();
        assert_eq!(stripped, [(0, 1), (0, 2), (0, 3)]);
        assert_eq!(changes.deactivated, [0]);
        assert_eq!(changes.activated, [0]);
        net.clear_changes();
        assert!(net.changes().is_empty());
        // Compaction journals nothing: it is a layout change.
        net.set_compaction_threshold(0);
        assert!(net.changes().is_empty());
    }

    #[test]
    fn journal_covers_replace_edges_with() {
        let mut net = MutableGraph::from_graph(&generators::path(4)); // 0-1, 1-2, 2-3
        net.track_changes(true);
        net.replace_edges_with(&generators::cycle(4)); // 0-1, 1-2, 2-3, 0-3
        assert_eq!(net.changes().added, [(0, 3)]);
        assert!(net.changes().removed.is_empty());

        // Overlay rows edited out of order, an inactive node and
        // surviving edges: the journal is the set difference of the
        // two edge sets, each run ascending.
        let edges = |net: &MutableGraph| {
            let g = net.to_graph();
            g.nodes()
                .flat_map(|v| g.neighbors(v).iter().filter(move |&&w| v < w).map(move |&w| (v, w)))
                .collect::<std::collections::BTreeSet<_>>()
        };
        let mut net = MutableGraph::from_graph(&generators::cycle(8));
        assert!(net.remove_edge(0, 1) && net.add_edge(0, 5) && net.add_edge(0, 3));
        assert!(net.add_edge(2, 7) && net.add_edge(2, 4));
        assert!(!net.neighbors(0).is_sorted() && !net.neighbors(2).is_sorted());
        net.deactivate(6);
        let before = edges(&net);
        let snapshot = generators::gnp(8, 0.5, &mut Xoshiro256PlusPlus::seed_from(11));
        assert!(snapshot.degree(6) > 0, "the snapshot wires the inactive node");
        net.track_changes(true);
        net.replace_edges_with(&snapshot);
        let after = edges(&net);
        assert!(after.iter().all(|&(v, w)| v != 6 && w != 6), "edges at an inactive node");
        assert!(!before.is_disjoint(&after), "no edge survives the replacement");
        let changes = net.changes();
        assert_eq!(changes.removed, before.difference(&after).copied().collect::<Vec<_>>());
        assert_eq!(changes.added, after.difference(&before).copied().collect::<Vec<_>>());
        assert!(!changes.removed.is_empty() && !changes.added.is_empty());
        assert!(changes.deactivated.is_empty() && changes.activated.is_empty());
    }

    #[test]
    fn clone_is_independent_and_equal() {
        let g = generators::gnp_connected(16, 0.3, &mut Xoshiro256PlusPlus::seed_from(8), 100);
        let mut net = MutableGraph::from_graph(&g);
        net.remove_edge(net.neighbors(0)[0], 0);
        let mut copy = net.clone();
        assert_eq!(copy, net);
        copy.deactivate(1);
        assert_ne!(copy, net, "clones must not share mutable state");
        assert!(net.is_active(1));
    }

    #[test]
    fn equality_is_logical_not_representational() {
        let g = generators::cycle(8);
        let mut a = MutableGraph::from_graph(&g);
        let mut b = MutableGraph::from_graph(&g);
        a.remove_edge(0, 1);
        a.add_edge(0, 1); // overlay round-trip: back to the start state
        b.set_compaction_threshold(0);
        b.remove_edge(2, 3);
        b.add_edge(2, 3); // compacted round-trip
        assert_eq!(a, b);
        assert_eq!(a, MutableGraph::from_graph(&g));
    }
}
