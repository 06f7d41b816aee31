//! A sharded, conservative-lookahead parallel engine for dynamic
//! networks (PDES over the asynchronous rumor process).
//!
//! # Decomposition
//!
//! The sequential dynamic engine is one rate-`n` Poisson stream: each
//! tick activates a uniform node, which contacts a uniform current
//! neighbor. Partition the nodes into `K` shards and split that stream
//! by superposition/thinning into independent Poisson components:
//!
//! * per shard `i`, a **local** stream of rate
//!   `L_i = |shard i| − Σ_{v∈i} extdeg(v)/deg(v)` — internal contacts
//!   plus wasted ticks of isolated/departed nodes; its jumps touch only
//!   shard-`i` state, so shards simulate them concurrently with
//!   private RNGs;
//! * one merged **cross** stream of rate `R = Σ_v extdeg(v)/deg(v)` —
//!   contacts whose endpoints straddle shards, the only inter-shard
//!   influence.
//!
//! Jump distributions are sampled by rejection (draw a uniform node and
//! a uniform neighbor, accept if the contact is of the stream's kind),
//! which is exactly the conditional law of the thinned component.
//!
//! # Conservative windows
//!
//! The engine advances in lockstep windows. The **horizon** of a window
//! is the time of the next cross-shard contact or topology event —
//! pre-drawn, which is legitimate because exponential arrivals are
//! memoryless — so *no* cross-shard influence can occur strictly before
//! it. Every shard processes its local events up to the horizon in
//! parallel (workers receive window commands and return reports over
//! **bounded** `sync_channel`s); the coordinator then applies the single
//! global event, adjusts the component rates if the topology changed
//! (re-drawing pending arrivals whose rates moved, again by
//! memorylessness), and opens the next window. The result is exact in
//! distribution for any `K`; wall-clock parallelism is governed by the
//! partition's cut — `L_i / R` local events ride on each synchronization.
//!
//! # The K = 1 invariant
//!
//! With one shard there are no cross contacts, the horizon degenerates
//! to the next topology event, and every draw — model init, ticks,
//! neighbor choices, topology successors — flows through the caller's
//! RNG in the sequential engine's exact order. A `K = 1` run therefore
//! replays [`crate::run_dynamic`] **seed-for-seed**: same spreading
//! time, same informed trace, same final RNG state. This is
//! property-tested in `tests/sharded_engine.rs`, in the spirit of the
//! PR 1 churn-0 invariant, and is what makes the sharded engine
//! trustworthy at `K > 1` where no bit-identical oracle exists.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Mutex, RwLock};

use rumor_graph::dynamic::MutableGraph;
use rumor_graph::partition::{Partition, ShardId};
use rumor_graph::{Graph, Node};
use rumor_sim::events::RngContract;
use rumor_sim::rng::Xoshiro256PlusPlus;

use crate::dynamic::{DynamicModel, DynamicOutcome};
use crate::engine::scheduler::TopoDriver;
use crate::engine::topology::TopologyModel;
use crate::mode::Mode;
use crate::obs::{NoProbe, Probe, ProbeEvent, ShardTimers};

/// Result of a sharded run: the sequential-engine-compatible outcome
/// plus the engine's synchronization telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOutcome {
    /// The outcome, field-compatible with the sequential engine's. At
    /// `K = 1` it is bit-identical to [`crate::run_dynamic`]'s.
    pub outcome: DynamicOutcome,
    /// Number of shards the run used.
    pub shards: usize,
    /// Synchronization windows (conservative-lookahead rounds).
    pub windows: u64,
    /// Cross-shard contacts processed at window barriers.
    pub cross_events: u64,
}

impl ShardedOutcome {
    /// Local events amortized per synchronization window — the PDES
    /// efficiency metric: parallel speedup needs this to dwarf the
    /// per-window synchronization cost, which is a property of the
    /// partition's cut, not of the hardware.
    pub fn events_per_window(&self) -> f64 {
        if self.windows == 0 {
            return 0.0;
        }
        self.outcome.steps as f64 / self.windows as f64
    }
}

/// Per-shard simulation state; lives behind a `Mutex` that workers hold
/// during window processing and the coordinator holds between windows.
struct ShardState {
    /// Informed times of the shard's nodes, locally indexed.
    informed: Vec<f64>,
    informed_count: usize,
    /// Base time of the local Poisson stream: the last processed local
    /// event, or the last rate reset (which is not a protocol step).
    clock: f64,
    /// Time of the last *processed* local event; unlike `clock`, never
    /// advanced by rate resets, so it reports where the shard's actual
    /// simulation stopped.
    last_event: f64,
    /// Drawn-but-unconsumed next local arrival.
    pending_tick: Option<f64>,
    /// Rate of the shard's local event stream.
    local_rate: f64,
}

/// Window command to a worker (bounded channel, capacity 1).
#[derive(Debug, Clone, Copy)]
struct Advance {
    horizon: f64,
    budget: u64,
}

/// Window report from a worker (bounded channel, capacity 1).
#[derive(Debug, Clone, Copy)]
struct Report {
    events: u64,
    newly_informed: usize,
    /// The shard's pending next arrival: `>= horizon` after a full
    /// window, `INFINITY` when the shard can produce no further local
    /// events, `NAN` when unknown (stopped on budget).
    next_tick: f64,
}

/// Whether a shard with the given pending-arrival hint can have local
/// events before `horizon`.
fn needs_window(hint: f64, horizon: f64) -> bool {
    hint.is_nan() || hint < horizon
}

/// Processes one shard's local events up to (strictly before) `horizon`.
///
/// The drawn-but-unconsumed arrival is retained across windows, and at
/// `K = 1` the draw order (arrival, node, neighbor) is exactly the
/// sequential engine's.
#[allow(clippy::too_many_arguments)]
fn process_window(
    st: &mut ShardState,
    rng: &mut Xoshiro256PlusPlus,
    net: &MutableGraph,
    part: &Partition,
    me: ShardId,
    mode: Mode,
    horizon: f64,
    budget: u64,
) -> Report {
    let members = part.nodes(me);
    let n_local = members.len();
    if st.informed_count == n_local || st.local_rate <= 0.0 {
        // A fully informed shard's local events are all no-ops (internal
        // contacts between informed nodes, wasted ticks); a rate-0 shard
        // has none. Freeze instead of simulating them.
        return Report { events: 0, newly_informed: 0, next_tick: f64::INFINITY };
    }
    let mut events = 0u64;
    let mut newly = 0usize;
    loop {
        if events >= budget {
            return Report {
                events,
                newly_informed: newly,
                next_tick: st.pending_tick.unwrap_or(f64::NAN),
            };
        }
        let (clock, rate) = (st.clock, st.local_rate);
        let next = *st.pending_tick.get_or_insert_with(|| clock + rng.exp(rate));
        if next >= horizon {
            return Report { events, newly_informed: newly, next_tick: next };
        }
        st.pending_tick = None;
        st.clock = next;
        st.last_event = next;
        events += 1;
        // Rejection-sample the local event's contact: uniform member,
        // uniform neighbor, accept unless the contact crosses shards
        // (crossing contacts belong to the coordinator's stream).
        loop {
            let v = members[rng.range_usize(n_local)];
            if !net.is_active(v) || net.degree(v) == 0 {
                break; // wasted tick: a local event with no contact
            }
            let w = net.random_neighbor(v, rng);
            if part.shard_of(w) == me {
                let vi = st.informed[part.local_index(v) as usize].is_finite();
                let wi = st.informed[part.local_index(w) as usize].is_finite();
                if vi && !wi && mode.includes_push() {
                    st.informed[part.local_index(w) as usize] = next;
                    st.informed_count += 1;
                    newly += 1;
                } else if !vi && wi && mode.includes_pull() {
                    st.informed[part.local_index(v) as usize] = next;
                    st.informed_count += 1;
                    newly += 1;
                }
                break;
            }
        }
        if st.informed_count == n_local {
            return Report { events, newly_informed: newly, next_tick: f64::INFINITY };
        }
    }
}

/// Worker thread: serve window commands until the command channel
/// closes.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    me: ShardId,
    mode: Mode,
    part: &Partition,
    net: &RwLock<MutableGraph>,
    state: &Mutex<ShardState>,
    mut rng: Xoshiro256PlusPlus,
    commands: Receiver<Advance>,
    reports: SyncSender<Report>,
    timers: Option<&ShardTimers>,
) {
    while let Ok(Advance { horizon, budget }) = commands.recv() {
        let report = {
            let netr = net.read().expect("engine never poisons the topology lock");
            let mut st = state.lock().expect("engine never poisons a shard lock");
            let started = timers.map(|_| std::time::Instant::now());
            let rep = process_window(&mut st, &mut rng, &netr, part, me, mode, horizon, budget);
            if let (Some(timers), Some(started)) = (timers, started) {
                timers.add(me as usize, started.elapsed());
            }
            rep
        };
        if reports.send(report).is_err() {
            break;
        }
    }
}

/// Everything the coordinator accumulates across windows.
struct Totals {
    steps: u64,
    topology_events: u64,
    windows: u64,
    cross_events: u64,
    completed: bool,
    /// Time of the last cross-shard contact (a step that advances no
    /// shard's local clock); 0 when none happened.
    last_cross: f64,
}

/// The coordinator: runs the window loop against `states`, delegating
/// shards `1..K` to `workers` (empty at `K = 1`) and processing shard 0
/// inline. `shard0_rng` is `None` at `K = 1`, where shard 0 shares the
/// caller's stream (the replay invariant).
#[allow(clippy::too_many_arguments)]
fn coordinate<P: Probe, M: TopologyModel + ?Sized>(
    n: usize,
    mode: Mode,
    part: &Partition,
    max_steps: u64,
    net: &RwLock<MutableGraph>,
    states: &[Mutex<ShardState>],
    driver: &mut TopoDriver,
    mstate: &mut M,
    rng: &mut Xoshiro256PlusPlus,
    mut shard0_rng: Option<Xoshiro256PlusPlus>,
    mut local_rates: Vec<f64>,
    mut cross_rate: f64,
    mut node_cross: Vec<f64>,
    workers: Vec<(SyncSender<Advance>, Receiver<Report>)>,
    mut informed_total: usize,
    probe: &mut P,
    timers: Option<&ShardTimers>,
) -> Totals {
    let k = states.len();
    let mut totals = Totals {
        steps: 0,
        topology_events: 0,
        windows: 0,
        cross_events: 0,
        completed: false,
        last_cross: 0.0,
    };
    let mut tick_hints = vec![f64::NAN; k];
    let mut dispatched = vec![false; k];
    let mut cross_clock = 0.0;
    let mut pending_cross: Option<f64> = None;

    let invalidate = |states: &[Mutex<ShardState>],
                      tick_hints: &mut [f64],
                      local_rates: &[f64],
                      s: usize,
                      t: f64| {
        let mut st = states[s].lock().expect("engine never poisons a shard lock");
        st.pending_tick = None;
        st.clock = t;
        st.local_rate = local_rates[s];
        tick_hints[s] = f64::NAN;
    };

    loop {
        if informed_total == n {
            totals.completed = true;
            break;
        }
        if totals.steps >= max_steps {
            break;
        }
        let next_topo = driver.next_time(rng);
        let next_cross = if cross_rate > 0.0 {
            let (cc, cr) = (cross_clock, cross_rate);
            *pending_cross.get_or_insert_with(|| cc + rng.exp(cr))
        } else {
            f64::INFINITY
        };
        let horizon = next_topo.min(next_cross);

        // Parallel phase: every shard that can act before the horizon
        // advances to it; the others are provably idle and skipped.
        let budget = ((max_steps - totals.steps).div_ceil(k as u64)).max(1);
        let steps_before = totals.steps;
        dispatched.fill(false);
        for (s, d) in dispatched.iter_mut().enumerate().skip(1) {
            if needs_window(tick_hints[s], horizon) {
                workers[s - 1]
                    .0
                    .send(Advance { horizon, budget })
                    .expect("worker outlives the run");
                *d = true;
            }
        }
        let mut absorb = |totals: &mut Totals, tick_hints: &mut [f64], s: usize, rep: Report| {
            totals.steps += rep.events;
            informed_total += rep.newly_informed;
            tick_hints[s] = rep.next_tick;
        };
        if needs_window(tick_hints[0], horizon) {
            let rep = {
                let netr = net.read().expect("engine never poisons the topology lock");
                let mut st0 = states[0].lock().expect("engine never poisons a shard lock");
                let r0: &mut Xoshiro256PlusPlus = match shard0_rng.as_mut() {
                    Some(r) => r,
                    None => &mut *rng,
                };
                let started = timers.map(|_| std::time::Instant::now());
                let rep = process_window(&mut st0, r0, &netr, part, 0, mode, horizon, budget);
                if let (Some(timers), Some(started)) = (timers, started) {
                    timers.add(0, started.elapsed());
                }
                rep
            };
            absorb(&mut totals, &mut tick_hints, 0, rep);
        }
        for (s, d) in dispatched.iter().enumerate().skip(1) {
            if *d {
                let rep = workers[s - 1].1.recv().expect("worker outlives the run");
                absorb(&mut totals, &mut tick_hints, s, rep);
            }
        }
        totals.windows += 1;
        if P::ENABLED {
            probe.window(horizon, totals.steps - steps_before);
        }

        if informed_total == n {
            totals.completed = true;
            break;
        }
        if totals.steps >= max_steps {
            break;
        }
        if horizon.is_infinite() {
            // No cross stream and no topology events: shards are
            // mutually unreachable and nothing further can change.
            break;
        }

        // The single global event at the horizon; topology wins ties,
        // like the sequential engine's merged stream.
        if next_topo <= next_cross {
            let te = next_topo;
            totals.topology_events += 1;
            if P::ENABLED {
                probe.event(te, ProbeEvent::Topology);
                probe.topology_changed(te);
            }
            let mut netw = net.write().expect("engine never poisons the topology lock");
            let impact = {
                // Informed-state view for frontier-aware models: shard
                // locks are uncontended here — every worker has reported
                // and is parked on its command channel.
                let informed = |v: Node| {
                    let st = states[part.shard_of(v) as usize]
                        .lock()
                        .expect("engine never poisons a shard lock");
                    st.informed[part.local_index(v) as usize].is_finite()
                };
                driver.step(mstate, &mut netw, &informed, rng).1
            };
            match impact.touched() {
                Some(touched) => {
                    // Localized mutation (e.g. an edge flip): only the
                    // reported nodes' cross contributions can change —
                    // adjust incrementally against the cached per-node
                    // rates (`node_cross` holds the pre-apply values).
                    let mut delta = 0.0;
                    for &x in touched {
                        let o = node_cross[x as usize];
                        let nw = part.node_cross_rate(&netw, x);
                        if o != nw {
                            node_cross[x as usize] = nw;
                            let s = part.shard_of(x) as usize;
                            local_rates[s] += o - nw;
                            delta += nw - o;
                            invalidate(states, &mut tick_hints, &local_rates, s, te);
                        }
                    }
                    if delta != 0.0 {
                        cross_rate = (cross_rate + delta).max(0.0);
                        pending_cross = None;
                        cross_clock = te;
                    }
                }
                None => {
                    // Global mutation (snapshot, node toggle, strike,
                    // move): recompute every rate, refresh the cache,
                    // and re-draw the arrivals whose rates moved.
                    let (lr, cr) = part.shard_rates(&netw);
                    for (v, c) in node_cross.iter_mut().enumerate() {
                        *c = part.node_cross_rate(&netw, v as Node);
                    }
                    for s in 0..k {
                        if lr[s] != local_rates[s] {
                            local_rates[s] = lr[s];
                            invalidate(states, &mut tick_hints, &local_rates, s, te);
                        }
                    }
                    if cr != cross_rate {
                        cross_rate = cr;
                        pending_cross = None;
                        cross_clock = te;
                    }
                }
            }
        } else {
            // Cross-shard contact: rejection-sample its endpoints, then
            // exchange across the two shard states.
            let t = next_cross;
            pending_cross = None;
            cross_clock = t;
            totals.steps += 1;
            totals.cross_events += 1;
            totals.last_cross = t;
            if P::ENABLED {
                probe.event(t, ProbeEvent::Cross);
            }
            let netr = net.read().expect("engine never poisons the topology lock");
            loop {
                let v = rng.range_usize(n) as Node;
                if !netr.is_active(v) || netr.degree(v) == 0 {
                    continue;
                }
                let w = netr.random_neighbor(v, rng);
                let (sv, sw) = (part.shard_of(v), part.shard_of(w));
                if sv == sw {
                    continue;
                }
                let (li_v, li_w) = (part.local_index(v) as usize, part.local_index(w) as usize);
                let mut stv = states[sv as usize].lock().expect("no poisoned shard lock");
                let mut stw = states[sw as usize].lock().expect("no poisoned shard lock");
                let vi = stv.informed[li_v].is_finite();
                let wi = stw.informed[li_w].is_finite();
                let mut grew = false;
                if vi && !wi && mode.includes_push() {
                    stw.informed[li_w] = t;
                    stw.informed_count += 1;
                    informed_total += 1;
                    grew = true;
                } else if !vi && wi && mode.includes_pull() {
                    stv.informed[li_v] = t;
                    stv.informed_count += 1;
                    informed_total += 1;
                    grew = true;
                }
                if P::ENABLED && grew {
                    probe.informed(t, informed_total);
                }
                break;
            }
        }
    }
    drop(workers); // closes the command channels; workers exit
    totals
}

/// Runs the asynchronous push/pull/push–pull protocol on a dynamic
/// network with `shards` contiguous node shards; this is
/// [`run_dynamic_sharded_under`] with [`RngContract::V1`].
///
/// # Panics
///
/// Panics if `shards` is 0 or exceeds the node count, if `source` is
/// out of range, or if the starting graph has isolated nodes.
pub fn run_dynamic_sharded(
    g: &Graph,
    source: Node,
    mode: Mode,
    model: &DynamicModel,
    shards: usize,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
) -> ShardedOutcome {
    run_dynamic_sharded_under(RngContract::V1, g, source, mode, model, shards, rng, max_steps)
}

/// [`run_dynamic_sharded`] under an explicit [`RngContract`]: `V1` is
/// the pinned eager-queue path, `V2` schedules topology events through
/// the superposition scheduler. `Partition::contiguous` supplies the
/// partition; see [`run_dynamic_sharded_with`] for the semantics. At
/// `K = 1` a run replays the sequential engine
/// ([`crate::run_dynamic_under`]) of the same contract seed-for-seed.
///
/// # Panics
///
/// As [`run_dynamic_sharded`].
#[allow(clippy::too_many_arguments)]
pub fn run_dynamic_sharded_under(
    contract: RngContract,
    g: &Graph,
    source: Node,
    mode: Mode,
    model: &DynamicModel,
    shards: usize,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
) -> ShardedOutcome {
    let part = Partition::contiguous(g.node_count(), shards);
    let mut state = model.build_state();
    run_dynamic_sharded_with(
        contract,
        g,
        source,
        mode,
        state.as_mut(),
        &part,
        rng,
        max_steps,
        &mut NoProbe,
    )
}

/// The general sharded entry point: runs the asynchronous
/// push/pull/push–pull protocol over an already-built
/// [`TopologyModel`] state, from `source`, with the node set sharded by
/// `partition`; shard 0 runs on the calling thread, every further shard
/// on its own worker thread. Model implementations outside the
/// [`DynamicModel`] enum — most importantly a
/// [`TraceReplayer`](crate::engine::trace::TraceReplayer) — come in
/// here.
///
/// Exact in distribution for any shard count (see the module docs for
/// the argument); with one shard it replays [`crate::run_dynamic_with`]
/// seed-for-seed. Results are deterministic in
/// `(seed, partition, model)` — but *not* invariant in the shard count:
/// `K` and `K'` runs of the same seed are two different samples of the
/// same process law.
///
/// `max_steps` bounds the total number of protocol events; with more
/// than one shard the bound is enforced per window (each shard gets an
/// equal slice of the remainder), so a budget-terminated run may
/// slightly overshoot it. Completion-terminated runs are unaffected.
///
/// The `probe` observes the run from the coordinator's side: window
/// closures, topology and cross-shard events, and final per-shard
/// wall-clock utilization. Probes are passive — a probed run replays
/// its unprobed twin seed-for-seed — and a [`NoProbe`] compiles every
/// hook out, including the per-window timer reads.
///
/// # Panics
///
/// Panics if `partition` does not cover exactly the graph's nodes, if
/// `source` is out of range, or if the starting graph has isolated
/// nodes.
#[allow(clippy::too_many_arguments)]
pub fn run_dynamic_sharded_with<P: Probe, M: TopologyModel + ?Sized>(
    contract: RngContract,
    g: &Graph,
    source: Node,
    mode: Mode,
    mstate: &mut M,
    partition: &Partition,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
    probe: &mut P,
) -> ShardedOutcome {
    let n = g.node_count();
    assert_eq!(partition.node_count(), n, "partition must cover the graph's nodes");
    assert!((source as usize) < n, "source out of range");
    assert!(n == 1 || !g.has_isolated_nodes(), "graph has isolated nodes");
    let k = partition.shard_count();

    let mut informed_time = vec![f64::INFINITY; n];
    informed_time[source as usize] = 0.0;
    if P::ENABLED {
        probe.trial_start(n, source);
        probe.informed(0.0, 1);
    }
    if n == 1 {
        if P::ENABLED {
            probe.trial_end(0.0, true);
        }
        return ShardedOutcome {
            outcome: DynamicOutcome {
                time: 0.0,
                steps: 0,
                topology_events: 0,
                completed: true,
                informed_time,
            },
            shards: k,
            windows: 0,
            cross_events: 0,
        };
    }

    // Model init first, from the caller's stream — the sequential
    // engine's order, which the K = 1 replay depends on. Init may
    // replace the starting topology (mobility), so it precedes the
    // rate derivation below. The driver dispatches on the contract:
    // v1 eager queue, v2 superposition channels.
    let mut net = MutableGraph::from_graph(g);
    if contract == RngContract::V2 {
        // Matches the sequential v2 engine (the K = 1 replay contract):
        // v2 goldens are minted in order-relaxed adjacency mode.
        net.relax_neighbor_order();
    }
    let mut driver = TopoDriver::new(contract, g, &mut net, mstate, rng);

    // K = 1: the lone shard shares the caller's stream. K > 1: one
    // derivation draw, then well-separated child streams per shard; the
    // caller's stream keeps the coordinator roles (cross contacts,
    // topology successors).
    let mut shard_rngs: Vec<Xoshiro256PlusPlus> = if k == 1 {
        Vec::new()
    } else {
        let root = rng.next_u64();
        Xoshiro256PlusPlus::spawn_children(root, k)
    };
    let shard0_rng = if k == 1 { None } else { Some(shard_rngs.remove(0)) };

    let node_cross: Vec<f64> = (0..n).map(|v| partition.node_cross_rate(&net, v as Node)).collect();
    let net = RwLock::new(net);
    let (local_rates, cross_rate) = partition.shard_rates(&net.read().expect("fresh lock"));
    let states: Vec<Mutex<ShardState>> = (0..k)
        .map(|s| {
            let members = partition.nodes(s as ShardId);
            let mut informed = vec![f64::INFINITY; members.len()];
            let mut informed_count = 0;
            if partition.shard_of(source) as usize == s {
                informed[partition.local_index(source) as usize] = 0.0;
                informed_count = 1;
            }
            Mutex::new(ShardState {
                informed,
                informed_count,
                clock: 0.0,
                last_event: 0.0,
                pending_tick: None,
                local_rate: local_rates[s],
            })
        })
        .collect();

    // Wall-clock timers only exist on probed runs: a NoProbe run takes
    // no timestamps at all.
    let timers = if P::ENABLED { Some(ShardTimers::new(k)) } else { None };
    let totals = if k == 1 {
        coordinate(
            n,
            mode,
            partition,
            max_steps,
            &net,
            &states,
            &mut driver,
            mstate,
            rng,
            shard0_rng,
            local_rates,
            cross_rate,
            node_cross,
            Vec::new(),
            1,
            probe,
            timers.as_ref(),
        )
    } else {
        std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(k - 1);
            for (s, wrng) in shard_rngs.into_iter().enumerate() {
                let me = (s + 1) as ShardId;
                let (cmd_tx, cmd_rx) = sync_channel::<Advance>(1);
                let (rep_tx, rep_rx) = sync_channel::<Report>(1);
                let (net, state) = (&net, &states[me as usize]);
                let timers = timers.as_ref();
                scope.spawn(move || {
                    worker_loop(me, mode, partition, net, state, wrng, cmd_rx, rep_tx, timers)
                });
                workers.push((cmd_tx, rep_rx));
            }
            coordinate(
                n,
                mode,
                partition,
                max_steps,
                &net,
                &states,
                &mut driver,
                mstate,
                rng,
                shard0_rng,
                local_rates,
                cross_rate,
                node_cross,
                workers,
                1,
                probe,
                timers.as_ref(),
            )
        })
    };
    if P::ENABLED {
        if let Some(timers) = &timers {
            probe.shard_utilization(&timers.utilization());
        }
    }

    // Scatter the shard-local informed times back to global indexing.
    let mut last_step = totals.last_cross;
    for (s, state) in states.into_iter().enumerate() {
        let st = state.into_inner().expect("workers have exited");
        last_step = last_step.max(st.last_event);
        for (local, &t) in st.informed.iter().enumerate() {
            informed_time[partition.nodes(s as ShardId)[local] as usize] = t;
        }
    }
    // Completed runs report the completing exchange; incomplete runs the
    // last protocol step taken (local or cross — never a bare topology
    // rate reset), matching the sequential engine's `time` contract.
    let time = if totals.completed {
        informed_time.iter().copied().fold(0.0, f64::max)
    } else {
        last_step
    };
    if P::ENABLED {
        probe.trial_end(time, totals.completed);
    }
    ShardedOutcome {
        outcome: DynamicOutcome {
            time,
            steps: totals.steps,
            topology_events: totals.topology_events,
            completed: totals.completed,
            informed_time,
        },
        shards: k,
        windows: totals.windows,
        cross_events: totals.cross_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_graph::generators;
    use rumor_sim::stats::OnlineStats;

    use crate::dynamic::{
        run_dynamic, Adversary, EdgeMarkov, Mobility, NodeChurn, RandomWalk, Rewire, SnapshotFamily,
    };

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from(seed)
    }

    fn models() -> Vec<DynamicModel> {
        vec![
            DynamicModel::Static,
            DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0)),
            DynamicModel::Rewire(Rewire::new(2.0, SnapshotFamily::Gnp { p: 0.2 })),
            DynamicModel::NodeChurn(NodeChurn::new(0.2, 1.0, 3)),
            DynamicModel::RandomWalk(RandomWalk::new(1.0)),
            DynamicModel::Mobility(Mobility::new(1.0, 0.35, 0.15)),
            DynamicModel::Adversary(Adversary::new(1.0, 3, 1.0)),
        ]
    }

    #[test]
    fn one_shard_replays_sequential_seed_for_seed() {
        let g = generators::gnp_connected(48, 0.15, &mut rng(1), 100);
        for model in models() {
            for seed in 0..5 {
                let mut a = rng(100 + seed);
                let sequential = run_dynamic(&g, 0, Mode::PushPull, &model, &mut a, 10_000_000);
                let mut b = rng(100 + seed);
                let sharded =
                    run_dynamic_sharded(&g, 0, Mode::PushPull, &model, 1, &mut b, 10_000_000);
                assert_eq!(sharded.outcome, sequential, "model {model} seed {seed}");
                assert_eq!(sharded.cross_events, 0);
                // Final RNG state: the engines consumed identical draws.
                assert_eq!(a.next_u64(), b.next_u64(), "model {model} seed {seed}");
            }
        }
    }

    #[test]
    fn one_shard_replays_sequential_v2_seed_for_seed() {
        // The K = 1 invariant holds under the v2 contract too: the
        // coordinator computes the horizon (which may draw the
        // superposition arrival) before the window draws its tick,
        // exactly the sequential v2 loop's peek order. The adversary
        // exercises the scan-fallback strike law against the sequential
        // engine's incremental boundary — same cut sets, zero draws.
        let g = generators::gnp_connected(48, 0.15, &mut rng(1), 100);
        for model in models() {
            for seed in 0..5 {
                let mut a = rng(100 + seed);
                let sequential = crate::dynamic::run_dynamic_under(
                    RngContract::V2,
                    &g,
                    0,
                    Mode::PushPull,
                    &model,
                    &mut a,
                    10_000_000,
                );
                let mut b = rng(100 + seed);
                let sharded = run_dynamic_sharded_under(
                    RngContract::V2,
                    &g,
                    0,
                    Mode::PushPull,
                    &model,
                    1,
                    &mut b,
                    10_000_000,
                );
                assert_eq!(sharded.outcome, sequential, "model {model} seed {seed}");
                assert_eq!(sharded.cross_events, 0);
                assert_eq!(a.next_u64(), b.next_u64(), "model {model} seed {seed}");
            }
        }
    }

    #[test]
    fn multi_shard_is_deterministic_per_seed() {
        let g = generators::gnp_connected(64, 0.12, &mut rng(2), 100);
        for model in models() {
            for shards in [2usize, 3, 4] {
                let a = run_dynamic_sharded(
                    &g,
                    0,
                    Mode::PushPull,
                    &model,
                    shards,
                    &mut rng(7),
                    10_000_000,
                );
                let b = run_dynamic_sharded(
                    &g,
                    0,
                    Mode::PushPull,
                    &model,
                    shards,
                    &mut rng(7),
                    10_000_000,
                );
                assert_eq!(a, b, "model {model} shards {shards}");
            }
        }
    }

    #[test]
    fn multi_shard_completes_and_matches_sequential_mean() {
        // The sharded engine samples the same process law: compare
        // spreading-time means against the sequential engine.
        let g = generators::gnp_connected(64, 0.15, &mut rng(3), 100);
        let trials = 120;
        let mut seq = OnlineStats::new();
        let mut shd = OnlineStats::new();
        for seed in 0..trials {
            let s = run_dynamic(
                &g,
                0,
                Mode::PushPull,
                &DynamicModel::Static,
                &mut rng(500 + seed),
                50_000_000,
            );
            assert!(s.completed);
            seq.push(s.time);
            let p = run_dynamic_sharded(
                &g,
                0,
                Mode::PushPull,
                &DynamicModel::Static,
                4,
                &mut rng(900_000 + seed),
                50_000_000,
            );
            assert!(p.outcome.completed, "seed {seed}");
            assert!(p.outcome.informed_time.iter().all(|t| t.is_finite()));
            shd.push(p.outcome.time);
        }
        let rel = (seq.mean() - shd.mean()).abs() / seq.mean();
        assert!(rel < 0.1, "sequential {} vs sharded {}", seq.mean(), shd.mean());
    }

    #[test]
    fn multi_shard_handles_churn_models() {
        let g = generators::gnp_connected(48, 0.2, &mut rng(4), 100);
        for model in models() {
            let out =
                run_dynamic_sharded(&g, 0, Mode::PushPull, &model, 3, &mut rng(11), 50_000_000);
            assert!(out.outcome.completed, "model {model}");
            assert!(out.outcome.informed_time.iter().all(|t| t.is_finite()), "model {model}");
            assert_eq!(out.shards, 3);
        }
    }

    #[test]
    fn rumor_crosses_shards_only_via_cross_events() {
        // Two cliques joined by one bridge, split at the bridge: the
        // rumor reaching shard 1 requires at least one cross event.
        let g = generators::necklace_of_cliques(2, 16);
        let out = run_dynamic_sharded(
            &g,
            0,
            Mode::PushPull,
            &DynamicModel::Static,
            2,
            &mut rng(13),
            100_000_000,
        );
        assert!(out.outcome.completed);
        assert!(out.cross_events > 0);
        assert!(out.windows > 0);
        assert!(out.events_per_window() > 0.0);
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        let g = generators::path(64);
        for shards in [1usize, 2] {
            let out = run_dynamic_sharded(
                &g,
                0,
                Mode::PushPull,
                &DynamicModel::Static,
                shards,
                &mut rng(17),
                10,
            );
            assert!(!out.outcome.completed, "shards {shards}");
            assert!(out.outcome.steps >= 10, "shards {shards}");
        }
    }

    #[test]
    fn single_node_trivially_complete() {
        let g = rumor_graph::GraphBuilder::new(1).build().unwrap();
        let out =
            run_dynamic_sharded(&g, 0, Mode::PushPull, &DynamicModel::Static, 1, &mut rng(19), 10);
        assert!(out.outcome.completed);
        assert_eq!(out.outcome.steps, 0);
    }

    #[test]
    #[should_panic(expected = "more shards")]
    fn rejects_more_shards_than_nodes() {
        let g = generators::complete(4);
        run_dynamic_sharded(&g, 0, Mode::PushPull, &DynamicModel::Static, 5, &mut rng(23), 1_000);
    }
}
