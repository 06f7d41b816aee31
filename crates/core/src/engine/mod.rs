//! The simulation engine layer: one event loop, many event sources,
//! three execution strategies.
//!
//! PR 1 left this crate with two hand-written event loops — the static
//! asynchronous engine ([`crate::run_async`]) and the dynamic engine
//! ([`crate::run_dynamic`]) — that differed only in where their events
//! came from. This module factors that shape out and builds on it:
//!
//! * [`source`] — the [`EventSource`] abstraction ([`TickSource`],
//!   [`QueueSource`], [`Merged`]) and the [`drive`] loop. Both
//!   sequential engines are now written over it, with RNG consumption
//!   preserved draw-for-draw (the seed-for-seed replay guarantees of
//!   PR 1 still hold and are still property-tested).
//! * [`topology`] — the pluggable topology-model layer: the
//!   [`TopologyModel`] trait (next-event draw, apply, incremental rate
//!   delta, and the v2 channel interface) every engine consumes models
//!   through, with six implementations (edge-Markov flips, periodic
//!   rewiring, node churn, random-walk edge dynamics, geometric
//!   mobility, frontier adversary).
//! * [`scheduler`] — the [`TopoDriver`] contract dispatcher: one place
//!   where [`RngContract::V1`](rumor_sim::events::RngContract) routes
//!   to the pinned eager queue and `V2` to the superposition
//!   single-clock scheduler; the sequential engine, the sharded
//!   coordinator, and the trace recorder all consume topology events
//!   through it.
//! * [`lazy`] — an edge-Markov engine with **lazy per-edge clocks**:
//!   no pending-flip queue at all, each edge's on/off chain resolved
//!   only when a contact touches it. Memory for topology bookkeeping is
//!   O(touched edges), which is what makes n ≥ 10⁶ runs feasible.
//! * [`sharded`] — a conservative-lookahead parallel engine: nodes are
//!   partitioned into shards with per-shard Poisson streams and RNGs,
//!   every shard advances in lockstep windows up to a horizon derived
//!   from the next cross-shard or topology event, and workers exchange
//!   window commands/reports over bounded channels. With one shard it
//!   replays the sequential dynamic engine seed-for-seed.
//! * [`trace`] — topology-trace record/replay: a [`TopologyTrace`]
//!   captures one realized topology evolution (from any engine, or
//!   standalone) and replays it as a deterministic [`TopologyModel`],
//!   so one churn realization can drive many protocol runs — the
//!   substrate of the coupled sync-vs-async comparisons
//!   ([`run_sync_dynamic`] consumes the same trace at round
//!   boundaries, [`run_trace_lazy`] is a queue-free async cursor).

pub mod lazy;
pub mod scheduler;
pub mod sharded;
pub mod source;
pub mod topology;
pub mod trace;

pub use lazy::{run_edge_markov_lazy, LazyOutcome};
pub use scheduler::TopoDriver;
pub use sharded::{
    run_dynamic_sharded, run_dynamic_sharded_under, run_dynamic_sharded_with, ShardedOutcome,
};
pub use source::{drive, Control, Either, EventSource, Merged, QueueSource, TickSource};
pub use topology::{InformedView, RateImpact, StateVisitor, TopoEvent, TopologyModel};
pub use trace::{
    run_sync_dynamic, run_trace_lazy, TopologyTrace, TraceRecorder, TraceReplayer, TraceStep,
};
