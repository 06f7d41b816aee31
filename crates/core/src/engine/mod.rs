//! The simulation engine layer for dynamic networks: the topology
//! models, the clocks that draw their events, and recorded traces.
//!
//! * [`topology`] — the pluggable topology-model layer: the
//!   [`TopologyModel`] trait (stochastic channels, at most one pending
//!   deterministic event reported through
//!   [`next_due`](TopologyModel::next_due), an optional informed-set
//!   feed) every engine consumes models through, with six
//!   implementations (edge-Markov flips, periodic rewiring, node churn,
//!   random-walk edge dynamics, geometric mobility, frontier
//!   adversary).
//! * [`scheduler`] — the [`TopoDriver`], which merges a model's due
//!   event with the superposition single-clock scheduler over its
//!   channels; the tick loop over a model and the trace recording both
//!   consume topology events through it.
//! * [`trace`] — topology-trace record/replay: a [`TraceRecording`]
//!   records one realized topology evolution, standalone and on demand,
//!   only as far as its replays read, so one churn realization can
//!   drive many protocol runs — the substrate of the coupled
//!   sync-vs-async comparisons. [`run_coupled_dynamic`] is the one
//!   replay: it runs a coupled trial's synchronous and asynchronous
//!   halves in lockstep on one graph, so each trace step is applied
//!   once however many halves read it; [`run_sync_dynamic`] (rounds at
//!   time boundaries) is its one-half synchronous form. A
//!   [`TopologyTrace`] is a recording's steps so far, or an eager one
//!   ([`TopologyTrace::record`]).
//!
//! Each protocol has one loop: the asynchronous global-clock tick loop
//! of [`crate::asynchronous`] runs over static rows, a model's graph and
//! driver, or a replay's trace cursor, and the synchronous round loop
//! over static rows or a trace replay.

pub mod scheduler;
pub mod topology;
pub mod trace;

pub use scheduler::TopoDriver;
pub use topology::TopologyModel;
pub use trace::{
    run_coupled_dynamic, run_sync_dynamic, CoupledReplays, TopologyTrace, TraceRecording, TraceRef,
    TraceStep,
};
