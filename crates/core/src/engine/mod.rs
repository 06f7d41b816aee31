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
//! * [`trace`] — topology-trace record/replay: a [`TopologyTrace`]
//!   captures one realized topology evolution, standalone, and replays
//!   it as a deterministic [`TopologyModel`], so one churn realization
//!   can drive many protocol runs — the substrate of the coupled
//!   sync-vs-async comparisons. [`run_coupled_dynamic`] runs a coupled
//!   trial's synchronous and asynchronous replays in lockstep on one
//!   graph, so each trace step is applied once however many replays
//!   read it; [`run_sync_dynamic`] (rounds at time boundaries) and
//!   [`run_trace_lazy`] (a queue-free async cursor) are its one-half
//!   forms. A [`TraceRecording`] records on demand, only as far as its
//!   replays read.
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
    run_coupled_dynamic, run_sync_dynamic, run_trace_lazy, CoupledReplays, TopologyTrace,
    TraceRecording, TraceRef, TraceReplayer, TraceStep,
};
