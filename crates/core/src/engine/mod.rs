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
//!   channels, and the rate-`n` protocol [`TickSource`]; the sequential
//!   engine and the trace recording both consume topology events
//!   through the driver.
//! * [`trace`] — topology-trace record/replay: a [`TopologyTrace`]
//!   captures one realized topology evolution, standalone, and replays
//!   it as a deterministic [`TopologyModel`], so one churn realization
//!   can drive many protocol runs — the substrate of the coupled
//!   sync-vs-async comparisons ([`run_sync_dynamic`] consumes the same
//!   trace at round boundaries, [`run_trace_lazy`] is a queue-free
//!   async cursor). A [`TraceRecording`] records on demand, only as
//!   far as its replays read.
//!
//! The static engines ([`crate::run_async`], [`crate::run_sync`]) run
//! their own loops and need none of this.

pub mod scheduler;
pub mod topology;
pub mod trace;

pub use scheduler::{TickSource, TopoDriver};
pub use topology::{StateVisitor, TopologyModel};
pub use trace::{
    run_sync_dynamic, run_trace_lazy, TopologyTrace, TraceRecording, TraceRef, TraceReplayer,
    TraceStep,
};
