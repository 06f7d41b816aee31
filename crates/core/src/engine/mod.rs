//! The simulation engine layer: one event loop, many event sources,
//! and a queue-free cursor for recorded traces.
//!
//! PR 1 left this crate with two hand-written event loops — the static
//! asynchronous engine ([`crate::run_async`]) and the dynamic engine
//! ([`crate::run_dynamic`]) — that differed only in where their events
//! came from. This module factors that shape out and builds on it:
//!
//! * [`source`] — the [`EventSource`] abstraction ([`TickSource`], the
//!   superposition scheduler) and the [`drive`] loop the global-clock
//!   engine is written over, with RNG consumption preserved
//!   draw-for-draw.
//! * [`topology`] — the pluggable topology-model layer: the
//!   [`TopologyModel`] trait (stochastic channels, deterministic
//!   side-queue events, an optional informed-set feed) every engine
//!   consumes models through, with six implementations (edge-Markov flips,
//!   periodic rewiring, node churn, random-walk edge dynamics,
//!   geometric mobility, frontier adversary).
//! * [`scheduler`] — the [`TopoDriver`]: the superposition
//!   single-clock scheduler over a model's channels; the sequential
//!   engine and the trace recorder both consume topology events
//!   through it.
//! * [`trace`] — topology-trace record/replay: a [`TopologyTrace`]
//!   captures one realized topology evolution (from any engine, or
//!   standalone) and replays it as a deterministic [`TopologyModel`],
//!   so one churn realization can drive many protocol runs — the
//!   substrate of the coupled sync-vs-async comparisons
//!   ([`run_sync_dynamic`] consumes the same trace at round
//!   boundaries, [`run_trace_lazy`] is a queue-free async cursor). A
//!   [`TraceRecording`] records on demand, only as far as its replays
//!   read.

pub mod scheduler;
pub mod source;
pub mod topology;
pub mod trace;

pub use scheduler::TopoDriver;
pub use source::{drive, Control, EventSource, TickSource};
pub use topology::{StateVisitor, TopoEvent, TopologyModel};
pub use trace::{
    run_sync_dynamic, run_trace_lazy, TopologyTrace, TraceRecorder, TraceRecording, TraceRef,
    TraceReplayer, TraceStep,
};
