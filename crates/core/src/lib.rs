//! Rumor spreading protocols and the PODC 2016 coupling machinery.
//!
//! This crate implements the primary contribution of *“How Asynchrony
//! Affects Rumor Spreading Time”* (Giakkoupis, Nazari, Woelfel, PODC 2016):
//!
//! * the **synchronous** push / pull / push–pull protocols ([`sync`]),
//!   exactly as defined in §2 of the paper (simultaneous rounds, exchanges
//!   decided on the pre-round informed set);
//! * the **asynchronous** variants ([`asynchronous`]) in all three
//!   provably-equivalent views the paper describes — per-node rate-1
//!   Poisson clocks, a single rate-`n` clock, and per-directed-edge clocks
//!   with rate `1/deg(v)`; several sources and message loss
//!   ([`spread::SpreadConfig`]) and transmission traces ([`trace`], a
//!   probe) are parameters of the same loops. The global-clock view is
//!   the one asynchronous tick loop: the dynamic engine and the trace
//!   replays run it too, over a model's graph or a trace cursor;
//! * the **auxiliary processes** `ppx` and `ppy` (Definitions 5 and 7)
//!   that bridge the two models in the upper-bound proof ([`aux`]);
//! * the **couplings** from both proofs ([`coupling`]): the shared-
//!   randomness push coupling, the Lemma 9/10 pull coupling (three
//!   processes driven by one randomness source, exposing the per-node
//!   inequalities), and the §5 block decomposition with its subset
//!   invariant and block accounting;
//! * a **first-passage percolation** comparator ([`fpp`]) for the
//!   Richardson-model correspondence on regular graphs;
//! * a **dynamic-network engine** ([`dynamic`]) that interleaves topology
//!   events with the ticks of the global-clock loop in one time-ordered
//!   stream, extending the asynchronous model to temporal graphs à la
//!   Pourmiri–Mans, under the same [`spread::SpreadConfig`]; with churn
//!   rate 0 it replays the static process seed-for-seed;
//! * the **engine layer** ([`engine`]) under the dynamic engine: the
//!   pluggable [`engine::TopologyModel`] layer (edge-Markov churn,
//!   periodic rewiring, node join/leave, random-walk edge dynamics,
//!   geometric mobility, adversarial frontier cuts — one interface
//!   consumed by every engine, each model with at most one pending
//!   deterministic event, and every model run through its boxed
//!   state, [`DynamicModel::build_state`]), the topology driver
//!   ([`engine::TopoDriver`]) that merges that event with the
//!   superposition scheduler over the model's channels, and topology
//!   traces, recorded on demand and read by the one **lockstep trace
//!   replay** ([`engine::run_coupled_dynamic`], one-half synchronous
//!   form [`engine::run_sync_dynamic`]);
//! * a seeded, optionally parallel **Monte-Carlo runner** ([`runner`]) for
//!   estimating spreading-time laws, expectations `E[T]` and
//!   high-probability quantiles `T₁/ₙ`;
//! * the **unified run API** ([`spec`]): [`SimSpec`] composes protocol ×
//!   topology × trial plan in one typed builder, validates the
//!   combination once, executes it into a [`RunReport`] (explicit
//!   censoring, paired statistics when coupled, engine telemetry), and
//!   serializes to a one-file text artifact — the one run API the CLI,
//!   the fleet and the experiments share.
//!
//! # Quickstart
//!
//! ```
//! use rumor_core::{run_sync, run_async, AsyncView, Mode};
//! use rumor_graph::generators;
//! use rumor_sim::rng::Xoshiro256PlusPlus;
//!
//! let g = generators::hypercube(5);
//! let mut rng = Xoshiro256PlusPlus::seed_from(7);
//!
//! let sync = run_sync(&g, 0, Mode::PushPull, &mut rng, 10_000);
//! assert!(sync.completed);
//!
//! let asy = run_async(&g, 0, Mode::PushPull, AsyncView::GlobalClock, &mut rng, 1_000_000);
//! assert!(asy.completed);
//! println!("sync: {} rounds, async: {:.2} time units", sync.rounds, asy.time);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asynchronous;
pub mod aux;
pub mod coupling;
pub mod dynamic;
pub mod engine;
pub mod fpp;
mod informed;
mod mode;
pub mod obs;
mod outcome;
pub mod quasirandom;
pub mod runner;
pub mod spec;
pub mod spread;
pub mod sync;
pub mod trace;

pub use asynchronous::{run_async, run_async_probed, AsyncView};
pub use dynamic::{run_dynamic, run_dynamic_with, DynamicModel};
pub use engine::{run_sync_dynamic, TopologyModel, TopologyTrace};
pub use informed::InformedSet;
pub use mode::Mode;
pub use obs::{
    CountingProbe, CurveSummary, LogHistogram, MetricsLevel, NoProbe, Probe, ProbeEvent,
    RunMetrics, SpreadingCurve,
};
pub use outcome::{AsyncOutcome, SyncOutcome, NEVER_ROUND};
pub use spec::cache::RunCaches;
pub use spec::sweep::{SweepAxis, SweepChild, SweepSpec};
pub use spec::{
    CoupledOutcome, GraphSpec, Protocol, RunReport, SimSpec, Simulation, SpecError, Topology,
    TrialPlan,
};
pub use spread::SpreadConfig;
pub use sync::{run_sync, run_sync_probed};
