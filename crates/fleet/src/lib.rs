//! The fleet subsystem: executing sweep-expanded work-lists of run
//! specs across worker processes, and the long-running simulation
//! service loop.
//!
//! The spec layer (PR 5) made every run a one-file `.spec` artifact and
//! the observability layer (PR 6) made run outputs deterministic; this
//! crate scales both from one-spec-one-process to parameter grids and a
//! persistent service:
//!
//! * [`frame`] — length-prefixed byte frames, the wire framing both the
//!   worker protocol and the service speak over any `Read`/`Write`
//!   pair;
//! * [`report`] — the [`RunReport`](rumor_core::RunReport) ⇄ JSON wire
//!   codec and the merged, provenance-stamped `FleetReport` artifact
//!   (schema [`FLEET_SCHEMA`]);
//! * [`dispatch`](mod@dispatch) — expands a [`SweepSpec`](rumor_core::SweepSpec) into
//!   its validated work-list, executes the list in-process or across
//!   `rumor worker` child processes (crashed workers are retried once),
//!   and merges the child reports into one `FleetReport`;
//! * [`service`] — the shared frame loop behind `rumor worker` and
//!   `rumor serve` over stdin/stdout, with cross-request graph/trace
//!   caching ([`RunCaches`](rumor_core::RunCaches)) on the serve path.
//!
//! Determinism contract: the merged `FleetReport` is byte-identical for
//! any worker count (including the in-process path) — results are
//! slotted by child index, the artifact carries no scheduling
//! information, and the JSON renderer is the deterministic one the
//! metrics artifacts already use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dispatch;
pub mod frame;
pub mod report;
pub mod service;

pub use dispatch::{dispatch, DispatchOptions, FleetError, FleetOutcome};
pub use report::{report_from_json, report_to_json, telemetry_from_json, FLEET_SCHEMA};
pub use service::{run_frames, ServiceConfig, ServiceExit};
