//! Observability: zero-dependency instrumentation for the simulation
//! engines.
//!
//! The subsystem has two layers:
//!
//! * **Probes** ([`Probe`], [`NoProbe`]) — statically dispatched hooks
//!   at trial start/end, event dispatch, topology changes,
//!   informed-set growth and shard-window synchronization. Engines are
//!   generic over the probe type and guard every hook with the
//!   associated `ENABLED` constant, so the disabled path compiles to
//!   nothing (benchmarked in `benches/obs.rs`).
//! * **Metrics** ([`RunMetrics`]) — per-run aggregates built by the
//!   spec layer from per-trial outcomes: log-bucketed
//!   [`LogHistogram`]s for spreading times and event counts, mean
//!   [spreading curves](SpreadingCurve) with an automatic
//!   startup/exponential/saturation [phase split](Phases), and
//!   engine-health diagnostics. The JSON artifact rendering is
//!   byte-deterministic and engine-invariant.
//!
//! ```text
//!             engine hot loop                       spec layer
//!   ┌───────────────────────────────┐   ┌────────────────────────────┐
//!   │ run_dynamic_with::<P, M>      │   │ per-trial outcomes         │
//!   │   if P::ENABLED {             │   │   └─ SpreadingCurve        │
//!   │     probe.event(t, Tick)      │   │   └─ LogHistogram ─ merge  │
//!   │     probe.informed(t, count)  │   │          │                 │
//!   │   }                           │   │      RunMetrics            │
//!   └───────────────────────────────┘   │   ├─ summary lines         │
//!     NoProbe: compiled out entirely    │   └─ .metrics.json         │
//!                                       └────────────────────────────┘
//! ```

mod curve;
mod histogram;
pub mod json;
mod metrics;
mod probe;
mod ring;
mod sink;
mod timer;

pub use curve::{CurveSummary, Phases, SpreadingCurve, SATURATION_FRAC, STARTUP_FRAC};
pub use histogram::{Bucket, LogHistogram};
pub use metrics::{CensorDump, EngineHealth, RunMetrics, METRICS_SCHEMA};
pub use probe::{CountingProbe, NoProbe, Probe, ProbeEvent};
pub use ring::{EventRing, RingProbe};
pub use sink::{emit_warning, set_warning_sink, Warning, WarningSink};
pub use timer::ShardTimers;

/// How much observability a run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsLevel {
    /// No metrics: probes disabled, no capture overhead (the default).
    #[default]
    Off,
    /// Capture metrics and render the human-readable summary.
    Summary,
    /// Capture metrics and emit the deterministic `.metrics.json`
    /// artifact (implies everything `Summary` shows).
    Json,
}

impl MetricsLevel {
    /// `true` unless metrics are off.
    pub fn is_enabled(self) -> bool {
        self != MetricsLevel::Off
    }
}

impl std::fmt::Display for MetricsLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MetricsLevel::Off => "off",
            MetricsLevel::Summary => "summary",
            MetricsLevel::Json => "json",
        })
    }
}

impl std::str::FromStr for MetricsLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(MetricsLevel::Off),
            "summary" => Ok(MetricsLevel::Summary),
            "json" => Ok(MetricsLevel::Json),
            other => Err(format!("unknown metrics level `{other}` (off|summary|json)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_level_round_trips_through_text() {
        for level in [MetricsLevel::Off, MetricsLevel::Summary, MetricsLevel::Json] {
            assert_eq!(level.to_string().parse::<MetricsLevel>(), Ok(level));
        }
        assert!("verbose".parse::<MetricsLevel>().is_err());
        assert!(!MetricsLevel::Off.is_enabled());
        assert!(MetricsLevel::Json.is_enabled());
    }
}
