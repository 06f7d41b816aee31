//! The engine instrumentation hook: a statically dispatched [`Probe`]
//! trait whose disabled path compiles to nothing.
//!
//! Engines take a generic `P: Probe` parameter and guard every hook
//! call with `if P::ENABLED { ... }`. [`NoProbe`] sets
//! `ENABLED = false`, so the disabled path is `if false { ... }` —
//! constant-folded away entirely; the probe-overhead bench
//! (`benches/obs.rs`, baselines in `BENCH_PR6.json`) pins this at
//! parity with the unprobed engines.

use rumor_graph::Node;

use crate::trace::Transmission;

/// Kinds of engine events visible at the dispatch hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// A protocol step: one node activation / contact.
    Tick,
    /// A topology event (edge flip, rewiring, churn, …).
    Topology,
}

impl std::fmt::Display for ProbeEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ProbeEvent::Tick => "tick",
            ProbeEvent::Topology => "topology",
        })
    }
}

/// Observation hooks threaded through the engines. Every method has an
/// empty default, so probes override only what they watch; `ENABLED`
/// gates all call sites statically.
///
/// Probes are **passive**: they never draw randomness and cannot alter
/// an engine's behavior, so a probed run replays its unprobed twin
/// seed-for-seed.
pub trait Probe {
    /// Whether this probe's hooks are invoked at all. `false` compiles
    /// every hook call out of the engine's hot loop.
    const ENABLED: bool = true;

    /// A trial is starting on `n` nodes from the (deduplicated)
    /// `sources`.
    fn trial_start(&mut self, n: usize, sources: &[Node]) {
        let _ = (n, sources);
    }

    /// The engine dispatched an event at `time`.
    fn event(&mut self, time: f64, kind: ProbeEvent) {
        let _ = (time, kind);
    }

    /// The informed set grew to `count` nodes at `time`. Engines call
    /// this with non-decreasing counts; recording probes assert it.
    fn informed(&mut self, time: f64, count: usize) {
        let _ = (time, count);
    }

    /// `learner` got the rumor from `informer` by `how` at `time` (the
    /// round number for synchronous runs). Called right after the
    /// matching [`informed`](Self::informed).
    fn transmitted(&mut self, informer: Node, learner: Node, how: Transmission, time: f64) {
        let _ = (informer, learner, how, time);
    }

    /// The trial ended at `time`; `completed` is `false` for censored
    /// trials.
    fn trial_end(&mut self, time: f64, completed: bool) {
        let _ = (time, completed);
    }
}

/// The disabled probe: every hook call site is statically dead code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;
}

/// A counting probe for tests and benches: tallies every hook call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CountingProbe {
    /// Trials started.
    pub trials: u64,
    /// Events dispatched, by kind: `[ticks, topology]`.
    pub events: [u64; 2],
    /// `informed` notifications (one per newly informed node).
    pub informed: u64,
    /// Last informed count seen (monotonicity-checked in debug builds).
    pub last_count: usize,
    /// Trials ended, completed ones.
    pub completed: u64,
}

impl Probe for CountingProbe {
    fn trial_start(&mut self, _n: usize, _sources: &[Node]) {
        self.trials += 1;
        self.last_count = 0;
    }

    fn event(&mut self, _time: f64, kind: ProbeEvent) {
        self.events[match kind {
            ProbeEvent::Tick => 0,
            ProbeEvent::Topology => 1,
        }] += 1;
    }

    fn informed(&mut self, _time: f64, count: usize) {
        debug_assert!(
            count >= self.last_count,
            "informed count regressed: {} -> {count}",
            self.last_count
        );
        self.last_count = count;
        self.informed += 1;
    }

    fn trial_end(&mut self, _time: f64, completed: bool) {
        if completed {
            self.completed += 1;
        }
    }
}
