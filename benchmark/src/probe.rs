//! A fixed computation that measures how fast the host runs right now.
//!
//! The calibration host slows each vCPU by up to ~1.8× in spells of a
//! fraction of a second to seconds, and much more when other tenants
//! are busy. `run.sh` pins the runner and every `rumor` process to one
//! vCPU. The runner times the probe before and after the set-up, every
//! 40 ms between timed requests, and after the last, and multiplies each
//! time by the [`scale`] of the probes around it. The probe is the
//! runner's own code, so no change to the program under test moves it.

use std::time::Instant;

use crate::rng::SplitMix64;

/// The fastest probe time on the calibration host (2-vCPU x86-64 VM,
/// runner pinned to one vCPU). Scaled times are in that host's
/// milliseconds.
pub const PROBE_REFERENCE_MS: f64 = 0.87;

/// Repetitions per probe; the fastest counts.
const REPEATS: usize = 2;

const NODES: usize = 1 << 14;
const DEGREE: usize = 8;

/// The probe's input, a fixed random digraph, built once per run.
pub struct Probe {
    adjacency: Vec<u32>,
}

impl Probe {
    pub fn new() -> Probe {
        let mut rng = SplitMix64::new(7);
        Probe { adjacency: (0..NODES * DEGREE).map(|_| rng.below(NODES) as u32).collect() }
    }

    /// The fastest of [`REPEATS`] probe runs, in ms.
    pub fn time_ms(&self) -> f64 {
        (0..REPEATS).map(|_| spread_once(&self.adjacency)).fold(f64::INFINITY, f64::min)
    }
}

/// The factor that turns a time measured between two probes into
/// calibration-host time: [`PROBE_REFERENCE_MS`] ÷ the faster probe.
pub fn scale(before_ms: f64, after_ms: f64) -> f64 {
    PROBE_REFERENCE_MS / before_ms.min(after_ms)
}

/// Synchronous push–pull rumor spreading over a fixed random digraph
/// until every node is informed: random reads over 0.5 MB, like the
/// engines' neighbor draws.
fn spread_once(adjacency: &[u32]) -> f64 {
    let start = Instant::now();
    let mut rng = SplitMix64::new(9);
    let mut informed = vec![false; NODES];
    informed[0] = true;
    let mut count = 1;
    while count < NODES {
        let before = informed.clone();
        for v in 0..NODES {
            let u = adjacency[v * DEGREE + rng.below(DEGREE)] as usize;
            if before[v] != before[u] {
                for w in [u, v] {
                    if !informed[w] {
                        informed[w] = true;
                        count += 1;
                    }
                }
            }
        }
    }
    std::hint::black_box(&informed);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_informs_everyone_and_takes_time() {
        let ms = Probe::new().time_ms();
        assert!(ms > 0.0 && ms.is_finite());
    }

    #[test]
    fn the_faster_probe_sets_the_scale() {
        assert_eq!(scale(PROBE_REFERENCE_MS, 2.0 * PROBE_REFERENCE_MS), 1.0);
        assert_eq!(scale(4.0 * PROBE_REFERENCE_MS, 2.0 * PROBE_REFERENCE_MS), 0.5);
    }
}
