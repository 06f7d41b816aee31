//! Outcomes of protocol executions: who got informed when.

/// Sentinel round for nodes never informed within the round budget.
pub const NEVER_ROUND: u64 = u64::MAX;

/// Result of a synchronous protocol run (`pp`, `push`, `pull`, `ppx`,
/// `ppy`).
#[derive(Debug, Clone, PartialEq)]
pub struct SyncOutcome {
    /// Rounds executed until every node was informed (or until the budget
    /// ran out, if `completed` is false).
    pub rounds: u64,
    /// Whether all nodes were informed within the budget.
    pub completed: bool,
    /// Per node: the round in which it was informed (source: 0; never:
    /// [`NEVER_ROUND`]).
    pub informed_round: Vec<u64>,
    /// `informed_by_round[r]` = number of informed nodes after round `r`
    /// (`informed_by_round[0] == 1`, the source).
    pub informed_by_round: Vec<usize>,
}

impl SyncOutcome {
    /// Number of nodes in the underlying graph.
    pub fn node_count(&self) -> usize {
        self.informed_round.len()
    }

    /// The first round by whose end at least `ceil(phi · n)` nodes are
    /// informed, or `None` if the run never reached that fraction.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is outside `(0, 1]`.
    pub fn rounds_to_fraction(&self, phi: f64) -> Option<u64> {
        assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0, 1]");
        let target = (phi * self.node_count() as f64).ceil() as usize;
        self.informed_by_round.iter().position(|&c| c >= target).map(|r| r as u64)
    }
}

/// Result of an asynchronous protocol run (`pp-a`, `push-a`, `pull-a`),
/// on a static graph or on an evolving topology.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncOutcome {
    /// Time (in the paper's continuous time units) at which the last node
    /// was informed; if `completed` is false, the time of the last step
    /// taken.
    pub time: f64,
    /// Number of steps (node activations) up to and including the one that
    /// informed the last node.
    pub steps: u64,
    /// Topology events processed (edge flips, snapshots, joins/leaves);
    /// 0 on a static graph.
    pub topology_events: u64,
    /// Whether all nodes were informed within the step budget.
    pub completed: bool,
    /// Per node: the time at which it was informed (source: 0.0; never:
    /// `f64::INFINITY`).
    pub informed_time: Vec<f64>,
}

impl AsyncOutcome {
    /// Number of nodes in the underlying graph.
    pub fn node_count(&self) -> usize {
        self.informed_time.len()
    }

    /// The earliest time by which at least `ceil(phi · n)` nodes are
    /// informed, or `None` if the run never reached that fraction.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is outside `(0, 1]`.
    pub fn time_to_fraction(&self, phi: f64) -> Option<f64> {
        assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0, 1]");
        let target = (phi * self.node_count() as f64).ceil() as usize;
        let mut times: Vec<f64> = self.informed_time.clone();
        times.sort_by(|a, b| a.partial_cmp(b).expect("informed times are not NaN"));
        let t = times[target - 1];
        if t.is_finite() {
            Some(t)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_fraction_lookup() {
        let o = SyncOutcome {
            rounds: 3,
            completed: true,
            informed_round: vec![0, 1, 2, 3],
            informed_by_round: vec![1, 2, 3, 4],
        };
        assert_eq!(o.node_count(), 4);
        assert_eq!(o.rounds_to_fraction(0.25), Some(0));
        assert_eq!(o.rounds_to_fraction(0.5), Some(1));
        assert_eq!(o.rounds_to_fraction(1.0), Some(3));
    }

    #[test]
    fn sync_fraction_unreached() {
        let o = SyncOutcome {
            rounds: 1,
            completed: false,
            informed_round: vec![0, NEVER_ROUND],
            informed_by_round: vec![1, 1],
        };
        assert_eq!(o.rounds_to_fraction(1.0), None);
    }

    #[test]
    fn async_fraction_lookup() {
        let o = AsyncOutcome {
            time: 2.5,
            steps: 10,
            topology_events: 0,
            completed: true,
            informed_time: vec![0.0, 1.5, 2.5, 0.5],
        };
        assert_eq!(o.time_to_fraction(0.5), Some(0.5));
        assert_eq!(o.time_to_fraction(1.0), Some(2.5));
    }

    #[test]
    fn async_fraction_unreached() {
        let o = AsyncOutcome {
            time: 1.0,
            steps: 3,
            topology_events: 0,
            completed: false,
            informed_time: vec![0.0, f64::INFINITY],
        };
        assert_eq!(o.time_to_fraction(1.0), None);
        assert_eq!(o.time_to_fraction(0.5), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "phi must be in")]
    fn fraction_validates_phi() {
        let o = SyncOutcome {
            rounds: 0,
            completed: true,
            informed_round: vec![0],
            informed_by_round: vec![1],
        };
        o.rounds_to_fraction(0.0);
    }
}
