//! Spreading curves: informed-set size as a function of time.
//!
//! This is the paper's central time-resolved object (its Figure-1
//! view): how `|informed|` grows from 1 to `n` under synchronous rounds
//! or asynchronous continuous time. Curves are derived *post hoc* from
//! the per-node informed times every engine already reports, so capture
//! costs nothing in the hot loop and is engine-invariant by
//! construction — the sequential engine and the trace cursor, which
//! replays it seed-for-seed, produce byte-identical curves.
//!
//! A per-trial [`SpreadingCurve`] is an exact step function (one sample
//! per informing event, equal-time events collapsed); trials are
//! aggregated into a fixed-resolution [`CurveSummary`] whose points are
//! the mean informed *fraction* on a uniform time grid, with an
//! automatic startup / exponential-growth / saturation phase split.

/// Fraction of `n` that ends the startup phase (rumor leaving the
/// source's neighborhood) and starts exponential growth.
pub const STARTUP_FRAC: f64 = 0.1;

/// Fraction of `n` that ends exponential growth and starts saturation
/// (the pull-dominated endgame).
pub const SATURATION_FRAC: f64 = 0.9;

/// An exact per-trial spreading curve: cumulative informed count at
/// each informing time, as a right-continuous step function.
#[derive(Debug, Clone, PartialEq)]
pub struct SpreadingCurve {
    /// `(time, informed count)` samples, strictly increasing in both
    /// coordinates; the first sample is `(0, sources)`.
    samples: Vec<(f64, u64)>,
    /// Node count of the underlying graph (the curve's ceiling).
    n: u64,
}

impl SpreadingCurve {
    /// Builds the curve from per-node informed times (`INFINITY` for
    /// never-informed nodes, as all engines report). Exact: one sample
    /// per distinct informing time.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if no node is informed at time 0 — every
    /// run starts with an informed source.
    pub fn from_informed_times(informed_time: &[f64]) -> Self {
        let n = informed_time.len() as u64;
        let mut times: Vec<f64> = informed_time.iter().copied().filter(|t| t.is_finite()).collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("informed times are not NaN"));
        let mut samples: Vec<(f64, u64)> = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let count = i as u64 + 1;
            match samples.last_mut() {
                Some(last) if last.0 == t => last.1 = count,
                _ => samples.push((t, count)),
            }
        }
        debug_assert!(
            samples.first().is_some_and(|&(t, _)| t == 0.0),
            "a spreading curve starts at the informed source(s)"
        );
        debug_assert!(
            samples.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1),
            "informed counts must grow strictly along distinct times"
        );
        Self { samples, n }
    }

    /// Builds the curve from a synchronous `informed_by_round` vector
    /// (`informed_by_round[r]` = informed count after round `r`), with
    /// rounds as integer times.
    pub fn from_round_counts(informed_by_round: &[usize], n: usize) -> Self {
        debug_assert!(
            informed_by_round.windows(2).all(|w| w[0] <= w[1]),
            "per-round informed counts must be monotone non-decreasing"
        );
        let mut samples: Vec<(f64, u64)> = Vec::new();
        for (r, &count) in informed_by_round.iter().enumerate() {
            let count = count as u64;
            if samples.last().is_none_or(|&(_, c)| count > c) {
                samples.push((r as f64, count));
            }
        }
        Self { samples, n: n as u64 }
    }

    /// Node count of the underlying graph.
    pub fn node_count(&self) -> u64 {
        self.n
    }

    /// The exact samples: `(time, informed count)` per informing event.
    pub fn samples(&self) -> &[(f64, u64)] {
        &self.samples
    }

    /// Time of the last informing event (0 for a source-only curve).
    pub fn end_time(&self) -> f64 {
        self.samples.last().map_or(0.0, |&(t, _)| t)
    }

    /// Final informed count.
    pub fn final_count(&self) -> u64 {
        self.samples.last().map_or(0, |&(_, c)| c)
    }

    /// Informed count at time `t` (right-continuous step lookup).
    pub fn count_at(&self, t: f64) -> u64 {
        match self.samples.partition_point(|&(st, _)| st <= t) {
            0 => 0,
            i => self.samples[i - 1].1,
        }
    }

    /// The earliest sampled time with at least `⌈phi·n⌉` nodes
    /// informed, or `None` if the curve never gets there.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is outside `(0, 1]`.
    pub fn time_to_fraction(&self, phi: f64) -> Option<f64> {
        assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0, 1]");
        let target = (phi * self.n as f64).ceil() as u64;
        self.samples.iter().find(|&&(_, c)| c >= target).map(|&(t, _)| t)
    }

    /// A curve with at most `resolution + 1` samples: every kept sample
    /// is an exact original sample (first and last always kept), chosen
    /// evenly by index. Bounds per-trial memory before aggregation.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is 0.
    pub fn downsample(&self, resolution: usize) -> Self {
        assert!(resolution > 0, "resolution must be positive");
        let len = self.samples.len();
        if len <= resolution + 1 {
            return self.clone();
        }
        let mut samples = Vec::with_capacity(resolution + 1);
        for k in 0..=resolution {
            // Even index spacing, endpoints included exactly once.
            let idx = k * (len - 1) / resolution;
            let s = self.samples[idx];
            if samples.last() != Some(&s) {
                samples.push(s);
            }
        }
        Self { samples, n: self.n }
    }
}

/// The automatic phase split of a spreading curve: startup (until
/// [`STARTUP_FRAC`] of the nodes know), exponential growth, and
/// saturation (from [`SATURATION_FRAC`] on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phases {
    /// Time at which the startup phase ends, if reached.
    pub startup_end: Option<f64>,
    /// Time at which saturation begins, if reached.
    pub saturation_start: Option<f64>,
}

/// A fixed-resolution aggregate of per-trial spreading curves: the mean
/// informed **fraction** on a uniform time grid spanning the slowest
/// trial. Deterministic given the trial order.
#[derive(Debug, Clone, PartialEq)]
pub struct CurveSummary {
    /// Node count of the underlying graph.
    pub n: u64,
    /// Number of curves aggregated.
    pub trials: u64,
    /// `(time, mean informed fraction)` on the uniform grid; the
    /// fraction is non-decreasing from `sources/n` toward 1.
    pub points: Vec<(f64, f64)>,
}

impl CurveSummary {
    /// Aggregates `curves` (all over the same `n`) on a uniform grid of
    /// `resolution + 1` time points from 0 to the latest end time.
    /// Censored trials contribute their partial curves unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `curves` is empty, `resolution` is 0, or the curves
    /// disagree on `n`.
    pub fn aggregate(curves: &[SpreadingCurve], resolution: usize) -> Self {
        assert!(!curves.is_empty(), "cannot aggregate zero curves");
        assert!(resolution > 0, "resolution must be positive");
        let n = curves[0].node_count();
        assert!(
            curves.iter().all(|c| c.node_count() == n),
            "all curves must cover the same node set"
        );
        let t_max = curves.iter().map(SpreadingCurve::end_time).fold(0.0, f64::max);
        let trials = curves.len() as u64;
        let denom = (n.max(1) as f64) * trials as f64;
        let mut points = Vec::with_capacity(resolution + 1);
        for k in 0..=resolution {
            let t = if t_max == 0.0 { 0.0 } else { t_max * k as f64 / resolution as f64 };
            let total: u64 = curves.iter().map(|c| c.count_at(t)).sum();
            points.push((t, total as f64 / denom));
            if t_max == 0.0 {
                break; // a source-only run has a single meaningful point
            }
        }
        Self { n, trials, points }
    }

    /// The earliest grid time with mean informed fraction ≥ `phi`, or
    /// `None` if the summary never gets there.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is outside `(0, 1]`.
    pub fn time_to_fraction(&self, phi: f64) -> Option<f64> {
        assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0, 1]");
        // Tolerate one ulp of mean-fraction roundoff at phi = 1.
        let eps = 1e-12;
        self.points.iter().find(|&&(_, f)| f + eps >= phi).map(|&(t, _)| t)
    }

    /// The startup/exponential/saturation phase split of the mean curve.
    pub fn phases(&self) -> Phases {
        Phases {
            startup_end: self.time_to_fraction(STARTUP_FRAC),
            saturation_start: self.time_to_fraction(SATURATION_FRAC),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_from_times_is_an_exact_step_function() {
        let times = [0.0, 2.0, 1.0, f64::INFINITY, 2.0];
        let c = SpreadingCurve::from_informed_times(&times);
        assert_eq!(c.node_count(), 5);
        assert_eq!(c.samples(), &[(0.0, 1), (1.0, 2), (2.0, 4)]);
        assert_eq!(c.count_at(0.0), 1);
        assert_eq!(c.count_at(0.5), 1);
        assert_eq!(c.count_at(1.0), 2);
        assert_eq!(c.count_at(1.999), 2);
        assert_eq!(c.count_at(2.0), 4);
        assert_eq!(c.count_at(1e9), 4);
        assert_eq!(c.final_count(), 4);
        assert_eq!(c.end_time(), 2.0);
    }

    #[test]
    fn curve_from_round_counts_collapses_flat_rounds() {
        let c = SpreadingCurve::from_round_counts(&[1, 1, 3, 3, 4], 4);
        assert_eq!(c.samples(), &[(0.0, 1), (2.0, 3), (4.0, 4)]);
        assert_eq!(c.count_at(1.0), 1);
        assert_eq!(c.count_at(3.0), 3);
    }

    #[test]
    fn time_to_fraction_matches_outcome_semantics() {
        let c = SpreadingCurve::from_informed_times(&[0.0, 1.5, 2.5, 0.5]);
        assert_eq!(c.time_to_fraction(0.5), Some(0.5));
        assert_eq!(c.time_to_fraction(1.0), Some(2.5));
        let censored = SpreadingCurve::from_informed_times(&[0.0, 1.0, f64::INFINITY]);
        assert_eq!(censored.time_to_fraction(1.0), None);
    }

    #[test]
    fn downsample_keeps_endpoints_and_exact_samples() {
        let times: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let c = SpreadingCurve::from_informed_times(&times);
        let d = c.downsample(10);
        assert!(d.samples().len() <= 11);
        assert_eq!(d.samples().first(), Some(&(0.0, 1)));
        assert_eq!(d.samples().last(), Some(&(99.0, 100)));
        for s in d.samples() {
            assert!(c.samples().contains(s));
        }
        // Small curves pass through unchanged.
        assert_eq!(c.downsample(500), c);
    }

    #[test]
    fn aggregate_of_identical_curves_is_the_curve() {
        let c = SpreadingCurve::from_informed_times(&[0.0, 1.0, 2.0, 3.0]);
        let s = CurveSummary::aggregate(&[c.clone(), c.clone()], 3);
        assert_eq!(s.trials, 2);
        assert_eq!(s.n, 4);
        assert_eq!(s.points, vec![(0.0, 0.25), (1.0, 0.5), (2.0, 0.75), (3.0, 1.0)]);
        assert_eq!(s.time_to_fraction(1.0), Some(3.0));
    }

    #[test]
    fn phases_split_the_mean_curve() {
        let times: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let c = SpreadingCurve::from_informed_times(&times);
        let s = CurveSummary::aggregate(&[c], 99);
        let ph = s.phases();
        assert_eq!(ph.startup_end, Some(9.0));
        assert_eq!(ph.saturation_start, Some(89.0));
    }

    #[test]
    fn source_only_curve_aggregates_to_one_point() {
        let c = SpreadingCurve::from_informed_times(&[0.0, f64::INFINITY]);
        let s = CurveSummary::aggregate(&[c], 8);
        assert_eq!(s.points, vec![(0.0, 0.5)]);
        assert_eq!(s.time_to_fraction(1.0), None);
    }
}
