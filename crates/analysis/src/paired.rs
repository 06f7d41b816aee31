//! Paired (coupled-run) statistics: sync/async comparisons where both
//! samples of a trial share a topology trace and a protocol seed.
//!
//! An independent-runs design compares synchronous and asynchronous
//! spreading on dynamic topologies with **independent** trials, so its
//! ratio estimate carries the full variance of both columns. A coupled
//! trial (a
//! `rumor_core::spec::SimSpec` with `.coupled(true)`) drives both runs
//! over the *same* recorded [`TopologyTrace`] with common random
//! numbers; the shared topology realization induces positive
//! correlation between the columns, and [`PairedSamples`] exploits it:
//! the delta-method confidence interval for the ratio of means keeps
//! the covariance term the independent-runs interval must drop, so the
//! paired interval is strictly narrower whenever the coupling bites
//! (`Cov > 0`). The shrink factor `unpaired CI / paired CI` is E23's
//! direct measurement of how much the coupling buys.
//!
//! Censoring: a trial where **either** run exhausted its budget is
//! excluded from the pairing entirely (its time is a lower bound, not a
//! sample) and carried in [`PairedSamples::censored`] — the same
//! never-average contract as
//! [`CensoredSamples`](crate::experiments::common::CensoredSamples).
//!
//! [`TopologyTrace`]: rumor_core::TopologyTrace

use rumor_core::spec::CoupledOutcome;
use rumor_sim::stats::OnlineStats;

/// Paired `(sync, async)` spreading-time samples from coupled trials.
#[derive(Debug, Clone, PartialEq)]
pub struct PairedSamples {
    /// `(sync_rounds, async_time)` for trials where **both** runs
    /// completed.
    pub pairs: Vec<(f64, f64)>,
    /// Trials dropped because at least one side was budget-censored.
    pub censored: usize,
}

impl PairedSamples {
    /// Splits coupled outcomes into completed pairs and a censored
    /// count. A trial enters the pairing only if both its runs
    /// completed; anything else is censored (never averaged).
    pub fn from_coupled(outcomes: &[CoupledOutcome]) -> Self {
        let pairs: Vec<(f64, f64)> = outcomes
            .iter()
            .filter(|o| o.sync_completed && o.async_completed)
            .map(|o| (o.sync_rounds, o.async_time))
            .collect();
        let censored = outcomes.len() - pairs.len();
        Self { pairs, censored }
    }

    /// Builds directly from pairs (test fixtures, external data).
    pub fn from_pairs(pairs: Vec<(f64, f64)>, censored: usize) -> Self {
        Self { pairs, censored }
    }

    /// Total trials observed (paired + censored).
    pub fn trials(&self) -> usize {
        self.pairs.len() + self.censored
    }

    /// Mean synchronous rounds over the paired trials.
    pub fn mean_sync(&self) -> Option<f64> {
        self.column_stats().map(|(s, _)| s.mean())
    }

    /// Mean asynchronous time over the paired trials.
    pub fn mean_async(&self) -> Option<f64> {
        self.column_stats().map(|(_, a)| a.mean())
    }

    /// The headline estimate: `mean(async) / mean(sync)`.
    pub fn ratio_of_means(&self) -> Option<f64> {
        self.column_stats().map(|(s, a)| a.mean() / s.mean())
    }

    /// Per-trial `async / sync` ratios — the per-trace gap samples.
    pub fn ratios(&self) -> Vec<f64> {
        self.pairs.iter().map(|&(s, a)| a / s).collect()
    }

    /// Pearson correlation between the two columns across paired
    /// trials; `None` with fewer than two pairs or a degenerate column.
    /// Positive correlation is what the shared trace buys.
    pub fn correlation(&self) -> Option<f64> {
        let (s, a) = self.column_stats()?;
        if self.pairs.len() < 2 {
            return None;
        }
        let denom = s.stddev() * a.stddev();
        if denom == 0.0 {
            return None;
        }
        Some(self.covariance(&s, &a) / denom)
    }

    /// Half-width of the 95 % delta-method confidence interval for
    /// [`ratio_of_means`](Self::ratio_of_means) **using the pairing**:
    /// the covariance between the columns is kept, so shared-trace
    /// variance cancels.
    pub fn paired_ci_half_width(&self) -> Option<f64> {
        self.ratio_ci(true)
    }

    /// Half-width of the 95 % delta-method confidence interval for the
    /// same ratio computed **as if the columns were independent** (the
    /// covariance term dropped) — exactly the interval an
    /// independent-runs design is limited to, at the same trial count.
    pub fn unpaired_ci_half_width(&self) -> Option<f64> {
        self.ratio_ci(false)
    }

    /// The variance-reduction factor `unpaired CI / paired CI`
    /// (`> 1` = the coupling helped).
    pub fn ci_shrink_factor(&self) -> Option<f64> {
        let paired = self.paired_ci_half_width()?;
        let unpaired = self.unpaired_ci_half_width()?;
        if paired == 0.0 {
            return None;
        }
        Some(unpaired / paired)
    }

    fn column_stats(&self) -> Option<(OnlineStats, OnlineStats)> {
        if self.pairs.is_empty() {
            return None;
        }
        let sync: OnlineStats = self.pairs.iter().map(|&(s, _)| s).collect();
        let asy: OnlineStats = self.pairs.iter().map(|&(_, a)| a).collect();
        if sync.mean() == 0.0 {
            return None;
        }
        Some((sync, asy))
    }

    /// Unbiased sample covariance between the columns.
    fn covariance(&self, s: &OnlineStats, a: &OnlineStats) -> f64 {
        let n = self.pairs.len();
        if n < 2 {
            return 0.0;
        }
        let (ms, ma) = (s.mean(), a.mean());
        self.pairs.iter().map(|&(x, y)| (x - ms) * (y - ma)).sum::<f64>() / (n - 1) as f64
    }

    /// Delta-method CI for `R = Ā/S̄`:
    /// `Var(R) ≈ (Var(Ā) + R²·Var(S̄) − 2R·Cov(Ā, S̄)) / (n·S̄²)`,
    /// with the covariance kept (`paired`) or dropped (independent).
    fn ratio_ci(&self, paired: bool) -> Option<f64> {
        let (s, a) = self.column_stats()?;
        let n = self.pairs.len();
        if n < 2 {
            return None;
        }
        let r = a.mean() / s.mean();
        let cov = if paired { self.covariance(&s, &a) } else { 0.0 };
        let var = (a.variance() + r * r * s.variance() - 2.0 * r * cov)
            / (n as f64 * s.mean() * s.mean());
        Some(1.96 * var.max(0.0).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::dynamic::EdgeMarkov;
    use rumor_core::spec::{Protocol, SimSpec, Topology};
    use rumor_core::DynamicModel;
    use rumor_graph::generators;

    fn outcome(sync: f64, asy: f64, sc: bool, ac: bool) -> CoupledOutcome {
        CoupledOutcome {
            sync_rounds: sync,
            sync_completed: sc,
            async_time: asy,
            async_completed: ac,
            trace_steps: 1,
        }
    }

    /// The satellite regression: censored trials leave the pairing
    /// entirely instead of being averaged (either side censoring drops
    /// the pair), alongside the PR 3 `CensoredSamples` contract.
    #[test]
    fn censored_trials_are_excluded_from_pairing_not_averaged() {
        let outcomes = vec![
            outcome(2.0, 4.0, true, true),
            outcome(100.0, 1.0, false, true), // sync censored
            outcome(1.0, 100.0, true, false), // async censored
            outcome(4.0, 4.0, true, true),
        ];
        let p = PairedSamples::from_coupled(&outcomes);
        assert_eq!(p.censored, 2);
        assert_eq!(p.pairs, vec![(2.0, 4.0), (4.0, 4.0)]);
        assert_eq!(p.trials(), 4);
        // Means come from completed pairs only: the censored 100s never
        // contaminate either column.
        assert_eq!(p.mean_sync(), Some(3.0));
        assert_eq!(p.mean_async(), Some(4.0));
        assert_eq!(p.ratios(), vec![2.0, 1.0]);

        // All-censored: no estimate exists.
        let all = PairedSamples::from_coupled(&[outcome(1.0, 1.0, false, false)]);
        assert_eq!(all.censored, 1);
        assert_eq!(all.ratio_of_means(), None);
        assert_eq!(all.paired_ci_half_width(), None);
    }

    /// Perfectly correlated synthetic columns: the paired CI collapses
    /// while the independent-runs CI stays wide.
    #[test]
    fn perfect_correlation_collapses_the_paired_ci() {
        let pairs: Vec<(f64, f64)> = (1..=40).map(|i| (i as f64, 2.0 * i as f64)).collect();
        let p = PairedSamples::from_pairs(pairs, 0);
        assert!((p.correlation().unwrap() - 1.0).abs() < 1e-12);
        assert!((p.ratio_of_means().unwrap() - 2.0).abs() < 1e-12);
        let paired = p.paired_ci_half_width().unwrap();
        let unpaired = p.unpaired_ci_half_width().unwrap();
        assert!(paired < 1e-9, "ratio is deterministic: {paired}");
        assert!(unpaired > 0.1, "independent analysis keeps the variance: {unpaired}");
    }

    /// The satellite fixture: sync and async runs sharing a real trace
    /// (slow edge-Markov churn on a path, where which frontier edges
    /// are down — and for how long — gates both protocols alike) are
    /// positively correlated, and the paired CI is strictly narrower
    /// than the unpaired CI on the same data.
    #[test]
    fn shared_trace_makes_the_paired_ci_strictly_narrower() {
        let g = generators::path(32);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(0.1));
        let report = SimSpec::on_graph(&g)
            .protocol(Protocol::push_pull_async())
            .topology(Topology::Model(model))
            .coupled(true)
            .trials(60)
            .seed(0xC0FFEE)
            .horizon(600.0)
            .max_steps(100_000_000)
            .max_rounds(100_000)
            .build()
            .expect("valid coupled spec")
            .run();
        let p = PairedSamples::from_coupled(report.coupled_outcomes().unwrap());
        assert!(p.pairs.len() >= 50, "fixture should mostly complete");
        let corr = p.correlation().unwrap();
        assert!(corr > 0.2, "shared trace should correlate the columns: r = {corr}");
        let paired = p.paired_ci_half_width().unwrap();
        let unpaired = p.unpaired_ci_half_width().unwrap();
        assert!(
            paired < unpaired,
            "paired CI ({paired}) must be strictly narrower than unpaired ({unpaired})"
        );
        assert!(p.ci_shrink_factor().unwrap() > 1.0);
    }

    #[test]
    fn degenerate_inputs_yield_no_estimates() {
        let empty = PairedSamples::from_pairs(Vec::new(), 3);
        assert_eq!(empty.ratio_of_means(), None);
        assert_eq!(empty.correlation(), None);
        assert_eq!(empty.ci_shrink_factor(), None);
        let single = PairedSamples::from_pairs(vec![(1.0, 2.0)], 0);
        assert_eq!(single.ratio_of_means(), Some(2.0));
        assert_eq!(single.paired_ci_half_width(), None, "one pair has no variance estimate");
        let constant = PairedSamples::from_pairs(vec![(2.0, 3.0); 5], 0);
        assert_eq!(constant.correlation(), None, "zero-variance columns have no correlation");
        assert_eq!(constant.paired_ci_half_width(), Some(0.0));
    }
}
