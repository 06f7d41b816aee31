//! Order statistics for the reported timings.

/// A percentile is reported only when at least this many samples lie
/// beyond it, so `p`'s sample count must reach `MIN_TAIL / (1 - p)`.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `p` of
/// the samples at or below it. `None` when fewer than [`MIN_TAIL`]
/// samples would lie beyond it (p99 needs 1000 samples).
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = samples.len();
    if n == 0 || ((n as f64) * (1.0 - p) + 1e-9).floor() < MIN_TAIL as f64 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// The median (mean of the two middle samples for an even count);
/// `0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        0.5 * (sorted[mid - 1] + sorted[mid])
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 0.99), Some(990.0));
        assert_eq!(nearest_rank(&samples, 0.5), Some(500.0));
        let small: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(nearest_rank(&small, 0.5), Some(20.0));
        assert_eq!(nearest_rank(&small, 0.75), Some(30.0));
    }

    #[test]
    fn p99_is_refused_below_one_thousand_samples() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 0.99), None);
        assert_eq!(nearest_rank(&[], 0.5), None);
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(nearest_rank(&samples, 0.99).is_some());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
