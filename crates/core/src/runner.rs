//! Seeded Monte-Carlo trial running, serial or parallel.
//!
//! Every quantity in the paper is a functional of the spreading-time law:
//! `E[T]` (Theorem 2), the high-probability quantile `T₁/ₙ` (Theorem 1),
//! or a fraction-of-nodes stopping time (the social-network discussion).
//! This module estimates them from independent trials. Trial `i` always
//! uses the `i`-th seed of a [`SeedStream`], so a run is reproducible
//! regardless of thread count or scheduling. Sampling a spreading-time
//! law is a [`SimSpec`](crate::spec::SimSpec) run, which fans its
//! trials out through [`run_trials_parallel`].

use rumor_graph::Graph;
use rumor_sim::rng::{SeedStream, Xoshiro256PlusPlus};
use rumor_sim::stats::quantile;

/// Runs `trials` independent trials of `f` sequentially.
///
/// `f` receives the trial index and a fresh RNG seeded from the trial's
/// own seed.
///
/// # Example
///
/// ```
/// use rumor_core::runner::run_trials;
/// let xs = run_trials(5, 42, |i, rng| (i, rng.f64_unit()));
/// assert_eq!(xs.len(), 5);
/// let ys = run_trials(5, 42, |i, rng| (i, rng.f64_unit()));
/// assert_eq!(xs, ys); // reproducible
/// ```
pub fn run_trials<T, F>(trials: usize, master_seed: u64, f: F) -> Vec<T>
where
    F: Fn(usize, &mut Xoshiro256PlusPlus) -> T,
{
    SeedStream::new(master_seed)
        .take(trials)
        .enumerate()
        .map(|(i, seed)| {
            let mut rng = Xoshiro256PlusPlus::seed_from(seed);
            f(i, &mut rng)
        })
        .collect()
}

/// Runs `trials` independent trials of `f` on `threads` worker threads.
///
/// Produces exactly the same output as [`run_trials`] with the same
/// `master_seed` — per-trial seeding makes the result independent of the
/// thread count.
///
/// # Panics
///
/// Panics if `threads == 0` or a worker thread panics.
pub fn run_trials_parallel<T, F>(trials: usize, master_seed: u64, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Xoshiro256PlusPlus) -> T + Sync,
{
    assert!(threads > 0, "need at least one thread");
    if threads == 1 || trials <= 1 {
        return run_trials(trials, master_seed, f);
    }
    let seeds: Vec<u64> = SeedStream::new(master_seed).take(trials).collect();
    let mut results: Vec<Option<T>> = Vec::with_capacity(trials);
    results.resize_with(trials, || None);

    let chunk = trials.div_ceil(threads);
    std::thread::scope(|scope| {
        for (c, out_chunk) in results.chunks_mut(chunk).enumerate() {
            let seeds = &seeds;
            let f = &f;
            scope.spawn(move || {
                let base = c * chunk;
                for (j, slot) in out_chunk.iter_mut().enumerate() {
                    let i = base + j;
                    let mut rng = Xoshiro256PlusPlus::seed_from(seeds[i]);
                    *slot = Some(f(i, &mut rng));
                }
            });
        }
    });

    results.into_iter().map(|r| r.expect("every slot filled")).collect()
}

/// A generous default step budget for asynchronous runs: enough for any
/// graph whose spreading time is polynomial in `n` at the scales used in
/// this workspace.
pub fn default_max_steps(g: &Graph) -> u64 {
    let n = g.node_count() as u64;
    // E[steps] = n · E[T]; spreading times here are ≤ O(n log n), so n² log n
    // steps with a fat constant is beyond safe.
    (200 * n * n * (64 - n.leading_zeros() as u64 + 1)).max(100_000)
}

/// The empirical high-probability spreading time `T̂₁/ₙ`: the
/// `(1 − 1/n)`-quantile of the sampled spreading times.
///
/// With `N` trials the estimate is meaningful when `N ≫ n`; for `N ≲ n`
/// it degrades gracefully to the sample maximum. The experiments use it
/// with the paper's `q = 1/n` but also report more robust quantiles.
///
/// # Panics
///
/// Panics if `samples` is empty or `n == 0`.
pub fn high_probability_time(samples: &[f64], n: usize) -> f64 {
    assert!(n > 0, "n must be positive");
    quantile(samples, 1.0 - 1.0 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_graph::generators;

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let g = generators::hypercube(4);
        let draw = |_: usize, rng: &mut Xoshiro256PlusPlus| {
            crate::run_sync(&g, 0, crate::Mode::PushPull, rng, 10_000).rounds
        };
        assert_eq!(run_trials(40, 7, draw), run_trials_parallel(40, 7, 4, draw));
        assert_eq!(run_trials(40, 7, draw), run_trials_parallel(40, 7, 3, draw));
    }

    #[test]
    fn parallel_handles_uneven_chunks() {
        let out = run_trials_parallel(10, 1, 3, |i, _| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        let out = run_trials_parallel(1, 1, 8, |i, _| i);
        assert_eq!(out, vec![0]);
        let out = run_trials_parallel(0, 1, 2, |i, _| i);
        assert!(out.is_empty());
    }

    #[test]
    fn trials_are_independent_of_each_other() {
        // Different trials use different seeds: times should not all
        // coincide on a graph with randomness.
        let g = generators::complete(16);
        let times = run_trials(30, 3, |_, rng| {
            crate::run_async(
                &g,
                0,
                crate::Mode::PushPull,
                crate::AsyncView::GlobalClock,
                rng,
                100_000,
            )
            .time
        });
        let first = times[0];
        assert!(times.iter().any(|&t| t != first));
    }

    #[test]
    fn high_probability_time_is_a_high_quantile() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let hp = high_probability_time(&samples, 50);
        assert!(hp >= 98.0, "expected a near-max quantile, got {hp}");
        // n = 1: the 0-quantile is the minimum.
        assert_eq!(high_probability_time(&samples, 1), 1.0);
    }

    #[test]
    fn default_max_steps_scales_with_n() {
        let small = default_max_steps(&generators::path(4));
        let large = default_max_steps(&generators::path(64));
        assert!(large > small);
        assert!(small >= 100_000);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        run_trials_parallel(4, 1, 0, |i, _| i);
    }
}
