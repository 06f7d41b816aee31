//! Numerical checks of the distribution lemmas the paper's proofs rest
//! on: Lemma 8 (conditional law of exponential minima), Lemma 15 (the
//! domination lemma of the appendix), and the `Erl ≼ NegBin` comparison
//! used in Lemma 10.

use rumor_spreading::sim::dist::{Erlang, Exponential, Geometric, NegativeBinomial};
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;
use rumor_spreading::sim::stats::{Ecdf, OnlineStats};

/// Lemma 8: let `Z_1..Z_k ~ Exp(λ)` i.i.d., `α_i ≥ 0` integers,
/// `A = {∀i: Z_i > α_i}`, `J = argmin_i Z_i`. Then conditioned on
/// `J = j` and `A`, the variable `Z = min_i (Z_i − α_i)` is `Exp(kλ)`.
///
/// We verify by rejection sampling: generate vectors, keep those matching
/// the conditioning event, and compare the empirical law of `Z` with
/// `Exp(kλ)` (mean and CDF at several points).
#[test]
fn lemma8_conditional_minimum_is_exponential() {
    let k = 4usize;
    let lambda = 0.8;
    let alphas = [0.0f64, 1.0, 2.0, 0.0];
    let j_target = 0usize; // condition on the argmin being Z_1
    let mut rng = Xoshiro256PlusPlus::seed_from(42);
    let exp = Exponential::new(lambda);

    let mut accepted = Vec::new();
    let mut attempts = 0u64;
    while accepted.len() < 30_000 && attempts < 50_000_000 {
        attempts += 1;
        let zs: Vec<f64> = (0..k).map(|_| exp.sample(&mut rng)).collect();
        // Event A: every Z_i exceeds its α_i.
        if !zs.iter().zip(&alphas).all(|(z, a)| z > a) {
            continue;
        }
        // J = argmin of the raw Z_i.
        let j = zs.iter().enumerate().min_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        if j != j_target {
            continue;
        }
        let z = zs.iter().zip(&alphas).map(|(z, a)| z - a).fold(f64::INFINITY, f64::min);
        accepted.push(z);
    }
    assert!(accepted.len() >= 10_000, "rejection sampling starved");

    let stats: OnlineStats = accepted.iter().copied().collect();
    let target = Exponential::new(k as f64 * lambda);
    let expected_mean = target.mean();
    assert!(
        (stats.mean() - expected_mean).abs() < 0.05 * expected_mean + 0.01,
        "conditional mean {} vs Exp(kλ) mean {}",
        stats.mean(),
        expected_mean
    );
    // Compare CDFs at several quantile points.
    let ecdf = Ecdf::new(&accepted);
    for t in [0.05, 0.1, 0.2, 0.4, 0.8] {
        let diff = (ecdf.eval(t) - target.cdf(t)).abs();
        assert!(diff < 0.02, "CDF mismatch at {t}: {diff}");
    }
}

/// Lemma 15: if `Pr[Z_i ≤ j | history] ≥ 1 − q^j` for all i, j, then
/// `Σ Z_i ≼ NegBin(k, 1 − q)`. We instantiate the hypothesis with
/// history-*dependent* variables (the case the lemma is for): `Z_i` is
/// geometric with success probability `1 − q` when the running sum is
/// even and `min(1, (1−q)·1.5)`-geometric when odd — both satisfy the
/// tail hypothesis — and check empirical domination.
#[test]
fn lemma15_dependent_sum_dominated_by_negbin() {
    let k = 6u64;
    let q = 0.5f64;
    let trials = 40_000;
    let mut rng = Xoshiro256PlusPlus::seed_from(7);
    let fast = Geometric::new((1.0 - q + 0.2).min(1.0));
    let base = Geometric::new(1.0 - q);
    let mut sums = Vec::with_capacity(trials);
    for _ in 0..trials {
        let mut total = 0u64;
        for _ in 0..k {
            let z = if total.is_multiple_of(2) {
                base.sample(&mut rng)
            } else {
                // Stochastically smaller than Geom(1-q): still satisfies
                // the hypothesis Pr[Z ≤ j | ..] ≥ 1 − q^j.
                fast.sample(&mut rng)
            };
            total += z;
        }
        sums.push(total as f64);
    }
    let nb = NegativeBinomial::new(k, 1.0 - q);
    let nb_sample: Vec<f64> = (0..trials).map(|_| nb.sample(&mut rng) as f64).collect();
    // Domination: F_sum(t) ≥ F_negbin(t) − noise for all t.
    let f_sum = Ecdf::new(&sums);
    let f_nb = Ecdf::new(&nb_sample);
    assert!(f_sum.dominated_by(&f_nb, 0.02), "Σ Z_i is not dominated by NegBin(k, 1-q)");
    // And the means are ordered.
    let ms: OnlineStats = sums.iter().copied().collect();
    assert!(ms.mean() <= nb.mean() + 0.05 * nb.mean());
}

/// The comparison `Erl(k, λ) ≼ NegBin(k, 1 − e^{−λ})` used at the end of
/// Lemma 10, verified as full CDF domination.
#[test]
fn erlang_dominated_by_negbin_distributionally() {
    let k = 5u64;
    let lambda = 1.0;
    let trials = 40_000;
    let mut rng = Xoshiro256PlusPlus::seed_from(11);
    let erl = Erlang::new(k, lambda);
    let nb = NegativeBinomial::new(k, 1.0 - (-lambda).exp());
    let erl_sample: Vec<f64> = (0..trials).map(|_| erl.sample(&mut rng)).collect();
    let nb_sample: Vec<f64> = (0..trials).map(|_| nb.sample(&mut rng) as f64).collect();
    let fe = Ecdf::new(&erl_sample);
    let fn_ = Ecdf::new(&nb_sample);
    assert!(fe.dominated_by(&fn_, 0.02), "Erlang not dominated by NegBin");
}

/// The geometric tail identity behind Lemma 9's use of Lemma 15:
/// `Pr[d' − d + 1 ≤ t] ≥ 1 − e^{−t}` matches `Geom(1 − 1/e)` tails.
#[test]
fn geometric_one_minus_inv_e_tail() {
    let g = Geometric::new(1.0 - (-1.0f64).exp());
    for j in 1..=10u64 {
        // Pr[G > j] = (1/e)^j, so Pr[G ≤ j] = 1 − e^{−j}.
        let expected = 1.0 - (-(j as f64)).exp();
        assert!((g.cdf(j) - expected).abs() < 1e-12, "tail mismatch at {j}");
    }
}

/// The topology scheduler's law, not just its stream: superposed
/// channel weights `w_i` produce inter-arrival times that are
/// `Exp(Σw_i)` (KS smoke test against the exact CDF) and channel marks
/// with the right categorical frequencies `w_i / Σw_i` — the two halves
/// of the superposition/thinning theorem the dynamic engines rely on.
#[test]
fn superposition_interarrivals_are_exponential_and_marks_categorical() {
    use rumor_spreading::sim::events::{Fired, Superposition};

    let weights = [0.5f64, 2.0, 0.25, 1.25];
    let total: f64 = weights.iter().sum();
    let mut rng = Xoshiro256PlusPlus::seed_from(2016);
    let mut sup: Superposition<()> = Superposition::new(weights.len());
    for (i, &w) in weights.iter().enumerate() {
        sup.set_weight(0.0, i, w);
    }

    let trials = 60_000usize;
    let mut gaps = Vec::with_capacity(trials);
    let mut hits = vec![0u64; weights.len()];
    let mut prev = 0.0;
    for _ in 0..trials {
        let (t, fired) = sup.pop(&mut rng).expect("live channels");
        gaps.push(t - prev);
        prev = t;
        match fired {
            Fired::Channel(ch) => hits[ch] += 1,
            Fired::Event(()) => unreachable!("no queued events"),
        }
    }

    // KS distance between the empirical inter-arrival law and
    // Exp(total). With n = 60k the null KS statistic concentrates
    // around 1.36/sqrt(n) ≈ 0.006; 0.02 is a loose smoke bound.
    let target = Exponential::new(total);
    let ecdf = Ecdf::new(&gaps);
    let mut ks: f64 = 0.0;
    for k in 0..400 {
        let t = 4.0 * (k as f64 + 0.5) / (400.0 * total);
        ks = ks.max((ecdf.eval(t) - target.cdf(t)).abs());
    }
    assert!(ks < 0.02, "inter-arrival KS distance {ks} exceeds the smoke bound");

    // Channel frequencies: each within 3 binomial sigma of w_i/total.
    for (i, &w) in weights.iter().enumerate() {
        let p = w / total;
        let freq = hits[i] as f64 / trials as f64;
        let sigma = (p * (1.0 - p) / trials as f64).sqrt();
        assert!(
            (freq - p).abs() < 3.0 * sigma + 1e-9,
            "channel {i}: frequency {freq:.4} vs expected {p:.4}"
        );
    }
}
