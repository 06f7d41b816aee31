//! Random graph families: Erdős–Rényi and random regular graphs.

use rumor_sim::rng::Xoshiro256PlusPlus;

use crate::builder::GraphBuilder;
use crate::csr::{Graph, Node};
use crate::props;

/// Erdős–Rényi `G(n, p)`: each of the `n(n−1)/2` possible edges appears
/// independently with probability `p`.
///
/// Uses geometric skipping (Batagelj–Brandes), so generation costs
/// `O(n + m)` rather than `O(n²)`.
///
/// # Panics
///
/// Panics if `n < 2` or `p ∉ [0, 1]`.
pub fn gnp(n: usize, p: f64, rng: &mut Xoshiro256PlusPlus) -> Graph {
    assert!(n >= 2, "gnp needs n >= 2");
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
    let pairs = (n * (n - 1) / 2) as f64;
    let mut b = GraphBuilder::with_edge_capacity(n, (p * pairs) as usize + 16);
    if p == 0.0 {
        return b.build().expect("n >= 2");
    }
    if p == 1.0 {
        for u in 0..n as Node {
            for v in (u + 1)..n as Node {
                b.add_edge(u, v);
            }
        }
        return b.build().expect("n >= 2");
    }
    // Enumerate candidate edges 0..n(n-1)/2 in lexicographic (u, v) order,
    // skipping ahead by Geometric(p) jumps. `ln_1p` keeps `log_q`
    // nonzero for a `p` so small that `1.0 - p` rounds to 1, and a skip
    // is clamped to the pair count before the cast, so one past the last
    // pair ends the loop instead of saturating.
    let log_q = (-p).ln_1p();
    let mut v: i64 = 1;
    let mut w: i64 = -1;
    while (v as usize) < n {
        let r = rng.f64_open();
        w += 1 + (r.ln() / log_q).floor().min(pairs) as i64;
        while w >= v && (v as usize) < n {
            w -= v;
            v += 1;
        }
        if (v as usize) < n {
            b.add_edge(w as Node, v as Node);
        }
    }
    b.build().expect("n >= 2")
}

/// `G(n, p)` conditioned on connectivity: resamples until connected.
///
/// # Panics
///
/// Panics if `n < 2`, `p ∉ [0, 1]`, or no connected sample is found within
/// `max_tries` attempts (pick `p ≥ (1 + ε) ln n / n` to make success
/// overwhelmingly likely).
pub fn gnp_connected(n: usize, p: f64, rng: &mut Xoshiro256PlusPlus, max_tries: usize) -> Graph {
    try_gnp_connected(n, p, rng, max_tries)
        .unwrap_or_else(|| panic!("no connected G({n}, {p}) sample within {max_tries} tries"))
}

/// [`gnp_connected`], returning `None` where it would panic for want of
/// a connected sample.
pub fn try_gnp_connected(
    n: usize,
    p: f64,
    rng: &mut Xoshiro256PlusPlus,
    max_tries: usize,
) -> Option<Graph> {
    (0..max_tries).map(|_| gnp(n, p, rng)).find(props::is_connected)
}

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct edges, uniformly at random.
///
/// # Panics
///
/// Panics if `n < 2` or `m` exceeds `n(n−1)/2`.
pub fn gnm(n: usize, m: usize, rng: &mut Xoshiro256PlusPlus) -> Graph {
    assert!(n >= 2, "gnm needs n >= 2");
    let max_edges = n * (n - 1) / 2;
    assert!(m <= max_edges, "m = {m} exceeds {max_edges}");
    let mut b = GraphBuilder::with_edge_capacity(n, m);
    let mut chosen = std::collections::HashSet::with_capacity(m * 2);
    while chosen.len() < m {
        let u = rng.range_usize(n) as Node;
        let v = rng.range_usize(n) as Node;
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if chosen.insert(key) {
            b.add_edge(key.0, key.1);
        }
    }
    b.build().expect("n >= 2")
}

/// A random `d`-regular graph via the Steger–Wormald pairing algorithm.
///
/// Stubs (node copies) are paired incrementally, always choosing a
/// uniformly random *valid* pair (no self-loop, no parallel edge); if the
/// process gets stuck with only invalid pairs remaining, it restarts.
/// For `d = o(n^{1/3})` the output distribution is asymptotically uniform
/// over `d`-regular graphs (Steger & Wormald 1999), and restarts are rare
/// — unlike naive whole-matching rejection, whose acceptance probability
/// `≈ e^{-(d²−1)/4}` collapses already at `d ≈ 7`.
///
/// # Panics
///
/// Panics if `n·d` is odd, `d == 0`, `d ≥ n`, or the process failed to
/// complete within `max_tries` restarts (effectively impossible for the
/// parameter ranges above).
pub fn random_regular(n: usize, d: usize, rng: &mut Xoshiro256PlusPlus, max_tries: usize) -> Graph {
    try_random_regular(n, d, rng, max_tries).unwrap_or_else(|| {
        panic!("no simple {d}-regular pairing on {n} nodes within {max_tries} tries")
    })
}

/// [`random_regular`], returning `None` where it would panic for want of
/// a completed pairing.
fn try_random_regular(
    n: usize,
    d: usize,
    rng: &mut Xoshiro256PlusPlus,
    max_tries: usize,
) -> Option<Graph> {
    assert!(d >= 1, "degree must be at least 1");
    assert!(d < n, "degree must be below n");
    assert!((n * d).is_multiple_of(2), "n * d must be even");
    let mut stubs: Vec<Node> = Vec::with_capacity(n * d);
    'attempt: for _ in 0..max_tries {
        stubs.clear();
        for v in 0..n as Node {
            for _ in 0..d {
                stubs.push(v);
            }
        }
        let mut seen = std::collections::HashSet::with_capacity(n * d);
        let mut b = GraphBuilder::with_edge_capacity(n, n * d / 2);
        let mut live = stubs.len();
        while live > 0 {
            // Try random stub pairs; after enough consecutive failures,
            // scan exhaustively to decide between "unlucky" and "stuck".
            let mut found = false;
            for _ in 0..50 {
                let i = rng.range_usize(live);
                let j = rng.range_usize(live);
                let (u, v) = (stubs[i], stubs[j]);
                if i == j || u == v {
                    continue;
                }
                let key = if u < v { (u, v) } else { (v, u) };
                if seen.contains(&key) {
                    continue;
                }
                seen.insert(key);
                b.add_edge(key.0, key.1);
                // Swap-remove both stubs (larger index first).
                let (hi, lo) = if i > j { (i, j) } else { (j, i) };
                stubs.swap(hi, live - 1);
                stubs.swap(lo, live - 2);
                live -= 2;
                found = true;
                break;
            }
            if found {
                continue;
            }
            // Exhaustive scan for any valid pair among the remaining stubs.
            let mut valid = None;
            'scan: for i in 0..live {
                for j in (i + 1)..live {
                    let (u, v) = (stubs[i], stubs[j]);
                    if u == v {
                        continue;
                    }
                    let key = if u < v { (u, v) } else { (v, u) };
                    if !seen.contains(&key) {
                        valid = Some((i, j, key));
                        break 'scan;
                    }
                }
            }
            match valid {
                Some((i, j, key)) => {
                    seen.insert(key);
                    b.add_edge(key.0, key.1);
                    let (hi, lo) = if i > j { (i, j) } else { (j, i) };
                    stubs.swap(hi, live - 1);
                    stubs.swap(lo, live - 2);
                    live -= 2;
                }
                None => continue 'attempt, // genuinely stuck: restart
            }
        }
        return Some(b.build().expect("n >= 2"));
    }
    None
}

/// Random `d`-regular conditioned on connectivity.
///
/// For `d ≥ 3` a random regular graph is connected with probability
/// `1 − O(n^{2−d})`, so retries are rare.
///
/// # Panics
///
/// As [`random_regular`], or if no connected sample appears within
/// `max_tries`.
pub fn random_regular_connected(
    n: usize,
    d: usize,
    rng: &mut Xoshiro256PlusPlus,
    max_tries: usize,
) -> Graph {
    try_random_regular_connected(n, d, rng, max_tries).unwrap_or_else(|| {
        panic!("no connected simple {d}-regular graph on {n} nodes within {max_tries} tries")
    })
}

/// [`random_regular_connected`], returning `None` where it would panic
/// for want of a simple or a connected sample.
pub fn try_random_regular_connected(
    n: usize,
    d: usize,
    rng: &mut Xoshiro256PlusPlus,
    max_tries: usize,
) -> Option<Graph> {
    for _ in 0..max_tries {
        let g = try_random_regular(n, d, rng, max_tries)?;
        if props::is_connected(&g) {
            return Some(g);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from(seed)
    }

    #[test]
    fn gnp_extremes() {
        let mut r = rng(1);
        let empty = gnp(10, 0.0, &mut r);
        assert_eq!(empty.edge_count(), 0);
        let full = gnp(10, 1.0, &mut r);
        assert_eq!(full.edge_count(), 45);
        // `1.0 - p` rounds to 1: no edge, not a saturated skip.
        let tiny = gnp(10, 1e-300, &mut r);
        assert_eq!(tiny.edge_count(), 0);
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let mut r = rng(2);
        let n = 200;
        let p = 0.1;
        let mut total = 0usize;
        let reps = 20;
        for _ in 0..reps {
            total += gnp(n, p, &mut r).edge_count();
        }
        let mean = total as f64 / reps as f64;
        let expected = p * (n * (n - 1) / 2) as f64;
        assert!((mean - expected).abs() < expected * 0.05, "mean {mean} vs expected {expected}");
    }

    #[test]
    fn gnp_is_deterministic_per_seed() {
        let g1 = gnp(50, 0.2, &mut rng(42));
        let g2 = gnp(50, 0.2, &mut rng(42));
        assert_eq!(g1, g2);
    }

    #[test]
    fn gnp_connected_succeeds_above_threshold() {
        let mut r = rng(3);
        let n = 128;
        let p = 2.0 * (n as f64).ln() / n as f64;
        let g = gnp_connected(n, p, &mut r, 100);
        assert!(props::is_connected(&g));
    }

    #[test]
    fn gnm_exact_edge_count() {
        let mut r = rng(4);
        let g = gnm(30, 100, &mut r);
        assert_eq!(g.edge_count(), 100);
        assert_eq!(g.node_count(), 30);
    }

    #[test]
    fn gnm_full_graph() {
        let mut r = rng(5);
        let g = gnm(6, 15, &mut r);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.regular_degree(), Some(5));
    }

    #[test]
    fn random_regular_degrees() {
        let mut r = rng(6);
        for d in [2usize, 3, 4, 7] {
            let g = random_regular(50, d, &mut r, 1000);
            assert_eq!(g.regular_degree(), Some(d), "d = {d}");
            assert_eq!(g.edge_count(), 50 * d / 2);
        }
    }

    #[test]
    fn random_regular_connected_for_d3() {
        let mut r = rng(7);
        let g = random_regular_connected(100, 3, &mut r, 1000);
        assert_eq!(g.regular_degree(), Some(3));
        assert!(props::is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn random_regular_rejects_odd_total() {
        random_regular(5, 3, &mut rng(8), 10);
    }

    #[test]
    fn random_regular_varies_with_seed() {
        let g1 = random_regular(40, 3, &mut rng(9), 1000);
        let g2 = random_regular(40, 3, &mut rng(10), 1000);
        assert_ne!(g1, g2, "different seeds should give different graphs");
    }
}
