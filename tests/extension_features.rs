//! Integration tests for the extension features: traces, multi-source and
//! lossy spreading, and the quasirandom protocol — including checks that
//! the paper's headline shapes survive the extensions.

use rumor_spreading::core::quasirandom::run_quasirandom_sync;
use rumor_spreading::core::runner::run_trials;
use rumor_spreading::core::spread::SpreadConfig;
use rumor_spreading::core::sync::run_sync_probed;
use rumor_spreading::core::trace::Trace;
use rumor_spreading::core::{run_async_probed, AsyncOutcome, AsyncView, Mode, NoProbe, Probe};
use rumor_spreading::graph::{generators, props, Graph};
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;
use rumor_spreading::sim::stats::{quantile, OnlineStats};

fn rng(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from(seed)
}

fn sync_rounds<P: Probe>(
    g: &Graph,
    cfg: &SpreadConfig,
    r: &mut Xoshiro256PlusPlus,
    probe: &mut P,
) -> f64 {
    run_sync_probed(g, cfg, r, 1_000_000, probe).rounds as f64
}

fn global_clock<P: Probe>(
    g: &Graph,
    cfg: &SpreadConfig,
    r: &mut Xoshiro256PlusPlus,
    probe: &mut P,
) -> AsyncOutcome {
    run_async_probed(g, cfg, AsyncView::GlobalClock, r, 500_000_000, probe)
}

/// Rumor paths extracted from traces respect BFS distance: a path to `v`
/// has at least `dist(u, v)` edges, in both models.
#[test]
fn trace_paths_respect_graph_distance() {
    let g = generators::gnp_connected(40, 0.2, &mut rng(1), 100);
    let dist = props::bfs_distances(&g, 0);
    let (mut sync_trace, mut async_trace) = (Trace::new(), Trace::new());
    sync_rounds(&g, &SpreadConfig::new(0), &mut rng(2), &mut sync_trace);
    global_clock(&g, &SpreadConfig::new(0), &mut rng(3), &mut async_trace);
    for trace in [sync_trace, async_trace] {
        assert!(trace.complete());
        for v in g.nodes() {
            let path = trace.rumor_path(v).expect("complete");
            assert!(path.len() as u32 > dist[v as usize], "path to {v} shorter than BFS distance");
        }
    }
}

/// Push/pull accounting: on the star from a leaf, the center is informed
/// by push and (almost always) every other leaf by pull.
#[test]
fn star_transmission_accounting() {
    let g = generators::star(64);
    let mut pulls = 0usize;
    let mut events = 0usize;
    for seed in 0..20 {
        let mut trace = Trace::new();
        sync_rounds(&g, &SpreadConfig::new(1), &mut rng(seed), &mut trace);
        assert!(trace.complete());
        pulls += trace.pull_count();
        events += trace.events().len();
    }
    // At least the 62 non-source leaves per run are pulls (the center may
    // be informed by push or pull).
    assert!(pulls as f64 > 0.9 * events as f64, "{pulls} pulls of {events}");
}

/// Theorem 1's shape survives message loss: thinning both models by the
/// same factor preserves the additive-logarithm relationship.
#[test]
fn theorem1_shape_survives_loss() {
    let trials = 120;
    for (name, g, source) in [
        ("star", generators::star(48), 1u32),
        ("hypercube", generators::hypercube(5), 0),
        ("cycle", generators::cycle(32), 0),
    ] {
        let n = g.node_count();
        let cfg = SpreadConfig::new(source).with_loss_probability(0.3);
        let sync: Vec<f64> = run_trials(trials, 5, |_, r| sync_rounds(&g, &cfg, r, &mut NoProbe));
        let asy: Vec<f64> = run_trials(trials, 6, |_, r| {
            let out = global_clock(&g, &cfg, r, &mut NoProbe);
            assert!(out.completed);
            out.time
        });
        let t_sync = quantile(&sync, 1.0 - 1.0 / n as f64);
        let t_async = quantile(&asy, 1.0 - 1.0 / n as f64);
        let bound = 7.0 * (t_sync + (n as f64).ln());
        assert!(t_async <= bound, "{name} under loss: T_async_hp {t_async:.2} vs bound {bound:.2}");
    }
}

/// Multiple sources compose sensibly with loss: k spaced sources on a
/// cycle cut the time by roughly k even when contacts are lossy.
#[test]
fn multi_source_speedup_under_loss() {
    let g = generators::cycle(96);
    let one = SpreadConfig::new(0).with_loss_probability(0.2);
    let three = SpreadConfig::new(0).with_sources(&[0, 32, 64]).with_loss_probability(0.2);
    let m1: OnlineStats =
        run_trials(80, 7, |_, r| sync_rounds(&g, &one, r, &mut NoProbe)).into_iter().collect();
    let m3: OnlineStats =
        run_trials(80, 8, |_, r| sync_rounds(&g, &three, r, &mut NoProbe)).into_iter().collect();
    assert!(m3.mean() < m1.mean() / 1.8, "three sources {} vs one {}", m3.mean(), m1.mean());
}

/// The quasirandom protocol stays within constants of the fully random
/// one on a non-trivial graph, and both inform everyone.
#[test]
fn quasirandom_is_competitive() {
    use rumor_spreading::core::run_sync;
    let g = generators::random_regular_connected(64, 4, &mut rng(9), 500);
    let mut quasi = OnlineStats::new();
    let mut random = OnlineStats::new();
    for seed in 0..120 {
        let q = run_quasirandom_sync(&g, 0, Mode::PushPull, &mut rng(seed), 100_000);
        assert!(q.completed);
        quasi.push(q.rounds as f64);
        let r = run_sync(&g, 0, Mode::PushPull, &mut rng(40_000 + seed), 100_000);
        random.push(r.rounds as f64);
    }
    let ratio = quasi.mean() / random.mean();
    assert!((0.5..1.5).contains(&ratio), "quasi/random ratio {ratio}");
}

/// Lossless configured runs agree with the plain engines in law.
#[test]
fn configured_engines_match_plain_in_distribution() {
    use rumor_spreading::core::run_async;
    let g = generators::hypercube(5);
    let cfg = SpreadConfig::new(0);
    let a: OnlineStats = run_trials(200, 10, |_, r| global_clock(&g, &cfg, r, &mut NoProbe).time)
        .into_iter()
        .collect();
    let b: OnlineStats = run_trials(200, 11, |_, r| {
        run_async(&g, 0, Mode::PushPull, AsyncView::GlobalClock, r, 100_000_000).time
    })
    .into_iter()
    .collect();
    assert!((a.mean() - b.mean()).abs() < 4.0 * (a.sem() + b.sem()) + 0.1);
}
