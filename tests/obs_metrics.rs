//! Observability contracts: the `.metrics.json` artifact is
//! engine-invariant and byte-deterministic, histogram merging obeys
//! the monoid laws the one-path `Telemetry`/metrics assembly relies
//! on, and probes observe without perturbing (probed runs replay their
//! unprobed twins seed-for-seed, informed counts are monotone).
//!
//! The committed golden artifact `specs/e23_quick_markov.metrics.json`
//! regenerates with `REGEN_SPECS=1 cargo test --test obs_metrics`.

use proptest::prelude::*;
use rumor_spreading::core::dynamic::{DynamicModel, EdgeMarkov};
use rumor_spreading::core::spec::{GraphSpec, Protocol, SimSpec, Topology};
use rumor_spreading::core::{
    run_async, run_async_probed, run_dynamic, run_dynamic_with, AsyncView, CountingProbe,
    LogHistogram, MetricsLevel, Mode, SpreadConfig, TopologyTrace,
};
use rumor_spreading::graph::generators;
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;

// ---------------------------------------------------------------------------
// Artifact determinism
// ---------------------------------------------------------------------------

const GRAPH: GraphSpec = GraphSpec::Gnp { n: 32, p: 0.25, seed: 11, attempts: 200 };

fn markov() -> DynamicModel {
    DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))
}

fn spec_on(topology: Topology) -> SimSpec {
    SimSpec::new(GRAPH)
        .protocol(Protocol::push_pull_async())
        .topology(topology)
        .trials(8)
        .seed(5)
        .metrics(MetricsLevel::Json)
}

fn markov_spec() -> SimSpec {
    spec_on(Topology::Model(markov()))
}

/// One recorded markov realization on [`GRAPH`].
fn markov_trace() -> TopologyTrace {
    let g = GRAPH.resolve().unwrap();
    let mut rng = Xoshiro256PlusPlus::seed_from(17);
    TopologyTrace::record(&g, 0, markov().build_state().as_mut(), &mut rng, 40.0)
}

/// The determinism contract: the artifact contains only
/// engine-invariant payload, so the static engine and the model engine
/// over the no-op model (of which it is a seed-for-seed replay) render
/// **byte identical** `.metrics.json` documents. The step budget is
/// explicit because the two topologies resolve different defaults. The
/// trace cursor against the sequential replay is pinned in
/// `tests/trace_replay.rs`.
#[test]
fn metrics_artifact_is_byte_identical_static_vs_model_engine() {
    let run = |topology| spec_on(topology).max_steps(100_000).build().unwrap().run();
    let static_engine = run(Topology::Static);
    let model_engine = run(Topology::Model(DynamicModel::Static));
    let a = static_engine.metrics.as_ref().expect("metrics enabled").render_json();
    let b = model_engine.metrics.as_ref().expect("metrics enabled").render_json();
    assert!(a.contains("\"informed\""), "{a}");
    assert_eq!(a, b, "artifact must not depend on the engine");
}

/// Rendering is a pure function of the run: same spec, same bytes.
#[test]
fn metrics_artifact_is_deterministic_across_runs() {
    let a = markov_spec().build().unwrap().run();
    let b = markov_spec().build().unwrap().run();
    assert_eq!(
        a.metrics.as_ref().unwrap().render_json(),
        b.metrics.as_ref().unwrap().render_json()
    );
}

/// Golden pin: replaying the committed E23 quick-run spec with metrics
/// enabled reproduces the committed artifact byte for byte.
#[test]
fn committed_quick_run_metrics_artifact_replays_byte_for_byte() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let spec_text = std::fs::read_to_string(format!("{dir}/specs/e23_quick_markov.spec"))
        .expect("committed spec exists");
    let spec = SimSpec::parse(&spec_text).unwrap().metrics(MetricsLevel::Json);
    let report = spec.build().unwrap().run();
    let rendered = report.metrics.as_ref().expect("metrics enabled").render_json();

    let golden = format!("{dir}/specs/e23_quick_markov.metrics.json");
    if std::env::var("REGEN_SPECS").is_ok() {
        std::fs::write(&golden, &rendered).expect("write golden artifact");
    }
    let committed =
        std::fs::read_to_string(&golden).expect("specs/e23_quick_markov.metrics.json exists");
    assert_eq!(
        committed, rendered,
        "metrics artifact drifted; REGEN_SPECS=1 cargo test --test obs_metrics to regenerate"
    );
}

/// Probes observe, never perturb: enabling metrics does not change a
/// single trial outcome, on the sequential engine or the trace cursor.
#[test]
fn metrics_capture_does_not_perturb_outcomes() {
    for topology in [Topology::Model(markov()), Topology::Trace(markov_trace())] {
        let on = spec_on(topology);
        let off = on.clone().metrics(MetricsLevel::Off).build().unwrap().run();
        let on = on.build().unwrap().run();
        assert_eq!(off.outcomes, on.outcomes);
        assert_eq!(off.telemetry, on.telemetry);
    }
}

// ---------------------------------------------------------------------------
// Histogram merge laws
// ---------------------------------------------------------------------------

fn hist(values: &[f64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

fn merged(a: &LogHistogram, b: &LogHistogram) -> LogHistogram {
    let mut m = a.clone();
    m.merge(b);
    m
}

/// The fields on which merging is exact (the module docs carve out the
/// float `sum`, whose rounding depends on addition order).
fn exact_parts(
    h: &LogHistogram,
) -> (Vec<rumor_spreading::core::obs::Bucket>, u64, Option<f64>, Option<f64>) {
    (h.buckets(), h.count(), h.min(), h.max())
}

fn sums_close(a: &LogHistogram, b: &LogHistogram) -> bool {
    (a.sum() - b.sum()).abs() <= 1e-9 * a.sum().abs().max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging equals recording the concatenation: the streaming
    /// histogram is a homomorphism from multisets of samples (exactly
    /// so on counts and extrema; the float sum only up to rounding).
    #[test]
    fn merge_equals_concatenated_recording(
        xs in proptest::collection::vec(0.0f64..1e9, 0..32),
        ys in proptest::collection::vec(0.0f64..1e9, 0..32),
    ) {
        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        let (m, whole) = (merged(&hist(&xs), &hist(&ys)), hist(&all));
        prop_assert_eq!(exact_parts(&m), exact_parts(&whole));
        prop_assert!(sums_close(&m, &whole));
    }

    /// Merge is commutative.
    #[test]
    fn merge_is_commutative(
        xs in proptest::collection::vec(0.0f64..1e9, 0..32),
        ys in proptest::collection::vec(0.0f64..1e9, 0..32),
    ) {
        let (a, b) = (hist(&xs), hist(&ys));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    /// Merge is associative, with the empty histogram as identity.
    #[test]
    fn merge_is_associative_with_identity(
        xs in proptest::collection::vec(0.0f64..1e9, 0..24),
        ys in proptest::collection::vec(0.0f64..1e9, 0..24),
        zs in proptest::collection::vec(0.0f64..1e9, 0..24),
    ) {
        let (a, b, c) = (hist(&xs), hist(&ys), hist(&zs));
        let (l, r) = (merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        prop_assert_eq!(exact_parts(&l), exact_parts(&r));
        prop_assert!(sums_close(&l, &r));
        // The empty histogram is a two-sided identity, exactly.
        prop_assert_eq!(merged(&a, &LogHistogram::new()), a.clone());
        prop_assert_eq!(merged(&LogHistogram::new(), &a), a);
    }

    /// Merging conserves the summary statistics of the union.
    #[test]
    fn merge_conserves_count_extrema_and_sum(
        xs in proptest::collection::vec(0.0f64..1e9, 1..32),
        ys in proptest::collection::vec(0.0f64..1e9, 1..32),
    ) {
        let m = merged(&hist(&xs), &hist(&ys));
        prop_assert_eq!(m.count(), (xs.len() + ys.len()) as u64);
        let lo = xs.iter().chain(&ys).copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().chain(&ys).copied().fold(0.0, f64::max);
        prop_assert_eq!(m.min(), Some(lo));
        prop_assert_eq!(m.max(), Some(hi));
        let sum: f64 = xs.iter().chain(&ys).sum();
        prop_assert!((m.sum() - sum).abs() <= 1e-9 * sum.max(1.0));
    }
}

// ---------------------------------------------------------------------------
// Probe regression pins
// ---------------------------------------------------------------------------

/// Informed counts reported by every engine are monotone (the
/// `CountingProbe` debug-asserts regressions) and reach `n` exactly on
/// completed static runs; probed runs replay unprobed ones
/// seed-for-seed.
#[test]
fn probed_engines_report_monotone_informed_counts_and_replay() {
    let g = generators::gnp_connected(40, 0.2, &mut Xoshiro256PlusPlus::seed_from(3), 100);
    let n = g.node_count();
    let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0));

    // Sequential dynamic engine.
    let mut probe = CountingProbe::default();
    let probed = run_dynamic_with(
        &g,
        &SpreadConfig::new(0),
        model.build_state().as_mut(),
        &mut Xoshiro256PlusPlus::seed_from(9),
        1_000_000,
        &mut probe,
    );
    let plain = run_dynamic(
        &g,
        0,
        Mode::PushPull,
        &model,
        &mut Xoshiro256PlusPlus::seed_from(9),
        1_000_000,
    );
    assert_eq!(probed, plain, "probe must not perturb the dynamic engine");
    assert!(probed.completed);
    assert_eq!(probe.last_count, n, "completed run informs every node");
    assert_eq!(probe.informed as usize, n, "one growth notification per node");
    assert_eq!(probe.trials, 1);
    assert_eq!(probe.completed, 1);
    assert!(probe.events[0] > 0, "ticks observed");
    assert!(probe.events[1] > 0, "topology events observed");

    // Static asynchronous engine, all three views.
    for view in AsyncView::ALL {
        let mut probe = CountingProbe::default();
        let probed = run_async_probed(
            &g,
            &SpreadConfig::new(0),
            view,
            &mut Xoshiro256PlusPlus::seed_from(17),
            1_000_000,
            &mut probe,
        );
        let plain = run_async(
            &g,
            0,
            Mode::PushPull,
            view,
            &mut Xoshiro256PlusPlus::seed_from(17),
            1_000_000,
        );
        assert_eq!(probed, plain, "{view:?}");
        assert_eq!(probe.last_count, n, "{view:?}");
    }
}
