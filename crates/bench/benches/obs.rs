//! Criterion benchmarks of the observability layer.
//!
//! The probe hooks are statically dispatched and default-empty, so the
//! `NoProbe` path must compile down to the unprobed engines — the
//! `async_noprobe` benchmark pins that the disabled overhead stays
//! under a few percent. Every dynamic entry point is generic over the
//! probe, so `dynamic_boxed_noprobe` instead prices the general entry
//! over a boxed model state against [`run_dynamic`]'s per-model
//! dispatch. The probed variants price the cheapest real consumers:
//! the counting probe (a handful of integer adds per event) and full
//! spreading-curve capture through the spec layer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rumor_core::dynamic::{DynamicModel, EdgeMarkov};
use rumor_core::spec::{GraphSpec, Protocol, SimSpec, Topology};
use rumor_core::{
    run_async, run_async_probed, run_dynamic, run_dynamic_with, AsyncView, CountingProbe,
    LogHistogram, MetricsLevel, Mode, NoProbe, SpreadConfig,
};
use rumor_graph::generators;
use rumor_sim::rng::Xoshiro256PlusPlus;

/// Unprobed baseline vs the generic entry point with `NoProbe`: the two
/// must be indistinguishable (the acceptance gate is <5% overhead).
fn bench_noprobe_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_noprobe_overhead");
    group.sample_size(40);
    let mut graph_rng = Xoshiro256PlusPlus::seed_from(42);
    let g = generators::gnp_connected(256, 0.05, &mut graph_rng, 200);
    let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0));

    // Every iteration re-seeds, so unprobed and NoProbe simulate the
    // IDENTICAL trial — the comparison is work-for-work, not
    // trial-population-for-trial-population.
    group.bench_function("dynamic_unprobed", |b| {
        b.iter(|| {
            let mut rng = Xoshiro256PlusPlus::seed_from(7);
            run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng, 100_000_000)
        })
    });
    group.bench_function("dynamic_boxed_noprobe", |b| {
        b.iter(|| {
            let mut rng = Xoshiro256PlusPlus::seed_from(7);
            run_dynamic_with(
                &g,
                &SpreadConfig::new(0),
                model.build_state().as_mut(),
                &mut rng,
                100_000_000,
                &mut NoProbe,
            )
        })
    });

    group.bench_function("async_unprobed", |b| {
        b.iter(|| {
            let mut rng = Xoshiro256PlusPlus::seed_from(9);
            run_async(&g, 0, Mode::PushPull, AsyncView::GlobalClock, &mut rng, 100_000_000)
        })
    });
    group.bench_function("async_noprobe", |b| {
        b.iter(|| {
            let mut rng = Xoshiro256PlusPlus::seed_from(9);
            run_async_probed(
                &g,
                &SpreadConfig::new(0),
                AsyncView::GlobalClock,
                &mut rng,
                100_000_000,
                &mut NoProbe,
            )
        })
    });
    group.finish();
}

/// The cheapest live probe: per-event integer counters.
fn bench_counting_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_counting_probe");
    group.sample_size(40);
    let mut graph_rng = Xoshiro256PlusPlus::seed_from(42);
    let g = generators::gnp_connected(256, 0.05, &mut graph_rng, 200);
    let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0));
    group.bench_function("dynamic_counting", |b| {
        b.iter(|| {
            let mut rng = Xoshiro256PlusPlus::seed_from(7);
            let mut probe = CountingProbe::default();
            run_dynamic_with(
                &g,
                &SpreadConfig::new(0),
                model.build_state().as_mut(),
                &mut rng,
                100_000_000,
                &mut probe,
            )
        })
    });
    group.finish();
}

/// End-to-end cost of metrics assembly in the spec layer: curves,
/// histograms, and the artifact render, against the metrics-off run.
fn bench_spec_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_spec_metrics");
    group.sample_size(15);
    let spec = |level: MetricsLevel| {
        SimSpec::new(GraphSpec::Gnp { n: 128, p: 0.08, seed: 11, attempts: 200 })
            .protocol(Protocol::push_pull_async())
            .topology(Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))))
            .trials(16)
            .seed(5)
            .metrics(level)
    };
    for level in [MetricsLevel::Off, MetricsLevel::Json] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("metrics={level}")),
            &spec(level),
            |b, spec| b.iter(|| spec.clone().build().unwrap().run()),
        );
    }
    group.finish();
}

/// Raw histogram throughput: record and merge.
fn bench_histogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_histogram");
    group.sample_size(60);
    let mut rng = Xoshiro256PlusPlus::seed_from(3);
    let values: Vec<f64> = (0..4096).map(|_| rng.f64_unit() * 1e6).collect();
    group.bench_function("record_4096", |b| {
        b.iter(|| {
            let mut h = LogHistogram::new();
            for &v in &values {
                h.record(v);
            }
            h
        })
    });
    let mut a = LogHistogram::new();
    let mut bh = LogHistogram::new();
    for (i, &v) in values.iter().enumerate() {
        if i % 2 == 0 {
            a.record(v);
        } else {
            bh.record(v);
        }
    }
    group.bench_function("merge", |b| {
        b.iter(|| {
            let mut m = a.clone();
            m.merge(&bh);
            m
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_noprobe_overhead,
    bench_counting_probe,
    bench_spec_metrics,
    bench_histogram
);
criterion_main!(benches);
