//! Criterion benchmarks of the topology-trace layer: per model, the
//! cost of (a) recording one realization standalone (diffing every
//! applied event against the shadow graph), (b) replaying it through
//! the sequential engine, and (c) one full coupled trial (record +
//! sync run + async replay — the E23 inner loop). Regressions in the
//! diff/apply path or the replay scheduling show up here before they
//! slow the coupled experiments.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
// The benched suite IS the E23 suite, so the baseline tracks exactly
// the models and parameters the coupled experiment runs.
use rumor_analysis::experiments::e23_coupled_gap::{coupled_models, horizon};
use rumor_core::dynamic::run_dynamic_with;
use rumor_core::engine::trace::TopologyTrace;
use rumor_core::spec::{Protocol, SimSpec, Topology};
use rumor_core::{Mode, NoProbe, RngContract};
use rumor_graph::generators;
use rumor_sim::rng::Xoshiro256PlusPlus;

const N: usize = 256;

fn base_graph() -> rumor_graph::Graph {
    let p = 1.05 * (N as f64).ln() / N as f64;
    generators::gnp_connected(N, p, &mut Xoshiro256PlusPlus::seed_from(42), 200)
}

fn bench_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_record_gnp_256");
    group.sample_size(10);
    let g = base_graph();
    for (name, model) in coupled_models(&g) {
        let mut rng = Xoshiro256PlusPlus::seed_from(7);
        group.bench_with_input(BenchmarkId::from_parameter(name), &model, |b, model| {
            b.iter(|| {
                TopologyTrace::record(
                    RngContract::V1,
                    &g,
                    0,
                    model.build_state().as_mut(),
                    &mut rng,
                    horizon(N),
                )
            })
        });
    }
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_replay_gnp_256");
    group.sample_size(10);
    let g = base_graph();
    for (name, model) in coupled_models(&g) {
        let trace = TopologyTrace::record(
            RngContract::V1,
            &g,
            0,
            model.build_state().as_mut(),
            &mut Xoshiro256PlusPlus::seed_from(11),
            horizon(N),
        );
        let mut rng = Xoshiro256PlusPlus::seed_from(13);
        group.bench_with_input(BenchmarkId::from_parameter(name), &trace, |b, trace| {
            b.iter(|| {
                run_dynamic_with(
                    RngContract::V1,
                    &g,
                    0,
                    Mode::PushPull,
                    &mut trace.replayer(),
                    &mut rng,
                    100_000_000,
                    &mut NoProbe,
                )
            })
        });
    }
    group.finish();
}

fn bench_coupled_trial(c: &mut Criterion) {
    let mut group = c.benchmark_group("coupled_trial_gnp_256");
    group.sample_size(10);
    let g = base_graph();
    for (name, model) in coupled_models(&g) {
        let mut seed = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(name), &model, |b, model| {
            b.iter(|| {
                seed += 1;
                SimSpec::on_graph(&g)
                    .protocol(Protocol::push_pull_async())
                    .topology(Topology::Model(*model))
                    .coupled(true)
                    .trials(1)
                    .seed(seed)
                    .horizon(horizon(N))
                    .max_steps(4_000 * N as u64)
                    .max_rounds(20_000)
                    .build()
                    .expect("valid coupled spec")
                    .run()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_record, bench_replay, bench_coupled_trial);
criterion_main!(benches);
