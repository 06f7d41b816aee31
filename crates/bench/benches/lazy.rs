//! Criterion benchmark of the lazy per-edge-clock engine against the
//! eager sequential engine, which schedules every edge flip.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rumor_core::dynamic::{run_dynamic, DynamicModel, EdgeMarkov};
use rumor_core::engine::run_edge_markov_lazy;
use rumor_core::{Mode, NoProbe};
use rumor_graph::generators;
use rumor_sim::rng::Xoshiro256PlusPlus;

fn bench_lazy_vs_eager(c: &mut Criterion) {
    // The lazy engine pays per touched edge; the eager engine pays per
    // flip, everywhere, all the time.
    let mut group = c.benchmark_group("lazy_vs_eager_edge_markov_rr6");
    group.sample_size(15);
    let model = EdgeMarkov::symmetric(0.5);
    for n in [1024usize, 4096] {
        let mut graph_rng = Xoshiro256PlusPlus::seed_from(11);
        let g = generators::random_regular_connected(n, 6, &mut graph_rng, 500);
        {
            let mut rng = Xoshiro256PlusPlus::seed_from(13);
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("eager-n={n}")),
                &g,
                |b, g| {
                    b.iter(|| {
                        run_dynamic(
                            g,
                            0,
                            Mode::PushPull,
                            &DynamicModel::EdgeMarkov(model),
                            &mut rng,
                            100_000_000,
                        )
                    })
                },
            );
        }
        {
            let mut rng = Xoshiro256PlusPlus::seed_from(13);
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("lazy-n={n}")),
                &g,
                |b, g| {
                    b.iter(|| {
                        run_edge_markov_lazy(
                            g,
                            0,
                            Mode::PushPull,
                            model,
                            &mut rng,
                            100_000_000,
                            &mut NoProbe,
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lazy_vs_eager);
criterion_main!(benches);
