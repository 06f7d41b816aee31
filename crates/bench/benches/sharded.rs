//! Criterion benchmarks of the engine layer added with the sharded
//! PDES refactor: coordinator overhead at K = 1, within-trial scaling
//! across shard counts on a low-cut topology, and the lazy per-edge
//! clock engine against the eager pending-flip queue.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rumor_core::dynamic::{run_dynamic, DynamicModel, EdgeMarkov};
use rumor_core::engine::{run_dynamic_sharded, run_edge_markov_lazy};
use rumor_core::{Mode, NoProbe};
use rumor_graph::generators;
use rumor_sim::rng::Xoshiro256PlusPlus;

fn bench_k1_overhead(c: &mut Criterion) {
    // The K = 1 sharded run replays the sequential engine seed-for-seed;
    // this group prices the window machinery it pays for that.
    let mut group = c.benchmark_group("sharded_k1_overhead_gnp_256");
    group.sample_size(30);
    let mut graph_rng = Xoshiro256PlusPlus::seed_from(42);
    let n = 256;
    let p = 2.0 * (n as f64).ln() / n as f64;
    let g = generators::gnp_connected(n, p, &mut graph_rng, 200);
    let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0));
    {
        let mut rng = Xoshiro256PlusPlus::seed_from(7);
        group.bench_function("sequential", |b| {
            b.iter(|| run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng, 100_000_000))
        });
    }
    {
        let mut rng = Xoshiro256PlusPlus::seed_from(7);
        group.bench_function("sharded-k1", |b| {
            b.iter(|| run_dynamic_sharded(&g, 0, Mode::PushPull, &model, 1, &mut rng, 100_000_000))
        });
    }
    group.finish();
}

fn bench_shard_scaling(c: &mut Criterion) {
    // Low-cut topology (necklace of cliques, shards aligned with the
    // cliques): the regime where windows amortize enough local events
    // for worker threads to pay off on multi-core hardware.
    let mut group = c.benchmark_group("sharded_scaling_necklace_4096");
    group.sample_size(10);
    let g = generators::necklace_of_cliques(8, 512);
    for shards in [1usize, 2, 4, 8] {
        let mut rng = Xoshiro256PlusPlus::seed_from(9);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k={shards}")),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    run_dynamic_sharded(
                        &g,
                        0,
                        Mode::PushPull,
                        &DynamicModel::Static,
                        shards,
                        &mut rng,
                        1_000_000_000,
                    )
                })
            },
        );
    }
    group.finish();
}

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

criterion_group!(benches, bench_k1_overhead, bench_shard_scaling, bench_lazy_vs_eager);
criterion_main!(benches);
