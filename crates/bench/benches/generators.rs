//! Criterion benchmarks of the graph generators at n ≈ 1024, and of CSR
//! construction: the heavy `K_2048` and `GraphBuilder::build` over a
//! raw edge list.

use criterion::{criterion_group, criterion_main, Criterion};
use rumor_graph::{generators, GraphBuilder, Node};
use rumor_sim::rng::Xoshiro256PlusPlus;

fn bench_deterministic(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators_deterministic_1024");
    group.bench_function("star", |b| b.iter(|| generators::star(1024)));
    group.bench_function("cycle", |b| b.iter(|| generators::cycle(1024)));
    group.bench_function("hypercube-10", |b| b.iter(|| generators::hypercube(10)));
    group.bench_function("torus-32x32", |b| b.iter(|| generators::torus(32, 32)));
    group.bench_function("complete-1024", |b| b.iter(|| generators::complete(1024)));
    group.bench_function("diamonds-10x102", |b| b.iter(|| generators::string_of_diamonds(10, 102)));
    group.finish();
}

fn bench_random(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators_random_1024");
    group.sample_size(20);
    group.bench_function("gnp-0.01", |b| {
        let mut rng = Xoshiro256PlusPlus::seed_from(1);
        b.iter(|| generators::gnp(1024, 0.01, &mut rng))
    });
    group.bench_function("random-regular-6", |b| {
        let mut rng = Xoshiro256PlusPlus::seed_from(2);
        b.iter(|| generators::random_regular(1024, 6, &mut rng, 1000))
    });
    group.bench_function("chung-lu-2.5", |b| {
        let mut rng = Xoshiro256PlusPlus::seed_from(3);
        b.iter(|| generators::chung_lu(1024, 2.5, 8.0, &mut rng))
    });
    group.bench_function("pref-attach-2", |b| {
        let mut rng = Xoshiro256PlusPlus::seed_from(4);
        b.iter(|| generators::preferential_attachment(1024, 2, &mut rng))
    });
    group.finish();
}

/// A fixed G(n, p)-shaped pair list at `p = 2 ln n / n`, with every
/// second edge repeated reversed and every third repeated as is, in
/// shuffled order: what the builder sees from an edge-list file or a
/// rewire snapshot.
fn raw_pairs(n: usize, seed: u64) -> Vec<(Node, Node)> {
    let mut rng = Xoshiro256PlusPlus::seed_from(seed);
    let p = 2.0 * (n as f64).ln() / n as f64;
    let mut edges = Vec::new();
    for u in 0..n as Node {
        for v in u + 1..n as Node {
            if rng.bernoulli(p) {
                edges.push((u, v));
            }
        }
    }
    let mut pairs = edges.clone();
    pairs.extend(edges.iter().step_by(2).map(|&(u, v)| (v, u)));
    pairs.extend(edges.iter().step_by(3));
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.range_usize(i + 1));
    }
    pairs
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_build");
    group.sample_size(20);
    group.bench_function("complete-2048", |b| b.iter(|| generators::complete(2048)));
    let pairs = raw_pairs(1024, 5);
    group.bench_function("builder-edge-list-1024", |b| {
        b.iter(|| {
            let mut builder = GraphBuilder::with_edge_capacity(1024, pairs.len());
            for &(u, v) in &pairs {
                builder.add_edge(u, v);
            }
            builder.build().expect("n = 1024")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_deterministic, bench_random, bench_build);
criterion_main!(benches);
