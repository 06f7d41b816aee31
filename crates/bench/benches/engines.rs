//! Criterion micro-benchmarks of the protocol engines: one synchronous
//! run and one asynchronous run per view, across representative graphs.
//! These measure simulator throughput (runs/second), complementing the
//! experiment binaries that measure protocol behaviour.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rumor_core::{run_async, run_sync, AsyncView, Mode};
use rumor_graph::{generators, Graph, GraphBuilder, Node};
use rumor_sim::events::{ClockTree, EventQueue};
use rumor_sim::rng::Xoshiro256PlusPlus;

fn bench_graphs() -> Vec<(&'static str, Graph)> {
    let mut rng = Xoshiro256PlusPlus::seed_from(42);
    vec![
        ("hypercube-256", generators::hypercube(8)),
        ("gnp-256", generators::gnp_connected(256, 0.05, &mut rng, 200)),
        ("star-256", generators::star(256)),
        ("cycle-256", generators::cycle(256)),
    ]
}

fn bench_sync_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("sync_pushpull");
    for (name, g) in bench_graphs() {
        let mut rng = Xoshiro256PlusPlus::seed_from(7);
        group.bench_with_input(BenchmarkId::from_parameter(name), &g, |b, g| {
            b.iter(|| run_sync(g, 0, Mode::PushPull, &mut rng, 1_000_000))
        });
    }
    group.finish();
}

fn bench_sync_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("sync_modes_hypercube_256");
    let g = generators::hypercube(8);
    for mode in Mode::ALL {
        let mut rng = Xoshiro256PlusPlus::seed_from(8);
        group.bench_with_input(BenchmarkId::from_parameter(mode.to_string()), &mode, |b, &mode| {
            b.iter(|| run_sync(&g, 0, mode, &mut rng, 1_000_000))
        });
    }
    group.finish();
}

fn bench_async_views(c: &mut Criterion) {
    let mut group = c.benchmark_group("async_views_hypercube_256");
    let g = generators::hypercube(8);
    for view in AsyncView::ALL {
        let mut rng = Xoshiro256PlusPlus::seed_from(9);
        group.bench_with_input(BenchmarkId::from_parameter(view.to_string()), &view, |b, &view| {
            b.iter(|| run_async(&g, 0, Mode::PushPull, view, &mut rng, 100_000_000))
        });
    }
    group.finish();
}

fn bench_async_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("async_global_clock_scaling");
    group.sample_size(20);
    for dim in [6u32, 8, 10] {
        let g = generators::hypercube(dim);
        let mut rng = Xoshiro256PlusPlus::seed_from(10);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n={}", g.node_count())),
            &g,
            |b, g| {
                b.iter(|| {
                    run_async(g, 0, Mode::PushPull, AsyncView::GlobalClock, &mut rng, 100_000_000)
                })
            },
        );
    }
    group.finish();
}

/// The star push-pull node-clock run is the heaviest clock-view class of
/// the end-to-end benchmark's `paper_static` workload.
fn bench_async_views_star(c: &mut Criterion) {
    let mut group = c.benchmark_group("async_views_star_2048");
    group.sample_size(20);
    let g = generators::star(2048);
    for view in AsyncView::ALL {
        let mut rng = Xoshiro256PlusPlus::seed_from(11);
        group.bench_with_input(BenchmarkId::from_parameter(view.to_string()), &view, |b, &view| {
            b.iter(|| run_async(&g, 0, Mode::PushPull, view, &mut rng, 100_000_000))
        });
    }
    group.finish();
}

/// The heavy class of `paper_static`, K_2048, in the three static loops
/// that draw neighbours: `generators::complete` (closed-form rows)
/// against the same graph built through `GraphBuilder` (stored rows).
/// Both draw the same neighbours, so each pair of rows times the same
/// runs.
fn bench_static_complete(c: &mut Criterion) {
    const N: usize = 2048;
    let mut group = c.benchmark_group("static_complete_2048");
    group.sample_size(20);
    let mut builder = GraphBuilder::with_edge_capacity(N, N * (N - 1) / 2);
    for u in 0..N as Node {
        for v in u + 1..N as Node {
            builder.add_edge(u, v);
        }
    }
    let graphs = [("complete", generators::complete(N)), ("builder", builder.build().unwrap())];
    for (name, g) in &graphs {
        for view in [AsyncView::GlobalClock, AsyncView::NodeClocks] {
            let mut rng = Xoshiro256PlusPlus::seed_from(13);
            group.bench_function(format!("{view}/{name}"), |b| {
                b.iter(|| run_async(g, 0, Mode::PushPull, view, &mut rng, 100_000_000))
            });
        }
        let mut rng = Xoshiro256PlusPlus::seed_from(14);
        group.bench_function(format!("sync/{name}"), |b| {
            b.iter(|| run_sync(g, 0, Mode::PushPull, &mut rng, 1_000_000))
        });
    }
    group.finish();
}

/// One sample is 10 000 reschedules of the earliest of `n` rate-1
/// clocks, each with its `Exp(1)` draw: an `EventQueue` pop and push
/// against `ClockTree::reschedule_min`. The sizes are the node clocks
/// of K_64 and K_2048 and the 4032 edge clocks of K_64.
fn bench_clock_queue(c: &mut Criterion) {
    const RESCHEDULES: usize = 10_000;
    let mut group = c.benchmark_group("clock_queue");
    for n in [64usize, 2048, 4032] {
        let mut rng = Xoshiro256PlusPlus::seed_from(12);
        let mut queue = EventQueue::with_capacity(n);
        for clock in 0..n {
            queue.push(rng.exp(1.0), clock);
        }
        group.bench_function(format!("event-queue/n={n}"), |b| {
            b.iter(|| {
                for _ in 0..RESCHEDULES {
                    let (t, clock) = queue.pop().expect("one pending time per clock");
                    queue.push(t + rng.exp(1.0), clock);
                }
            })
        });
        let mut clocks = ClockTree::new((0..n).map(|_| rng.exp(1.0)).collect());
        group.bench_function(format!("clock-tree/n={n}"), |b| {
            b.iter(|| {
                for _ in 0..RESCHEDULES {
                    let (t, _) = clocks.min();
                    clocks.reschedule_min(t + rng.exp(1.0));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sync_engine,
    bench_sync_modes,
    bench_async_views,
    bench_async_views_star,
    bench_async_scaling,
    bench_static_complete,
    bench_clock_queue
);
criterion_main!(benches);
