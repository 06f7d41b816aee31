//! Criterion benchmarks of the pluggable topology-model layer: one
//! full dynamic run per model at matched expected churn volume
//! (`m·ν` edge changes per unit time, the E22 parameterization), so
//! regressions in any model's event scheduling or apply path — or in
//! the trait dispatch the engines now route every model through — show
//! up as per-model wall-clock drift against the committed baseline.
//!
//! The full-run groups execute through the superposition scheduler;
//! BENCH_PR8.json is the first baseline that prices it, and
//! BENCH_PR7.json holds the retired eager-queue numbers on identical
//! labels.

use criterion::{criterion_group, criterion_main, Bencher, BenchmarkId, Criterion};
// The benched suite IS the E22 suite: importing it keeps the committed
// BENCH_PR3.json baseline tracking exactly the models the experiment
// measures, parameter drift included.
use rumor_analysis::experiments::e22_models::matched_models;
use rumor_core::dynamic::{Adversary, Mobility};
use rumor_core::engine::{StateVisitor, TopoDriver, TopologyModel};
use rumor_core::{run_dynamic, DynamicModel, Mode};
use rumor_graph::dynamic::MutableGraph;
use rumor_graph::{generators, Graph, Node};
use rumor_sim::rng::Xoshiro256PlusPlus;

fn bench_models_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology_models_gnp_256");
    group.sample_size(20);
    let n = 256;
    let p = 2.0 * (n as f64).ln() / n as f64;
    let g = generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(42), 200);
    for (name, model) in matched_models(&g) {
        let mut rng = Xoshiro256PlusPlus::seed_from(7);
        group.bench_with_input(BenchmarkId::from_parameter(name), &model, |b, model| {
            b.iter(|| run_dynamic(&g, 0, Mode::PushPull, model, &mut rng, 100_000_000))
        });
    }
    group.finish();
}

fn bench_models_sequential_1024(c: &mut Criterion) {
    // The scale row the flat-memory core is for: 4x the nodes, ~5x the
    // edges of the 256 group. Per-trial setup (graph adoption, model
    // buffers) is pooled, so this prices the steady-state hot path.
    let mut group = c.benchmark_group("topology_models_gnp_1024");
    // 40 samples (the 3s shim budget still bounds slow rows): medians
    // on this group feed the BENCH_PR* baselines, and 10 samples let a
    // single scheduler-noise spike drag the median by tens of percent.
    group.sample_size(40);
    let n = 1024;
    let p = 2.0 * (n as f64).ln() / n as f64;
    let g = generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(42), 200);
    for (name, model) in matched_models(&g) {
        let mut rng = Xoshiro256PlusPlus::seed_from(7);
        group.bench_with_input(BenchmarkId::from_parameter(name), &model, |b, model| {
            b.iter(|| run_dynamic(&g, 0, Mode::PushPull, model, &mut rng, 100_000_000))
        });
    }
    group.finish();
}

fn bench_compaction_threshold_sweep(c: &mut Criterion) {
    // Drives the MutableGraph directly (no engine) through a fixed
    // random churn + neighbor-draw mix at different compaction
    // thresholds: 0 compacts after every mutation, `usize::MAX` lets
    // the overlay grow without bound, `auto` is the default 2x-base
    // policy. The sweep prices the policy itself; the engines always
    // run `auto`.
    let mut group = c.benchmark_group("compaction_threshold_gnp_256");
    group.sample_size(20);
    let n = 256usize;
    let p = 2.0 * (n as f64).ln() / n as f64;
    let g = generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(42), 200);
    let edges: Vec<(Node, Node)> = g.edges().collect();
    for (label, threshold) in [
        ("eager-0", Some(0)),
        ("t-64", Some(64)),
        ("t-1024", Some(1024)),
        ("never", Some(usize::MAX)),
        ("auto", None),
    ] {
        let mut rng = Xoshiro256PlusPlus::seed_from(11);
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut net = MutableGraph::from_graph(&g);
                if let Some(t) = threshold {
                    net.set_compaction_threshold(t);
                }
                let mut touched = 0u32;
                for _ in 0..20_000 {
                    let (u, v) = edges[rng.range_usize(edges.len())];
                    if net.has_edge(u, v) {
                        net.remove_edge(u, v);
                    } else {
                        net.add_edge(u, v);
                    }
                    let q = rng.range_usize(n) as Node;
                    if net.degree(q) > 0 {
                        touched ^= net.random_neighbor(q, &mut rng);
                    }
                }
                touched
            })
        });
    }
    group.finish();
}

fn bench_hotpath_components(c: &mut Criterion) {
    // Isolates the three cost centers a dynamic-model event pays —
    // graph mutation, neighbor draw, event-queue churn — so a model
    // bench regression can be attributed without profiling.
    let mut group = c.benchmark_group("hotpath_components_gnp_256");
    group.sample_size(20);
    let n = 256usize;
    let p = 2.0 * (n as f64).ln() / n as f64;
    let g = generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(42), 200);
    let edges: Vec<(Node, Node)> = g.edges().collect();
    let mut setup = Xoshiro256PlusPlus::seed_from(13);
    let flip_seq: Vec<(Node, Node)> =
        (0..20_000).map(|_| edges[setup.range_usize(edges.len())]).collect();
    let draw_seq: Vec<Node> = (0..20_000).map(|_| setup.range_usize(n) as Node).collect();

    group.bench_function("flips", |b| {
        b.iter(|| {
            let mut net = MutableGraph::from_graph(&g);
            let mut count = 0usize;
            for &(u, v) in &flip_seq {
                if !net.remove_edge(u, v) {
                    net.add_edge(u, v);
                    count += 1;
                }
            }
            count
        })
    });

    group.bench_function("draws", |b| {
        // Draws on a churned graph: half the flip sequence applied, so
        // a realistic share of nodes reads through the overlay.
        let mut net = MutableGraph::from_graph(&g);
        for &(u, v) in &flip_seq[..10_000] {
            if !net.remove_edge(u, v) {
                net.add_edge(u, v);
            }
        }
        let mut rng = Xoshiro256PlusPlus::seed_from(17);
        b.iter(|| {
            let mut acc = 0 as Node;
            for &v in &draw_seq {
                if net.degree(v) > 0 {
                    acc ^= net.random_neighbor(v, &mut rng);
                }
            }
            acc
        })
    });

    group.bench_function("queue", |b| {
        // An eager per-edge queue's cost per topology event: one heap
        // pop + one exp draw + one push, at the markov model's
        // pending-event count — the construction `superposition` below
        // replaced.
        use rumor_sim::events::EventQueue;
        let mut rng = Xoshiro256PlusPlus::seed_from(19);
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..edges.len() as u32 {
                q.push(rng.exp(1.0), i);
            }
            let mut acc = 0u32;
            for _ in 0..20_000 {
                let (t, i) = q.pop().expect("queue stays full");
                acc ^= i;
                q.push(t + rng.exp(1.0), i);
            }
            acc
        })
    });

    group.bench_function("superposition", |b| {
        // The engines' scheduler: one Exp(total) draw + one thinning
        // draw + a markov-shaped two-channel reweight per event, with no
        // per-edge pending state at all. The gap between this row and
        // `queue` is the per-event scheduling win of the full-run groups.
        use rumor_sim::events::{Fired, Superposition};
        let mut rng = Xoshiro256PlusPlus::seed_from(19);
        let m = edges.len() as f64;
        b.iter(|| {
            let mut sup: Superposition<u32> = Superposition::new(2);
            let (mut off_pop, mut on_pop) = (m, 0.0);
            sup.set_weight(0.0, 0, off_pop);
            sup.set_weight(0.0, 1, on_pop);
            let mut acc = 0usize;
            for _ in 0..20_000 {
                let (t, fired) = sup.pop(&mut rng).expect("populations stay live");
                let ch = match fired {
                    Fired::Channel(ch) => ch,
                    Fired::Event(_) => unreachable!("no queued events"),
                };
                // One edge migrates between the off/on populations,
                // moving both channel weights — the markov fire shape.
                if ch == 0 {
                    off_pop -= 1.0;
                    on_pop += 1.0;
                } else {
                    off_pop += 1.0;
                    on_pop -= 1.0;
                }
                sup.set_weight(t, 0, off_pop);
                sup.set_weight(t, 1, on_pop);
                acc ^= ch;
            }
            acc
        })
    });
    group.finish();
}

/// Driver steps per timed sample: a single step (about a microsecond)
/// is too close to the timer's own cost to read.
const STEPS_PER_SAMPLE: usize = 1000;

/// Times [`STEPS_PER_SAMPLE`] [`TopoDriver`] steps per sample over the
/// model's concrete state, with nodes `0..informed` informed first.
struct DriverSteps<'a> {
    b: &'a mut Bencher,
    g: &'a Graph,
    informed: usize,
}

impl StateVisitor for DriverSteps<'_> {
    type Output = ();

    fn visit<M: TopologyModel + Send + 'static>(self, mut state: M) {
        let mut rng = Xoshiro256PlusPlus::seed_from(23);
        let mut net = MutableGraph::from_graph(self.g);
        let mut driver = TopoDriver::new(self.g, &mut net, &mut state, &mut rng);
        for v in 0..self.informed {
            state.note_informed(v as Node, &net);
        }
        self.b.iter(|| {
            let mut t = 0.0;
            for _ in 0..STEPS_PER_SAMPLE {
                t = driver.next_time(&mut rng);
                driver.step(&mut state, &mut net, &mut rng);
            }
            t
        });
    }
}

fn bench_topology_events(c: &mut Criterion) {
    // The per-event cost (row time / STEPS_PER_SAMPLE) of the two
    // event kinds the engine pays most for on the benchmark's
    // `dynamic_models` workload, without protocol ticks: a mobility
    // move (grid move, radius query, row rewrite) at the workload's
    // sparse density, and an adversary strike or heal against a
    // frontier of half the nodes.
    let mut group = c.benchmark_group("topology_events");
    group.sample_size(20);
    let gnp = |n: usize| {
        let p = 2.0 * (n as f64).ln() / n as f64;
        generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(42), 200)
    };
    for n in [256, 1024] {
        let g = gnp(n);
        let model = DynamicModel::Mobility(Mobility::matching_density(&g, 1.0, 0.1));
        group.bench_function(format!("mobility_n{n}"), |b| {
            model.with_state(DriverSteps { b, g: &g, informed: 0 })
        });
    }
    let g = gnp(256);
    let strikes = g.edge_count() as f64 / 8.0;
    let model = DynamicModel::Adversary(Adversary::new(strikes, 4, 1.0));
    group.bench_function("adversary_n256_half_informed", |b| {
        model.with_state(DriverSteps { b, g: &g, informed: 128 })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_models_sequential,
    bench_models_sequential_1024,
    bench_compaction_threshold_sweep,
    bench_hotpath_components,
    bench_topology_events
);
criterion_main!(benches);
