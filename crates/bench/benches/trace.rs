//! Criterion benchmarks of the topology-trace layer: per model, the
//! cost of (a) recording one realization standalone and eagerly to the
//! horizon (each event's step read off the graph's change journal), and
//! (b) one full coupled trial (on-demand recording, then the sync and
//! async replays in lockstep on the trace cursor — the E23 inner loop,
//! which records only as far as the replays read). Regressions in the
//! journal/apply path or the replay scheduling show up here before they
//! slow the coupled experiments.
//!
//! `trace_record_overhead` isolates what recording adds: on the
//! `coupled_traces` benchmark shapes (G(n, 2 ln n / n), n = 64 and 128,
//! matched churn, auto horizon) it times the bare [`TopoDriver`] loop
//! with the change journal on beside [`TopologyTrace::record`] of the
//! same realization. Their ratio is the recording layer's cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
// The benched suite IS the E23 suite, so the baseline tracks exactly
// the models and parameters the coupled experiment runs.
use rumor_analysis::experiments::e23_coupled_gap::{coupled_models, horizon};
use rumor_core::dynamic::{DynamicModel, EdgeMarkov, Mobility, RandomWalk};
use rumor_core::engine::trace::TopologyTrace;
use rumor_core::engine::TopoDriver;
use rumor_core::spec::{default_coupled_horizon, Protocol, SimSpec, Topology};
use rumor_graph::dynamic::MutableGraph;
use rumor_graph::{generators, Graph};
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
                TopologyTrace::record(&g, 0, model.build_state().as_mut(), &mut rng, horizon(N))
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

/// The `coupled_traces` models at matched churn (nu = 1) on a
/// G(n, 2 ln n / n) base.
fn overhead_models(g: &Graph) -> [(&'static str, DynamicModel); 3] {
    let n = g.node_count() as f64;
    let mean_degree = 2.0 * (n.ln() / n) * (n - 1.0);
    let radius = (mean_degree / (std::f64::consts::PI * n)).sqrt();
    [
        ("markov", DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))),
        ("walk", DynamicModel::RandomWalk(RandomWalk::new(1.0))),
        ("mobility", DynamicModel::Mobility(Mobility::new(0.5, radius, 0.1))),
    ]
}

/// The event loop [`TopologyTrace::record`] runs, without keeping any
/// step: the model is driven to `horizon` with the journal on, and its
/// four typed runs are cleared after every event instead of appended to
/// the trace. Returns the event count.
fn drive_to_horizon(
    g: &Graph,
    model: &DynamicModel,
    rng: &mut Xoshiro256PlusPlus,
    horizon: f64,
) -> usize {
    let mut state = model.build_state();
    let mut net = MutableGraph::from_graph(g);
    let mut driver = TopoDriver::new(g, &mut net, state.as_mut(), rng);
    state.note_informed(0, &net);
    net.track_changes(true);
    let mut events = 0;
    while driver.next_time(rng) <= horizon {
        driver.step(state.as_mut(), &mut net, rng);
        net.clear_changes();
        events += 1;
    }
    events
}

fn bench_record_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_record_overhead");
    group.sample_size(30);
    for n in [64, 128] {
        let p = 2.0 * (n as f64).ln() / n as f64;
        let g = generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(42), 200);
        let horizon = default_coupled_horizon(n);
        for (name, model) in overhead_models(&g) {
            // A fixed seed per iteration: both rows time one realization.
            let rng = || Xoshiro256PlusPlus::seed_from(17);
            group.bench_with_input(
                BenchmarkId::new("driver", format!("{name}_{n}")),
                &model,
                |b, m| b.iter(|| drive_to_horizon(&g, m, &mut rng(), horizon)),
            );
            group.bench_with_input(
                BenchmarkId::new("record", format!("{name}_{n}")),
                &model,
                |b, m| {
                    b.iter(|| {
                        TopologyTrace::record(&g, 0, m.build_state().as_mut(), &mut rng(), horizon)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_record, bench_coupled_trial, bench_record_overhead);
criterion_main!(benches);
