//! Property tests of the dynamic-network subsystem: the churn-0
//! degeneracy to the static process, strict time-ordering of the
//! interleaved event stream, and thread-count-independent
//! reproducibility via `SeedStream`.

use proptest::prelude::*;
use rumor_spreading::core::dynamic::{
    run_dynamic, run_dynamic_with, DynamicModel, EdgeMarkov, NodeChurn, Rewire, SnapshotFamily,
};
use rumor_spreading::core::spec::{Protocol, SimSpec, Topology};
use rumor_spreading::core::{run_async, AsyncView, Mode, Probe, ProbeEvent, SpreadConfig};
use rumor_spreading::graph::{generators, Graph};
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;

/// Strategy: a connected graph from the families the acceptance criteria
/// name — G(n, p) and hypercubes — plus cycles for a sparse extreme.
fn test_graph() -> impl Strategy<Value = Graph> {
    (0usize..3, 4usize..6, 20usize..48).prop_map(|(family, dim, n)| match family {
        0 => {
            let p = 2.5 * (n as f64).ln() / n as f64;
            generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(n as u64), 200)
        }
        1 => generators::hypercube(dim as u32),
        _ => generators::cycle(n),
    })
}

/// Records every dispatched engine event, in processing order.
struct EventLog(Vec<(f64, ProbeEvent)>);

impl Probe for EventLog {
    fn event(&mut self, time: f64, kind: ProbeEvent) {
        self.0.push((time, kind));
    }
}

fn churny_model(which: usize) -> DynamicModel {
    match which {
        0 => DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.5)),
        1 => DynamicModel::EdgeMarkov(EdgeMarkov { off_rate: 2.0, on_rate: 1.0 }),
        2 => DynamicModel::Rewire(Rewire::new(1.5, SnapshotFamily::Gnp { p: 0.15 })),
        _ => DynamicModel::NodeChurn(NodeChurn::new(0.4, 1.5, 2)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (i) Churn rate 0 reproduces the static `run_async` trajectory
    /// seed-for-seed: identical time, steps, and per-node informed
    /// times, for every mode.
    #[test]
    fn zero_churn_replays_static_seed_for_seed(g in test_graph(), seed in 0u64..1_000) {
        for model in [
            DynamicModel::Static,
            DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(0.0)),
            DynamicModel::EdgeMarkov(EdgeMarkov { off_rate: 0.0, on_rate: 3.0 }),
        ] {
            for mode in Mode::ALL {
                let mut a = Xoshiro256PlusPlus::seed_from(seed);
                let stat = run_async(&g, 0, mode, AsyncView::GlobalClock, &mut a, 50_000_000);
                let mut b = Xoshiro256PlusPlus::seed_from(seed);
                let dynamic = run_dynamic(&g, 0, mode, &model, &mut b, 50_000_000);
                prop_assert_eq!(dynamic, stat.clone(), "mode {}", mode);
                // The RNG streams must also end in the same state: the
                // dynamic engine consumed exactly the same draws.
                prop_assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }

    /// (ii) Topology events and protocol ticks are processed in one
    /// strictly time-ordered stream, and the trace accounts for every
    /// event of both kinds.
    #[test]
    fn event_stream_is_time_ordered(g in test_graph(), seed in 0u64..1_000, which in 0usize..4) {
        let model = churny_model(which);
        let mut rng = Xoshiro256PlusPlus::seed_from(seed);
        let mut log = EventLog(Vec::new());
        let out = run_dynamic_with(
            &g,
            &SpreadConfig::new(0),
            model.build_state().as_mut(),
            &mut rng,
            200_000,
            &mut log);
        let trace = log.0;
        prop_assert!(
            trace.windows(2).all(|w| w[0].0 <= w[1].0),
            "event stream out of time order ({})", model
        );
        prop_assert!(trace.iter().all(|e| e.0 >= 0.0 && e.0.is_finite()));
        let ticks = trace.iter().filter(|e| e.1 == ProbeEvent::Tick).count() as u64;
        let topo = trace.iter().filter(|e| e.1 == ProbeEvent::Topology).count() as u64;
        prop_assert_eq!(ticks, out.steps);
        prop_assert_eq!(topo, out.topology_events);
        prop_assert_eq!(trace.len() as u64, out.steps + out.topology_events);
    }

    /// (iii) Dynamic-run sampling is reproducible across thread
    /// counts: per-trial `SeedStream` seeding makes the parallel runner
    /// bit-identical to the serial one.
    #[test]
    fn trials_reproducible_across_thread_counts(
        g in test_graph(),
        seed in 0u64..1_000,
        which in 0usize..4,
    ) {
        let model = churny_model(which);
        let spec = SimSpec::on_graph(&g)
            .protocol(Protocol::Async { mode: Mode::PushPull, view: AsyncView::GlobalClock })
            .topology(Topology::Model(model))
            .trials(12)
            .seed(seed)
            .max_steps(5_000_000);
        let serial = spec.clone().build().expect("valid spec").run();
        for threads in [2usize, 3, 8] {
            let parallel = spec.clone().threads(threads).build().expect("valid spec").run();
            prop_assert_eq!(&serial, &parallel, "threads = {}", threads);
        }
    }

    /// The rumor still only travels along (currently present) edges:
    /// every informed node other than the source was informed strictly
    /// after time 0 at a finite time, and under pure node churn the
    /// informed set grows along base-graph adjacencies.
    #[test]
    fn informed_times_are_sane_under_churn(g in test_graph(), seed in 0u64..1_000) {
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0));
        let mut rng = Xoshiro256PlusPlus::seed_from(seed);
        let out = run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng, 50_000_000);
        prop_assert!(out.completed, "edge-markov run did not finish in budget");
        prop_assert_eq!(out.informed_time[0], 0.0);
        for v in g.nodes().skip(1) {
            let tv = out.informed_time[v as usize];
            prop_assert!(tv.is_finite() && tv > 0.0, "node {} time {}", v, tv);
            prop_assert!(tv <= out.time);
        }
    }
}

/// The acceptance-criteria graphs, spelled out: churn 0 matches static
/// `run_async` seed-for-seed on G(n, p) and on the hypercube.
#[test]
fn acceptance_zero_churn_parity_on_gnp_and_hypercube() {
    let mut graph_rng = Xoshiro256PlusPlus::seed_from(2024);
    let gnp = generators::gnp_connected(96, 0.12, &mut graph_rng, 200);
    let cube = generators::hypercube(6);
    let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(0.0));
    for (name, g) in [("gnp", &gnp), ("hypercube", &cube)] {
        for seed in 0..25u64 {
            let stat = run_async(
                g,
                0,
                Mode::PushPull,
                AsyncView::GlobalClock,
                &mut Xoshiro256PlusPlus::seed_from(seed),
                50_000_000,
            );
            let dynamic = run_dynamic(
                g,
                0,
                Mode::PushPull,
                &model,
                &mut Xoshiro256PlusPlus::seed_from(seed),
                50_000_000,
            );
            assert!(stat.completed, "{name} seed {seed}");
            assert_eq!(dynamic, stat, "{name} seed {seed}");
        }
    }
}

/// The dynamic-run outcome contract on **incomplete** runs, pinned beyond
/// the all-finite happy path. A budget-exhausted run must report
/// `completed = false`, `INFINITY` for every never-informed node, and
/// `time` equal to the last protocol step taken — which, by the
/// engine's draw order, makes a short run a strict prefix of a longer
/// same-seed run.
#[test]
fn budget_exhaustion_pins_the_incomplete_outcome_contract() {
    let g = generators::gnp_connected(96, 0.06, &mut Xoshiro256PlusPlus::seed_from(12), 200);
    let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0));
    let run = |max_steps| {
        let mut rng = Xoshiro256PlusPlus::seed_from(77);
        run_dynamic(&g, 0, Mode::PushPull, &model, &mut rng, max_steps)
    };
    let short = run(30);
    assert!(!short.completed);
    assert_eq!(short.steps, 30, "the engine must stop exactly at the budget");
    // `time` is the time of the last step taken: finite, positive, and
    // at least as late as every recorded informing time.
    assert!(short.time.is_finite() && short.time > 0.0);
    let last_informed =
        short.informed_time.iter().copied().filter(|t| t.is_finite()).fold(0.0, f64::max);
    assert!(
        last_informed <= short.time,
        "informed after the last step: {last_informed} > {}",
        short.time
    );
    // Never-informed nodes are INFINITY sentinels, and there are some.
    assert!(short.informed_time.iter().any(|t| t.is_infinite()));
    assert_eq!(short.informed_time[0], 0.0, "the source is informed at 0");

    // Prefix property: the same seed with a larger budget replays the
    // first 30 steps draw-for-draw, so everyone the short run informed
    // is informed at the identical instant, and the long run's last
    // step is strictly later.
    let long = run(3_000);
    for (v, (&s, &l)) in short.informed_time.iter().zip(&long.informed_time).enumerate() {
        if s.is_finite() {
            assert_eq!(s, l, "node {v} informed at a different time in the longer run");
        }
    }
    assert!(long.time > short.time, "the longer run must advance past the prefix");
}
