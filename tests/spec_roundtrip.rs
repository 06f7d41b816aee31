//! The spec text format: `parse(to_spec_string(spec)) == spec` over the
//! full serializable spec space, plus a rejection test for every
//! [`SpecError`] variant — the whole combination-rule surface, pinned.

// The seed-indexed generator reads naturally as `% k == 0` coin flips.
#![allow(clippy::manual_is_multiple_of)]

use proptest::prelude::*;
use rumor_spreading::core::dynamic::{
    run_dynamic, Adversary, DynamicModel, EdgeMarkov, Mobility, NodeChurn, RandomWalk, Rewire,
    SnapshotFamily,
};
use rumor_spreading::core::spec::{
    GraphSpec, Protocol, RunReport, SimSpec, SpecError, Topology, TrialPlan, Unit,
};
use rumor_spreading::core::{AsyncView, MetricsLevel, Mode};
use rumor_spreading::graph::generators;
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;

// ---------------------------------------------------------------------------
// Round-tripping over the legal spec space
// ---------------------------------------------------------------------------

/// A deterministic, seed-indexed point of the serializable spec space.
/// Parameters are drawn as raw `f64_unit` floats, so serialization is
/// stressed with full-precision values, not pretty decimals.
fn spec_from_seed(seed: u64) -> SimSpec {
    let rng = &mut Xoshiro256PlusPlus::seed_from(seed);
    let f = |rng: &mut Xoshiro256PlusPlus| rng.f64_unit();
    let graph = match rng.next_u64() % 17 {
        0 => GraphSpec::File(format!("graphs/g{}.txt", rng.next_u64() % 100)),
        1 => GraphSpec::Gnp {
            n: 2 + (rng.next_u64() % 100) as usize,
            p: f(rng),
            seed: rng.next_u64(),
            attempts: 1 + (rng.next_u64() % 500) as usize,
        },
        2 => GraphSpec::RandomRegular {
            n: 4 + (rng.next_u64() % 100) as usize,
            d: 1 + (rng.next_u64() % 4) as usize,
            seed: rng.next_u64(),
            attempts: 1 + (rng.next_u64() % 500) as usize,
        },
        3 => GraphSpec::Hypercube { dim: 1 + (rng.next_u64() % 12) as u32 },
        4 => GraphSpec::Complete { n: 2 + (rng.next_u64() % 64) as usize },
        5 => GraphSpec::Path { n: 2 + (rng.next_u64() % 64) as usize },
        6 => GraphSpec::Cycle { n: 3 + (rng.next_u64() % 64) as usize },
        7 => GraphSpec::Star { n: 2 + (rng.next_u64() % 64) as usize },
        8 => GraphSpec::Necklace {
            cliques: 1 + (rng.next_u64() % 8) as usize,
            size: 2 + (rng.next_u64() % 16) as usize,
        },
        9 => GraphSpec::Torus {
            rows: 3 + (rng.next_u64() % 8) as usize,
            cols: 3 + (rng.next_u64() % 8) as usize,
        },
        10 => GraphSpec::Grid {
            rows: 1 + (rng.next_u64() % 8) as usize,
            cols: 2 + (rng.next_u64() % 8) as usize,
        },
        11 => GraphSpec::BinaryTree { n: 2 + (rng.next_u64() % 64) as usize },
        12 => GraphSpec::Caterpillar {
            spine: 2 + (rng.next_u64() % 16) as usize,
            legs: (rng.next_u64() % 4) as usize,
        },
        13 => GraphSpec::DoubleStar {
            left: 1 + (rng.next_u64() % 16) as usize,
            right: 1 + (rng.next_u64() % 16) as usize,
        },
        14 => GraphSpec::Diamonds {
            k: 1 + (rng.next_u64() % 8) as usize,
            m: 1 + (rng.next_u64() % 16) as usize,
        },
        15 => GraphSpec::ChungLu {
            n: 2 + (rng.next_u64() % 100) as usize,
            beta: 2.0 + f(rng),
            avg: 8.0 * f(rng),
            seed: rng.next_u64(),
        },
        _ => GraphSpec::PreferentialAttachment {
            n: 4 + (rng.next_u64() % 100) as usize,
            m: 1 + (rng.next_u64() % 2) as usize,
            seed: rng.next_u64(),
        },
    };
    let mode = [Mode::Push, Mode::Pull, Mode::PushPull][(rng.next_u64() % 3) as usize];
    let view = AsyncView::ALL[(rng.next_u64() % 3) as usize];
    let protocol = if rng.next_u64() % 2 == 0 {
        Protocol::Sync { mode }
    } else {
        Protocol::Async { mode, view }
    };
    let topology = match rng.next_u64() % 8 {
        0 => Topology::Static,
        7 => Topology::Model(DynamicModel::Static),
        1 => Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov {
            off_rate: 4.0 * f(rng),
            on_rate: 4.0 * f(rng),
        })),
        2 => {
            let family = if rng.next_u64() % 2 == 0 {
                SnapshotFamily::Gnp { p: f(rng) }
            } else {
                SnapshotFamily::RandomRegular { d: 1 + (rng.next_u64() % 6) as usize }
            };
            let period = if rng.next_u64() % 8 == 0 { f64::INFINITY } else { 0.25 + 8.0 * f(rng) };
            Topology::Model(DynamicModel::Rewire(Rewire::new(period, family)))
        }
        3 => Topology::Model(DynamicModel::NodeChurn(NodeChurn::new(
            2.0 * f(rng),
            2.0 * f(rng),
            1 + (rng.next_u64() % 4) as usize,
        ))),
        4 => Topology::Model(DynamicModel::RandomWalk(RandomWalk::new(3.0 * f(rng)))),
        5 => Topology::Model(DynamicModel::Mobility(Mobility::new(
            2.0 * f(rng),
            0.01 + f(rng),
            0.01 + f(rng),
        ))),
        _ => {
            let heal = if rng.next_u64() % 4 == 0 { f64::INFINITY } else { 0.5 + 4.0 * f(rng) };
            Topology::Model(DynamicModel::Adversary(Adversary::new(
                2.0 * f(rng),
                1 + (rng.next_u64() % 16) as usize,
                heal,
            )))
        }
    };
    let coupled = rng.next_u64() % 2 == 0;
    let antithetic = coupled && rng.next_u64() % 2 == 0;
    let plan = TrialPlan {
        trials: 1 + (rng.next_u64() % 1_000) as usize,
        master_seed: rng.next_u64(),
        threads: 1 + (rng.next_u64() % 16) as usize,
        max_steps: (rng.next_u64() % 2 == 0).then(|| rng.next_u64() % 1_000_000_000),
        max_rounds: (rng.next_u64() % 2 == 0).then(|| rng.next_u64() % 1_000_000),
        coupled,
        horizon: (coupled && rng.next_u64() % 2 == 0).then(|| 1.0 + 200.0 * f(rng)),
        antithetic,
    };
    let loss = if rng.next_u64() % 4 == 0 { 0.999 * f(rng) } else { 0.0 };
    let metrics = [MetricsLevel::Off, MetricsLevel::Summary, MetricsLevel::Json]
        [(rng.next_u64() % 3) as usize];
    SimSpec::new(graph)
        .source((rng.next_u64() % 1_000) as u32)
        .protocol(protocol)
        .topology(topology)
        .plan(plan)
        .loss(loss)
        .metrics(metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tentpole property: every serializable spec survives a trip
    /// through the text format bit-for-bit — graph parameters,
    /// full-precision model rates, infinities, optional budgets, the
    /// coupled/antithetic plan, everything. The `engine` line always
    /// reads `sequential`; its `lazy` spelling, which artifacts of
    /// coupled plans may carry, parses to the same spec on a coupled
    /// plan and is refused on any other.
    #[test]
    fn parse_inverts_to_spec_string(seed in 0u64..1_000_000) {
        let spec = spec_from_seed(seed);
        let text = spec.to_spec_string().expect("generated specs are serializable");
        prop_assert!(text.contains("\nengine = sequential\n"), "{}", text);
        let reparsed = SimSpec::parse(&text).expect("emitted specs parse");
        prop_assert_eq!(&reparsed, &spec, "round-trip drifted for seed {}\n{}", seed, text);
        match SimSpec::parse(&text.replace("engine = sequential", "engine = lazy")) {
            Ok(lazy) => prop_assert!(spec.plan.coupled && lazy == spec, "seed {}", seed),
            Err(err) => {
                prop_assert!(!spec.plan.coupled, "seed {}: {}", seed, err);
                prop_assert!(matches!(err, SpecError::Parse { .. }), "seed {}: {}", seed, err);
            }
        }
    }

    /// Serialization is canonical: one more round trip is a fixed
    /// point, byte for byte.
    #[test]
    fn to_spec_string_is_canonical(seed in 0u64..1_000_000) {
        let spec = spec_from_seed(seed);
        let text = spec.to_spec_string().unwrap();
        let again = SimSpec::parse(&text).unwrap().to_spec_string().unwrap();
        prop_assert_eq!(text, again);
    }
}

// ---------------------------------------------------------------------------
// One rejection per SpecError variant
// ---------------------------------------------------------------------------

fn valid() -> SimSpec {
    SimSpec::new(GraphSpec::Complete { n: 8 })
}

fn async_pp() -> Protocol {
    Protocol::push_pull_async()
}

#[test]
fn missing_graph_is_rejected() {
    assert_eq!(SimSpec::parse("spec = v1\ntrials = 5\n").unwrap_err(), SpecError::MissingGraph);
}

#[test]
fn invalid_graphs_are_rejected() {
    for graph in [
        GraphSpec::Gnp { n: 1, p: 0.5, seed: 1, attempts: 100 },
        GraphSpec::Gnp { n: 10, p: 0.0, seed: 1, attempts: 100 },
        GraphSpec::RandomRegular { n: 5, d: 3, seed: 1, attempts: 100 }, // n*d odd
        GraphSpec::Hypercube { dim: 0 },
        GraphSpec::Complete { n: 1 },
        GraphSpec::Cycle { n: 2 },
        GraphSpec::Necklace { cliques: 0, size: 4 },
        GraphSpec::Torus { rows: 2, cols: 5 },
        GraphSpec::File("/definitely/not/a/real/path.txt".into()),
        GraphSpec::Grid { rows: 0, cols: 1 },
        GraphSpec::Grid { rows: 1, cols: 1 },
        GraphSpec::BinaryTree { n: 1 },
        GraphSpec::Caterpillar { spine: 1, legs: 2 },
        GraphSpec::DoubleStar { left: 0, right: 3 },
        GraphSpec::Diamonds { k: 0, m: 1 },
        GraphSpec::Diamonds { k: 1, m: 0 },
        GraphSpec::ChungLu { n: 10, beta: 1.5, avg: 2.0, seed: 1 },
        GraphSpec::ChungLu { n: 10, beta: 2.5, avg: 0.0, seed: 1 },
        GraphSpec::PreferentialAttachment { n: 5, m: 10, seed: 1 },
        GraphSpec::PreferentialAttachment { n: 5, m: 0, seed: 1 },
        // No connected sample within the attempts: far below the
        // connectivity threshold, and a 1-regular graph is a matching.
        GraphSpec::Gnp { n: 64, p: 0.01, seed: 5, attempts: 1 },
        GraphSpec::RandomRegular { n: 64, d: 1, seed: 5, attempts: 3 },
    ] {
        let err = SimSpec::new(graph.clone()).build().unwrap_err();
        assert!(matches!(err, SpecError::InvalidGraph(_)), "{graph:?}: {err}");
    }
    // A graph value with a field its family does not read, or a field
    // given twice, names the field.
    for (value, field) in [
        ("star n=3 m=7", "`m=7`"),
        ("gnp n=8 p=0.5 sede=4 seed=1 attempts=9", "`sede=4`"),
        ("complete n=4 n=5", "`n=`"),
        ("pa n=9 m=2 seed=1 seed=2", "`seed=`"),
    ] {
        match value.parse::<GraphSpec>() {
            Err(SpecError::InvalidGraph(msg)) => assert!(msg.contains(field), "{value}: {msg}"),
            other => panic!("{value}: expected InvalidGraph, got {other:?}"),
        }
    }
}

/// `K_n` keeps no adjacency rows, so a million-node complete graph
/// builds and runs in O(n) memory; its CSR would hold 10^12 entries.
#[test]
fn a_million_node_complete_graph_runs_without_its_rows() {
    let text = "spec = v1\ngraph = complete n=1000000\n\
                protocol = async mode=push-pull view=global-clock\n\
                trials = 1\nmax_steps = 10000\nseed = 1\n";
    let report = SimSpec::parse(text).unwrap().build().unwrap().run();
    assert_eq!(report.outcomes.len(), 1);
    assert_eq!(report.outcomes[0].steps, 10_000);
    assert_eq!(report.censored(), 1);
}

#[test]
fn source_out_of_range_is_rejected() {
    assert_eq!(
        valid().source(9).build().unwrap_err(),
        SpecError::SourceOutOfRange { source: 9, nodes: 8 }
    );
}

#[test]
fn zero_trials_and_threads_are_rejected() {
    assert_eq!(valid().trials(0).build().unwrap_err(), SpecError::ZeroTrials);
    assert_eq!(valid().threads(0).build().unwrap_err(), SpecError::ZeroThreads);
}

/// The text of `spec` with its engine line spelled `engine = lazy`.
fn lazy_text(spec: &SimSpec) -> String {
    spec.to_spec_string().unwrap().replace("engine = sequential", "engine = lazy")
}

/// The lazy engine is gone: an uncoupled `engine = lazy` line is a
/// parse error naming it, on every protocol and topology.
#[test]
fn uncoupled_lazy_engine_lines_are_parse_errors() {
    let adversary = Topology::Model(DynamicModel::Adversary(Adversary::new(0.5, 4, 1.0)));
    let markov = Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0)));
    let specs = [
        valid(),
        valid().protocol(async_pp()),
        valid().protocol(async_pp()).topology(markov),
        valid().protocol(async_pp()).topology(adversary),
    ];
    for spec in specs {
        let text = lazy_text(&spec);
        let line = text.lines().position(|l| l == "engine = lazy").unwrap() + 1;
        match SimSpec::parse(&text).unwrap_err() {
            SpecError::Parse { line: at, message } => {
                assert_eq!(at, line);
                assert!(message.contains("the lazy engine was removed"), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
    // The `coupled` line comes after the engine line; the check waits
    // for it, whatever the line order.
    let coupled_first = lazy_text(&valid().protocol(async_pp()).coupled(true))
        .replace("coupled = true\n", "")
        .replace("engine = lazy\n", "coupled = true\nengine = lazy\n");
    assert!(SimSpec::parse(&coupled_first).unwrap().plan.coupled);
}

/// On a coupled plan `engine = lazy` named the trace cursor, which every
/// trace replay now runs on: the line parses as `sequential` and the run
/// is unchanged.
#[test]
fn coupled_lazy_engine_lines_parse_as_sequential() {
    let spec = valid()
        .protocol(async_pp())
        .topology(Topology::Model(DynamicModel::Adversary(Adversary::new(0.5, 4, 1.0))))
        .coupled(true)
        .trials(6);
    let parsed = SimSpec::parse(&lazy_text(&spec)).unwrap();
    assert_eq!(parsed, spec);
    assert_eq!(parsed.to_spec_string().unwrap(), spec.to_spec_string().unwrap());
    assert_eq!(parsed.build().unwrap().run(), spec.build().unwrap().run());
}

/// Runs `spec` at one and at four threads and checks the reports agree.
fn run_thread_invariant(spec: SimSpec) -> RunReport {
    let one = spec.clone().threads(1).build().unwrap().run();
    let four = spec.threads(4).build().unwrap().run();
    assert_eq!(one.outcomes, four.outcomes, "results depend on the thread count");
    one
}

#[test]
fn sync_runs_on_every_model_with_a_round_budget() {
    let walk = valid()
        .topology(Topology::Model(DynamicModel::RandomWalk(RandomWalk::new(1.0))))
        .trials(12);
    // The round budget is the horizon of the recorded realization, so
    // the automatic one (sized for static graphs) is refused…
    let err = walk.clone().build().unwrap_err();
    assert_eq!(err, SpecError::SyncNeedsRoundBudget { model: "walk".into() });
    // …and an explicit one runs.
    let report = run_thread_invariant(walk.max_rounds(1_000));
    assert_eq!(report.unit, Unit::Rounds);
    assert_eq!(report.censored(), 0);
}

#[test]
fn sync_rewire_runs_with_fractional_periods() {
    let rewire = DynamicModel::Rewire(Rewire::new(2.5, SnapshotFamily::Gnp { p: 0.5 }));
    let spec = valid().topology(Topology::Model(rewire)).trials(12).max_rounds(1_000);
    let report = run_thread_invariant(spec);
    assert_eq!(report.unit, Unit::Rounds);
    assert_eq!(report.censored(), 0);
}

#[test]
fn sync_rewire_completes_and_respects_round_structure() {
    let rewire = DynamicModel::Rewire(Rewire::new(3.0, SnapshotFamily::Gnp { p: 0.15 }));
    let spec = SimSpec::new(GraphSpec::Gnp { n: 48, p: 0.15, seed: 15, attempts: 100 })
        .topology(Topology::Model(rewire))
        .trials(8)
        .seed(16)
        .max_rounds(100_000)
        .metrics(MetricsLevel::Json);
    let report = spec.build().unwrap().run();
    assert_eq!(report.censored(), 0);
    // Whole rounds, one step per round.
    for o in &report.outcomes {
        assert_eq!(o.value, o.steps as f64);
        assert!(o.value >= 1.0);
    }
    // The mean informed fraction runs from the source alone to every
    // node, and ends at the last trial's last round.
    let (_, curve) = &report.metrics.as_ref().expect("metrics captured").curves[0];
    assert_eq!(curve.points.first(), Some(&(0.0, 1.0 / 48.0)));
    let last_round = report.values().into_iter().fold(0.0, f64::max);
    assert_eq!(curve.points.last(), Some(&(last_round, 1.0)));
}

#[test]
fn loss_is_range_checked_and_uncoupled_only() {
    assert_eq!(valid().loss(1.0).build().unwrap_err(), SpecError::InvalidLoss { loss: 1.0 });
    assert_eq!(valid().loss(-0.1).build().unwrap_err(), SpecError::InvalidLoss { loss: -0.1 });
    let markov = Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0)));
    assert_eq!(
        valid()
            .protocol(async_pp())
            .topology(markov.clone())
            .coupled(true)
            .loss(0.1)
            .build()
            .unwrap_err(),
        SpecError::LossUnsupported { with: "coupled runs".into() }
    );
    // Uncoupled runs on a model carry the loss in both protocols.
    for spec in [
        valid().protocol(async_pp()).topology(markov.clone()).loss(0.1),
        valid().topology(markov).max_rounds(1_000).loss(0.1),
    ] {
        assert_eq!(spec.trials(8).build().unwrap().run().censored(), 0);
    }
}

#[test]
fn horizon_and_antithetic_are_coupled_only_and_range_checked() {
    let markov = Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0)));
    let coupled = valid().protocol(async_pp()).topology(markov);
    assert_eq!(
        coupled.clone().coupled(true).horizon(-1.0).build().unwrap_err(),
        SpecError::InvalidHorizon { horizon: -1.0 }
    );
    assert_eq!(coupled.clone().horizon(10.0).build().unwrap_err(), SpecError::HorizonNeedsCoupling);
    assert_eq!(coupled.antithetic(true).build().unwrap_err(), SpecError::AntitheticNeedsCoupling);
}

const CONTRACT_BASE: &str = "spec = v1\ngraph = complete n=4\n";

/// Asserts that `rng_contract = {value}` fails as a parse error on line 3
/// whose message contains `needle`.
fn assert_contract_parse_error(value: &str, needle: &str) {
    let err = SimSpec::parse(&format!("{CONTRACT_BASE}rng_contract = {value}\n")).unwrap_err();
    match &err {
        SpecError::Parse { line: 3, message } => assert!(message.contains(needle), "{message}"),
        other => panic!("rng_contract = {value}: expected a parse error, got {other}"),
    }
}

#[test]
fn contract_lines_parse_and_default_to_v2_when_absent() {
    // The line is optional and names the one stream there is.
    let absent = SimSpec::parse(CONTRACT_BASE).unwrap();
    assert_eq!(SimSpec::parse(&format!("{CONTRACT_BASE}rng_contract = v2\n")).unwrap(), absent);
    // Specs always serialize it.
    assert!(valid().to_spec_string().unwrap().contains("\nrng_contract = v2\n"));
    // An unknown stream is refused.
    assert_contract_parse_error("v3", "unknown rng contract");
}

#[test]
fn retired_v1_contract_is_refused_and_antithetic_is_accepted() {
    // The v1 stream is retired: its artifacts no longer replay, so a
    // spec naming it is refused instead of silently drawing v2.
    assert_contract_parse_error("v1", "retired");
    // Antithetic coupling, once refused under v1, is a plain option.
    let markov = Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0)));
    let anti = valid().protocol(async_pp()).topology(markov).coupled(true).antithetic(true);
    assert!(anti.build().is_ok());
}

#[test]
fn rewire_snapshot_degrees_are_checked_against_the_graph() {
    let rewire = |d: usize| {
        Topology::Model(DynamicModel::Rewire(Rewire::new(2.0, SnapshotFamily::RandomRegular { d })))
    };
    // n = 9: d = 3 makes n*d odd; d = 0 and d >= n have no snapshot.
    let nine = SimSpec::new(GraphSpec::Complete { n: 9 }).protocol(async_pp());
    for d in [0, 3, 9, 20] {
        let err = nine.clone().topology(rewire(d)).build().unwrap_err();
        assert!(matches!(err, SpecError::InvalidTopology(_)), "d={d}: {err}");
    }
    assert!(nine.topology(rewire(4)).trials(2).build().is_ok());
}

/// One out-of-range struct literal per model: the builder API reaches
/// `build` without a parser or constructor in between.
fn out_of_range_models() -> [DynamicModel; 7] {
    let gnp = |p| SnapshotFamily::Gnp { p };
    [
        DynamicModel::EdgeMarkov(EdgeMarkov { off_rate: -1.0, on_rate: 0.1 }),
        DynamicModel::Rewire(Rewire { period: -1.0, family: gnp(0.5) }),
        DynamicModel::Rewire(Rewire { period: 2.0, family: gnp(7.0) }),
        DynamicModel::NodeChurn(NodeChurn { leave_rate: 0.1, join_rate: 1.0, attach_degree: 0 }),
        DynamicModel::RandomWalk(RandomWalk { rate: f64::NAN }),
        DynamicModel::Mobility(Mobility { move_rate: 1.0, radius: 0.0, step: 0.1 }),
        DynamicModel::Adversary(Adversary { rate: 1.0, budget: 0, heal_after: 1.0 }),
    ]
}

#[test]
fn out_of_range_model_literals_are_rejected_by_build() {
    for model in out_of_range_models() {
        let rule = model.check().unwrap_err();
        let err =
            valid().protocol(async_pp()).topology(Topology::Model(model)).build().unwrap_err();
        assert_eq!(err, SpecError::InvalidTopology(rule), "{model:?}");
    }
}

#[test]
#[should_panic(expected = "markov rates must be finite and >= 0")]
fn an_out_of_range_model_literal_panics_in_run_dynamic() {
    let model = out_of_range_models()[0];
    let mut rng = Xoshiro256PlusPlus::seed_from(1);
    run_dynamic(&generators::complete(8), 0, Mode::PushPull, &model, &mut rng, 1_000);
}

#[test]
fn non_global_views_are_rejected_on_dynamic_runs() {
    let err = valid()
        .protocol(Protocol::Async { mode: Mode::PushPull, view: AsyncView::NodeClocks })
        .topology(Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))))
        .build()
        .unwrap_err();
    assert!(matches!(err, SpecError::ViewUnsupported { view: AsyncView::NodeClocks, .. }), "{err}");
    // Static sequential runs accept all three views, lossy or not.
    for view in AsyncView::ALL {
        for loss in [0.0, 0.3] {
            let spec = valid().protocol(Protocol::Async { mode: Mode::PushPull, view }).trials(2);
            let report = spec.loss(loss).build().unwrap().run();
            assert_eq!(report.censored(), 0, "{view} at loss {loss}");
        }
    }
}

#[test]
fn unserializable_specs_are_typed() {
    let err = SimSpec::on_graph(&generators::complete(4))
        .topology(Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))))
        .to_spec_string()
        .unwrap_err();
    assert_eq!(err, SpecError::NotSerializable { what: "a provided graph" });
}

#[test]
fn malformed_spec_texts_report_the_line() {
    for (text, needle) in [
        ("graph = complete n=4\n", "spec = v1"),
        ("spec = v2\n", "unsupported spec version"),
        ("spec = v1\nspec = v1\ngraph = complete n=4\n", "duplicate"),
        ("spec = v1\nnot a key value line\n", "key = value"),
        ("spec = v1\nfrobnicate = 7\n", "unknown key"),
        ("spec = v1\ngraph = klein-bottle n=4\n", "unknown graph family"),
        ("spec = v1\ngraph = complete\n", "needs a `n=` field"),
        ("spec = v1\ngraph = complete n=four\n", "cannot parse"),
        ("spec = v1\ngraph = complete n=4\ntopology = psychic\n", "unknown topology"),
        ("spec = v1\ngraph = complete n=4\ntopology = markov off=-1 on=1\n", "markov rates"),
        ("spec = v1\ngraph = complete n=4\ntopology = markov off=1 on=-1\n", "markov rates"),
        ("spec = v1\ngraph = complete n=4\ntopology = markov off=NaN on=1\n", "markov rates"),
        ("spec = v1\ngraph = complete n=4\ntopology = markov off=inf on=1\n", "markov rates"),
        (
            "spec = v1\ngraph = complete n=4\ntopology = rewire period=2 family=gnp p=7\n",
            "gnp p must be in (0, 1]",
        ),
        (
            "spec = v1\ngraph = complete n=4\ntopology = rewire period=2 family=gnp p=0\n",
            "gnp p must be in (0, 1]",
        ),
        ("spec = v1\ngraph = complete n=4\nprotocol = sync mode=zigzag\n", "unknown protocol mode"),
        ("spec = v1\ngraph = complete n=4\nengine = warp\n", "unknown engine"),
        (
            "spec = v1\ngraph = complete n=4\nengine = sharded shards=2\n",
            "unknown engine `sharded`",
        ),
        ("spec = v1\ngraph = complete n=4 m=7\n", "unexpected field `m=7`"),
        ("spec = v1\ngraph = complete n=4\ntopology = walk rate=1 churn=5\n", "`churn=5`"),
        ("spec = v1\ngraph = complete n=4\ntopology = walk rate=1 rate=2\n", "`rate=` twice"),
        ("spec = v1\ngraph = complete n=4\ntopology = static rate=1\n", "`rate=1`"),
        (
            "spec = v1\ngraph = complete n=4\ntopology = rewire period=2 family=gnp p=0.5 d=3\n",
            "unexpected field `d=3`",
        ),
        (
            "spec = v1\ngraph = complete n=4\nprotocol = sync mode=push view=global-clock\n",
            "`view=",
        ),
        ("spec = v1\ngraph = complete n=4\nengine = sequential shards=2\n", "`shards=2`"),
        ("spec = v1\ngraph = complete n=4\ncoupled = maybe\n", "true or false"),
        ("spec = v1\ngraph = complete n=4\nmax_steps = many\n", "cannot parse"),
        ("", "missing `spec = v1`"),
    ] {
        let err = SimSpec::parse(text).unwrap_err();
        match &err {
            SpecError::Parse { message, .. } => {
                assert!(message.contains(needle), "`{text}`: {message}")
            }
            other => panic!("`{text}`: expected a parse error, got {other}"),
        }
    }
}
