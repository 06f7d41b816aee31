//! The spec text format: `parse(to_spec_string(spec)) == spec` over the
//! full serializable spec space, plus a rejection test for every
//! [`SpecError`] variant — the whole combination-rule surface, pinned.

// The seed-indexed generator reads naturally as `% k == 0` coin flips.
#![allow(clippy::manual_is_multiple_of)]

use proptest::prelude::*;
use rumor_spreading::core::dynamic::{
    Adversary, DynamicModel, EdgeMarkov, Mobility, NodeChurn, RandomWalk, Rewire, SnapshotFamily,
};
use rumor_spreading::core::spec::{
    Engine, GraphSpec, Protocol, SimSpec, SpecError, Topology, TrialPlan,
};
use rumor_spreading::core::{AsyncView, MetricsLevel, Mode, RngContract, TopologyTrace};
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
    let graph = match rng.next_u64() % 10 {
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
        _ => GraphSpec::Torus {
            rows: 3 + (rng.next_u64() % 8) as usize,
            cols: 3 + (rng.next_u64() % 8) as usize,
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
    let engine = match rng.next_u64() % 3 {
        0 => Engine::Sequential,
        1 => Engine::Sharded { shards: 1 + (rng.next_u64() % 16) as usize },
        _ => Engine::Lazy,
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
        // Antithetic streams only exist under v2; keep the generated
        // point inside the legal combination space.
        rng_contract: if antithetic || rng.next_u64() % 2 == 0 {
            RngContract::V2
        } else {
            RngContract::V1
        },
    };
    let loss = if rng.next_u64() % 4 == 0 { 0.999 * f(rng) } else { 0.0 };
    let metrics = [MetricsLevel::Off, MetricsLevel::Summary, MetricsLevel::Json]
        [(rng.next_u64() % 3) as usize];
    SimSpec::new(graph)
        .source((rng.next_u64() % 1_000) as u32)
        .protocol(protocol)
        .topology(topology)
        .engine(engine)
        .plan(plan)
        .loss(loss)
        .metrics(metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tentpole property: every serializable spec survives a trip
    /// through the text format bit-for-bit — graph parameters,
    /// full-precision model rates, infinities, optional budgets, the
    /// coupled/antithetic plan, everything.
    #[test]
    fn parse_inverts_to_spec_string(seed in 0u64..1_000_000) {
        let spec = spec_from_seed(seed);
        let text = spec.to_spec_string().expect("generated specs are serializable");
        let reparsed = SimSpec::parse(&text).expect("emitted specs parse");
        prop_assert_eq!(reparsed, spec, "round-trip drifted for seed {}\n{}", seed, text);
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
    ] {
        let err = SimSpec::new(graph.clone()).build().unwrap_err();
        assert!(matches!(err, SpecError::InvalidGraph(_)), "{graph:?}: {err}");
    }
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

#[test]
fn shard_counts_are_validated() {
    let sharded = |k| valid().protocol(async_pp()).engine(Engine::Sharded { shards: k });
    assert_eq!(sharded(0).build().unwrap_err(), SpecError::ZeroShards);
    assert_eq!(
        sharded(9).build().unwrap_err(),
        SpecError::ShardsExceedNodes { shards: 9, nodes: 8 }
    );
}

#[test]
fn sharded_and_lazy_need_async() {
    assert_eq!(
        valid().engine(Engine::Sharded { shards: 2 }).build().unwrap_err(),
        SpecError::ShardedNeedsAsync
    );
    assert_eq!(valid().engine(Engine::Lazy).build().unwrap_err(), SpecError::LazyNeedsAsync);
}

#[test]
fn lazy_needs_memoryless_topology() {
    let err = valid()
        .protocol(async_pp())
        .topology(Topology::Model(DynamicModel::Adversary(Adversary::new(0.5, 4, 1.0))))
        .engine(Engine::Lazy)
        .build()
        .unwrap_err();
    assert_eq!(err, SpecError::LazyNeedsMemoryless { model: "adversary".into() });
    // …but a coupled plan replays any model through the trace cursor.
    assert!(valid()
        .protocol(async_pp())
        .topology(Topology::Model(DynamicModel::Adversary(Adversary::new(0.5, 4, 1.0))))
        .engine(Engine::Lazy)
        .coupled(true)
        .build()
        .is_ok());
}

#[test]
fn sync_supports_only_static_rewire_and_trace() {
    let err = valid()
        .topology(Topology::Model(DynamicModel::RandomWalk(RandomWalk::new(1.0))))
        .build()
        .unwrap_err();
    assert_eq!(err, SpecError::SyncNeedsStaticTopology { model: "walk".into() });
}

#[test]
fn sync_rewire_needs_whole_rounds() {
    let err = valid()
        .topology(Topology::Model(DynamicModel::Rewire(Rewire::new(
            2.5,
            SnapshotFamily::Gnp { p: 0.5 },
        ))))
        .build()
        .unwrap_err();
    assert_eq!(err, SpecError::FractionalRewireRounds { period: 2.5 });
}

#[test]
fn loss_is_range_checked_and_static_sequential_only() {
    assert_eq!(valid().loss(1.0).build().unwrap_err(), SpecError::InvalidLoss { loss: 1.0 });
    assert_eq!(valid().loss(-0.1).build().unwrap_err(), SpecError::InvalidLoss { loss: -0.1 });
    let markov = Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0)));
    for (spec, with) in [
        (valid().protocol(async_pp()).topology(markov.clone()).loss(0.1), "dynamic topologies"),
        (
            valid().protocol(async_pp()).engine(Engine::Sharded { shards: 2 }).loss(0.1),
            "the sharded/lazy engines",
        ),
        (valid().protocol(async_pp()).topology(markov).coupled(true).loss(0.1), "coupled runs"),
    ] {
        assert_eq!(
            spec.build().unwrap_err(),
            SpecError::LossUnsupported { with: with.into() },
            "{with}"
        );
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

#[test]
fn v1_contract_rejects_v2_only_options() {
    // Antithetic coupling draws from streams the v1 contract never
    // defined, so pinning v1 alongside it is a contradiction, not a
    // silent fallback.
    let markov = Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0)));
    let err = valid()
        .protocol(async_pp())
        .topology(markov)
        .coupled(true)
        .antithetic(true)
        .rng_contract(RngContract::V1)
        .build()
        .unwrap_err();
    assert_eq!(err, SpecError::ContractV1Conflict { option: "antithetic" });
}

#[test]
fn contract_lines_parse_and_default_to_v1_when_absent() {
    // A `.spec` with no `rng_contract` line predates the v2 scheduler:
    // it pins the legacy streams its recorded results were drawn from.
    let absent = SimSpec::parse("spec = v1\ngraph = complete n=4\n").unwrap();
    assert_eq!(absent.plan.rng_contract, RngContract::V1);
    for (line, want) in
        [("rng_contract = v1\n", RngContract::V1), ("rng_contract = v2\n", RngContract::V2)]
    {
        let text = format!("spec = v1\ngraph = complete n=4\n{line}");
        assert_eq!(SimSpec::parse(&text).unwrap().plan.rng_contract, want, "{line}");
    }
    let err = SimSpec::parse("spec = v1\ngraph = complete n=4\nrng_contract = v3\n").unwrap_err();
    assert!(matches!(err, SpecError::Parse { .. }), "{err}");
    // New specs default to v2 and always serialize their contract.
    assert_eq!(TrialPlan::default().rng_contract, RngContract::V2);
    assert!(valid().to_spec_string().unwrap().contains("rng_contract = v2"));
}

#[test]
fn trace_topologies_must_match_the_graph() {
    let g = generators::complete(6);
    let trace = TopologyTrace::record(
        RngContract::V1,
        &g,
        0,
        DynamicModel::Static.build_state().as_mut(),
        &mut Xoshiro256PlusPlus::seed_from(1),
        10.0,
    );
    let err = valid().protocol(async_pp()).topology(Topology::Trace(trace)).build().unwrap_err();
    assert_eq!(err, SpecError::TraceNodeMismatch { trace: 6, nodes: 8 });
}

#[test]
fn non_global_views_are_rejected_on_dynamic_runs() {
    let err = valid()
        .protocol(Protocol::Async { mode: Mode::PushPull, view: AsyncView::NodeClocks })
        .topology(Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))))
        .build()
        .unwrap_err();
    assert!(matches!(err, SpecError::ViewUnsupported { view: AsyncView::NodeClocks, .. }), "{err}");
    // Static sequential runs accept all three views.
    for view in AsyncView::ALL {
        assert!(valid()
            .protocol(Protocol::Async { mode: Mode::PushPull, view })
            .trials(2)
            .build()
            .is_ok());
    }
}

#[test]
fn unserializable_specs_are_typed() {
    let g = generators::complete(4);
    let trace = TopologyTrace::record(
        RngContract::V1,
        &g,
        0,
        DynamicModel::Static.build_state().as_mut(),
        &mut Xoshiro256PlusPlus::seed_from(1),
        5.0,
    );
    let err = SimSpec::new(GraphSpec::Complete { n: 4 })
        .topology(Topology::Trace(trace))
        .to_spec_string()
        .unwrap_err();
    assert_eq!(err, SpecError::NotSerializable { what: "a recorded topology trace" });
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
        ("spec = v1\ngraph = complete n=4\nprotocol = sync mode=zigzag\n", "unknown protocol mode"),
        ("spec = v1\ngraph = complete n=4\nengine = warp\n", "unknown engine"),
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
