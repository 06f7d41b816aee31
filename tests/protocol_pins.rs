//! Seed-for-seed pins of the static protocol loops under message loss,
//! several sources and transmission tracing, in all three asynchronous
//! clock views.
//!
//! Each pin is `(value.to_bits(), steps, final_rng_word)` at seeds 11
//! and 12, in the shape of the dynamic engines' `SEQ_V2` pins
//! (`tests/replay_golden.rs`): the spreading time (rounds or time
//! units), the steps taken (rounds or contacts), and the next word of
//! the trial RNG after the run. A loss draw moved by one position, or a
//! transmission recorded out of order, changes them.
//!
//! `DYNAMIC_PINS` extends the dynamic engine's `SEQ_V2` pins to the
//! three models they leave out — random-walk edges, geometric mobility
//! and the frontier adversary — and `TOPOLOGY_TRACE_PINS` pins what
//! `TopologyTrace::record` journals for every topology model.
//!
//! The constants are part of the replay contract, like the goldens
//! under `specs/`; `print_protocol_pins` below prints them.

use rumor_spreading::core::asynchronous::run_async_probed;
use rumor_spreading::core::dynamic::{
    run_dynamic, Adversary, DynamicModel, EdgeMarkov, Mobility, NodeChurn, RandomWalk, Rewire,
    SnapshotFamily,
};
use rumor_spreading::core::engine::trace::TopologyTrace;
use rumor_spreading::core::spec::SimSpec;
use rumor_spreading::core::spread::SpreadConfig;
use rumor_spreading::core::sync::run_sync_probed;
use rumor_spreading::core::trace::Trace;
use rumor_spreading::core::{AsyncOutcome, AsyncView, Mode, NoProbe, SyncOutcome};
use rumor_spreading::graph::{generators, Graph};
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;

/// `(value.to_bits(), steps, final_rng_word)`.
type Pin = (u64, u64, u64);

/// `(event count, push count, FNV-1a of (learner, informer, at.to_bits()),
/// final_rng_word)`.
type TracePin = (usize, usize, u64, u64);

const SEEDS: [u64; 2] = [11, 12];

fn rng(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from(seed)
}

fn sync(g: &Graph, config: &SpreadConfig, rng: &mut Xoshiro256PlusPlus) -> SyncOutcome {
    run_sync_probed(g, config, rng, 1_000_000, &mut NoProbe)
}

fn global_clock(g: &Graph, config: &SpreadConfig, rng: &mut Xoshiro256PlusPlus) -> AsyncOutcome {
    run_async_probed(g, config, AsyncView::GlobalClock, rng, 100_000_000, &mut NoProbe)
}

fn sync_trace(g: &Graph, rng: &mut Xoshiro256PlusPlus) -> Trace {
    let mut trace = Trace::new();
    run_sync_probed(g, &SpreadConfig::new(0), rng, 1_000_000, &mut trace);
    trace
}

fn async_trace(g: &Graph, rng: &mut Xoshiro256PlusPlus) -> Trace {
    let mut trace = Trace::new();
    let config = SpreadConfig::new(0);
    run_async_probed(g, &config, AsyncView::GlobalClock, rng, 100_000_000, &mut trace);
    trace
}

fn random_regular() -> Graph {
    generators::random_regular_connected(96, 4, &mut rng(5), 500)
}

fn lossy(loss: f64) -> SpreadConfig {
    SpreadConfig::new(0).with_loss_probability(loss)
}

fn multi_source() -> SpreadConfig {
    SpreadConfig::new(0).with_sources(&[0, 21, 42]).with_loss_probability(0.2)
}

/// The named static runs, each over both seeds.
fn static_pins() -> Vec<(&'static str, [Pin; 2])> {
    let cube = generators::hypercube(6);
    let regular = random_regular();
    let cycle = generators::cycle(64);
    let pin = |run: &dyn Fn(&mut Xoshiro256PlusPlus) -> (f64, u64)| {
        SEEDS.map(|seed| {
            let mut r = rng(seed);
            let (value, steps) = run(&mut r);
            (value.to_bits(), steps, r.next_u64())
        })
    };
    let sync_pin = |g: &Graph, config: SpreadConfig| {
        pin(&|r| {
            let out = sync(g, &config, r);
            assert!(out.completed);
            (out.rounds as f64, out.rounds)
        })
    };
    let async_pin = |g: &Graph, config: SpreadConfig| {
        pin(&|r| {
            let out = global_clock(g, &config, r);
            assert!(out.completed);
            (out.time, out.steps)
        })
    };
    vec![
        ("sync hypercube(6) loss 0.2", sync_pin(&cube, lossy(0.2))),
        ("sync random-regular loss 0.2", sync_pin(&regular, lossy(0.2))),
        ("sync pull random-regular loss 0.2", sync_pin(&regular, lossy(0.2).with_mode(Mode::Pull))),
        ("global-clock hypercube(6) loss 0.1", async_pin(&cube, lossy(0.1))),
        ("global-clock random-regular loss 0.1", async_pin(&regular, lossy(0.1))),
        ("sync cycle(64) sources {0,21,42}", sync_pin(&cycle, multi_source())),
        ("global-clock cycle(64) sources {0,21,42}", async_pin(&cycle, multi_source())),
    ]
}

const STATIC_PINS: [[Pin; 2]; 7] = [
    // sync hypercube(6) loss 0.2
    [(0x4024000000000000, 10, 0xa09d4415e34ad190), (0x4020000000000000, 8, 0x02fd3e0a8f9ae4c1)],
    // sync random-regular loss 0.2
    [(0x402a000000000000, 13, 0x9fc715f8fcb104c0), (0x4026000000000000, 11, 0x7911549c32f342d8)],
    // sync pull random-regular loss 0.2
    [(0x4034000000000000, 20, 0xcdd1f5b99f115701), (0x4033000000000000, 19, 0x0478020361a533ef)],
    // global-clock hypercube(6) loss 0.1
    [(0x4012326c47b14b6c, 306, 0x08da593cd7d03a55), (0x401b3c81965b2664, 437, 0xcfc9f096c70e0f5c)],
    // global-clock random-regular loss 0.1
    [(0x401e9ad39d72bc67, 764, 0xe6dfe13c6ce0325c), (0x4021bd6fe54fcd6a, 818, 0xbe5d7edf820d5034)],
    // sync cycle(64) sources {0,21,42}
    [(0x4030000000000000, 16, 0x79c26150c6d7728f), (0x4031000000000000, 17, 0xd10b499e5cd7fbc5)],
    // global-clock cycle(64) sources {0,21,42}
    [(0x402aaacf477676dc, 887, 0x7a43fd8adcffd623), (0x402d8956f416310d, 931, 0x54d54968c8e1b69b)],
];

#[test]
fn static_runs_replay_their_pins() {
    for (i, (name, got)) in static_pins().into_iter().enumerate() {
        assert_eq!(got, STATIC_PINS[i], "{name}: stream drifted");
    }
}

/// The node-clock and edge-clock views, each over both seeds. The last
/// two runs stop at their step budget, after the reschedule draw of
/// the final step.
fn clock_pins() -> Vec<(&'static str, [Pin; 2])> {
    use AsyncView::{EdgeClocks, NodeClocks};
    const FULL: u64 = 100_000_000;
    let cube = generators::hypercube(6);
    let regular = random_regular();
    let cycle = generators::cycle(64);
    let star = generators::star(64);
    let complete = generators::complete(64);
    let pull = || SpreadConfig::new(0).with_mode(Mode::Pull);
    let push = || SpreadConfig::new(0).with_mode(Mode::Push);
    let pin = |g: &Graph, config: SpreadConfig, view: AsyncView, budget: u64| {
        SEEDS.map(|seed| {
            let mut r = rng(seed);
            let out = run_async_probed(g, &config, view, &mut r, budget, &mut NoProbe);
            assert_eq!(out.completed, budget == FULL, "{view}");
            (out.time.to_bits(), out.steps, r.next_u64())
        })
    };
    vec![
        ("node-clocks hypercube(6) loss 0.1", pin(&cube, lossy(0.1), NodeClocks, FULL)),
        ("edge-clocks hypercube(6) loss 0.1", pin(&cube, lossy(0.1), EdgeClocks, FULL)),
        ("node-clocks pull random-regular", pin(&regular, pull(), NodeClocks, FULL)),
        ("edge-clocks pull random-regular", pin(&regular, pull(), EdgeClocks, FULL)),
        ("node-clocks push random-regular", pin(&regular, push(), NodeClocks, FULL)),
        ("edge-clocks push random-regular", pin(&regular, push(), EdgeClocks, FULL)),
        ("node-clocks cycle(64) sources {0,21,42}", pin(&cycle, multi_source(), NodeClocks, FULL)),
        ("edge-clocks cycle(64) sources {0,21,42}", pin(&cycle, multi_source(), EdgeClocks, FULL)),
        ("node-clocks star(64)", pin(&star, SpreadConfig::new(0), NodeClocks, FULL)),
        ("edge-clocks star(64)", pin(&star, SpreadConfig::new(0), EdgeClocks, FULL)),
        ("edge-clocks complete(64)", pin(&complete, SpreadConfig::new(0), EdgeClocks, FULL)),
        ("node-clocks hypercube(6) censored at 150", pin(&cube, lossy(0.1), NodeClocks, 150)),
        ("edge-clocks hypercube(6) censored at 150", pin(&cube, lossy(0.1), EdgeClocks, 150)),
    ]
}

const CLOCK_PINS: [[Pin; 2]; 13] = [
    // node-clocks hypercube(6) loss 0.1
    [(0x4019b9e70a711236, 421, 0xc535e0d32cbdcdc9), (0x401c90b107b2a8d3, 475, 0x75df97766a7b703a)],
    // edge-clocks hypercube(6) loss 0.1
    [(0x40167939d2b54328, 381, 0x94a77e4f4d3226be), (0x401b41334c6288c6, 399, 0xdfa9eb21838e665f)],
    // node-clocks pull random-regular
    [
        (0x402d5e710136540c, 1416, 0xe77f8caf9bd38ea6),
        (0x402aa8f99b5f610c, 1283, 0x27bddf6797bf64d1),
    ],
    // edge-clocks pull random-regular
    [
        (0x402e3ba4c8e8ffee, 1423, 0xd24996611b3c431e),
        (0x4029b0019d28174e, 1212, 0x29fb79dee534359b),
    ],
    // node-clocks push random-regular
    [
        (0x40287c23a7dab1f9, 1201, 0x1054c2b4c82fa858),
        (0x402ac46be9b04213, 1293, 0x17bfdb067eea8366),
    ],
    // edge-clocks push random-regular
    [
        (0x4033e6e971d32f34, 1904, 0x63c40a7b96dccb23),
        (0x402bc6f19184255b, 1333, 0x55279b9ed4e5e85b),
    ],
    // node-clocks cycle(64) sources {0,21,42}
    [(0x402f4cdde0816c1e, 989, 0x104ccd682ff1fdfe), (0x4027ea6aaf609e8c, 799, 0x8601e4803226c607)],
    // edge-clocks cycle(64) sources {0,21,42}
    [(0x402f2a66db997bcb, 1011, 0x9dac1f3b29695224), (0x402e7c1c6e5cfb89, 977, 0x2d0be66655fbf5bf)],
    // node-clocks star(64)
    [(0x400aa3ab07649b28, 225, 0xd725100e51b95a16), (0x40159381b0ab1032, 350, 0xa4772b800aa4049f)],
    // edge-clocks star(64)
    [(0x402218c1c95456f5, 571, 0x433810c4eb51adaa), (0x4025271bb20542d5, 668, 0x306cdbd3509ab90f)],
    // edge-clocks complete(64)
    [(0x4012bf04c55d66c6, 312, 0x5e0e3135b7613246), (0x40162598c09ca7f6, 330, 0x35eaca4152182fed)],
    // node-clocks hypercube(6) censored at 150
    [(0x4001ec12fc5de792, 150, 0x7fb52b37f81b2bc8), (0x40025f426f4c7b88, 150, 0xc842d80d97132916)],
    // edge-clocks hypercube(6) censored at 150
    [(0x4002cd76db95b94e, 150, 0xcb6656ba66ba06e9), (0x40032bba9ffc9d85, 150, 0x8f288c05d4a6b1c6)],
];

#[test]
fn clock_views_replay_their_pins() {
    for (i, (name, got)) in clock_pins().into_iter().enumerate() {
        assert_eq!(got, CLOCK_PINS[i], "{name}: stream drifted");
    }
}

/// Every static loop that draws neighbours, on the complete graph at
/// sizes 2, 3, 64 and 513, each over both seeds: global-clock push-pull
/// and pull, node-clocks push-pull, sync push and push-pull, loss 0.1
/// and the sources {0, n/2}. The edge-clock view of `complete(64)` is
/// pinned in `CLOCK_PINS`.
fn complete_pins() -> Vec<(String, [Pin; 2])> {
    use AsyncView::{GlobalClock, NodeClocks};
    let mut pins = Vec::new();
    for n in [2, 3, 64, 513] {
        let g = generators::complete(n);
        let sources = SpreadConfig::new(0).with_sources(&[0, n as u32 / 2]);
        let mode = |mode| SpreadConfig::new(0).with_mode(mode);
        let run = |config: &SpreadConfig, view: Option<AsyncView>| {
            SEEDS.map(|seed| {
                let mut r = rng(seed);
                let (value, steps) = match view {
                    Some(view) => {
                        let out =
                            run_async_probed(&g, config, view, &mut r, 100_000_000, &mut NoProbe);
                        assert!(out.completed, "{view}");
                        (out.time, out.steps)
                    }
                    None => {
                        let out = sync(&g, config, &mut r);
                        assert!(out.completed);
                        (out.rounds as f64, out.rounds)
                    }
                };
                (value.to_bits(), steps, r.next_u64())
            })
        };
        let runs = [
            ("global-clock", mode(Mode::PushPull), Some(GlobalClock)),
            ("global-clock pull", mode(Mode::Pull), Some(GlobalClock)),
            ("node-clocks", mode(Mode::PushPull), Some(NodeClocks)),
            ("sync push", mode(Mode::Push), None),
            ("sync", mode(Mode::PushPull), None),
            ("global-clock loss 0.1", lossy(0.1), Some(GlobalClock)),
            ("sync loss 0.1", lossy(0.1), None),
            ("global-clock sources {0,n/2}", sources.clone(), Some(GlobalClock)),
            ("sync sources {0,n/2}", sources, None),
        ];
        for (name, config, view) in runs {
            pins.push((format!("{name} complete({n})"), run(&config, view)));
        }
    }
    pins
}

const COMPLETE_PINS: [[Pin; 2]; 36] = [
    // global-clock complete(2)
    [(0x3fef6eda23552300, 1, 0x9a6c78b8852dc00d), (0x3fdb91735ca24bc2, 1, 0x42819ba95da26e3a)],
    // global-clock pull complete(2)
    [(0x3fef6eda23552300, 1, 0x9a6c78b8852dc00d), (0x3fdb91735ca24bc2, 1, 0x42819ba95da26e3a)],
    // node-clocks complete(2)
    [(0x3ffa46e4c4deb0e5, 1, 0x9a6c78b8852dc00d), (0x3feb91735ca24bc2, 1, 0x42819ba95da26e3a)],
    // sync push complete(2)
    [(0x3ff0000000000000, 1, 0xf6d610eef4d89d39), (0x3ff0000000000000, 1, 0xaca9fa9617bc6394)],
    // sync complete(2)
    [(0x3ff0000000000000, 1, 0xf6d610eef4d89d39), (0x3ff0000000000000, 1, 0xaca9fa9617bc6394)],
    // global-clock loss 0.1 complete(2)
    [(0x3fef6eda23552300, 1, 0x432ab0518bbbcb12), (0x3fdb91735ca24bc2, 1, 0xf70898e885d5fc50)],
    // sync loss 0.1 complete(2)
    [(0x3ff0000000000000, 1, 0x9a6c78b8852dc00d), (0x3ff0000000000000, 1, 0x42819ba95da26e3a)],
    // global-clock sources {0,n/2} complete(2)
    [(0x0000000000000000, 0, 0xdc1abbcc6a694280), (0x0000000000000000, 0, 0x93d55c79001c80c3)],
    // sync sources {0,n/2} complete(2)
    [(0x0000000000000000, 0, 0xdc1abbcc6a694280), (0x0000000000000000, 0, 0x93d55c79001c80c3)],
    // global-clock complete(3)
    [(0x3ff4c3aee0844271, 5, 0xd3ba3fb60668876e), (0x3fd8cbda9c24dca1, 2, 0xa6ab4437b061ac4e)],
    // global-clock pull complete(3)
    [(0x400d3ed086241ecf, 9, 0x521abdfb79149cae), (0x3fd8cbda9c24dca1, 2, 0xa6ab4437b061ac4e)],
    // node-clocks complete(3)
    [(0x400aa3ab07649b28, 6, 0x1a28038dbcf32ae0), (0x3ff1f4ed40c01a4c, 2, 0xa6ab4437b061ac4e)],
    // sync push complete(3)
    [(0x4000000000000000, 2, 0x2156423640caf95c), (0x4000000000000000, 2, 0xa6ab4437b061ac4e)],
    // sync complete(3)
    [(0x4000000000000000, 2, 0x2156423640caf95c), (0x3ff0000000000000, 1, 0x42819ba95da26e3a)],
    // global-clock loss 0.1 complete(3)
    [(0x3ff6577111909545, 4, 0x13eb6bd97fefae1f), (0x3ff6786aeaba2909, 2, 0x998fd3a4feae1a2a)],
    // sync loss 0.1 complete(3)
    [(0x4000000000000000, 2, 0xc9f9738d5bf501fa), (0x3ff0000000000000, 1, 0x18edb934bc42e381)],
    // global-clock sources {0,n/2} complete(3)
    [(0x3fe4f4916ce36cab, 1, 0x9a6c78b8852dc00d), (0x3fd260f79316dd2c, 1, 0x42819ba95da26e3a)],
    // sync sources {0,n/2} complete(3)
    [(0x3ff0000000000000, 1, 0x9a6c78b8852dc00d), (0x3ff0000000000000, 1, 0x42819ba95da26e3a)],
    // global-clock complete(64)
    [(0x400d42af5496976f, 238, 0xef68cbf7165092b1), (0x40116bbb22b33712, 294, 0x297fdf4386c4c6a7)],
    // global-clock pull complete(64)
    [(0x402209fad99c9c96, 578, 0xf1fce5b358b5b992), (0x4020bcae71fa099c, 552, 0x1252b6b8495d2fc3)],
    // node-clocks complete(64)
    [(0x4013b9be4d9b9152, 327, 0xe8dc3e55c4bbace7), (0x400fdce1324372a8, 264, 0x2c5b995aa890193a)],
    // sync push complete(64)
    [(0x4028000000000000, 12, 0x76dab8cd98ea8333), (0x4024000000000000, 10, 0x36f604bb92ae0230)],
    // sync complete(64)
    [(0x401c000000000000, 7, 0x2a35936481f68760), (0x4018000000000000, 6, 0x2099bd0fb93aa226)],
    // global-clock loss 0.1 complete(64)
    [(0x4015b4320eaf6f5a, 358, 0xb10b702a679362e5), (0x4015cd6aa60cdc32, 335, 0x84635ca39cd9c91e)],
    // sync loss 0.1 complete(64)
    [(0x401c000000000000, 7, 0x6156084ae7ac55f0), (0x401c000000000000, 7, 0xf25f57698ecad9c8)],
    // global-clock sources {0,n/2} complete(64)
    [(0x400d42af5496976f, 238, 0xef68cbf7165092b1), (0x4009fb8899db64fe, 213, 0xf71fde9321dfca9e)],
    // sync sources {0,n/2} complete(64)
    [(0x4014000000000000, 5, 0xa47365512cadc950), (0x4014000000000000, 5, 0x300863ebbc4ddaec)],
    // global-clock complete(513)
    [
        (0x401f8a5ecfeba8bd, 4077, 0x5abbfafaf4d9a775),
        (0x401b6d9de01360c9, 3463, 0xd628f6d7ba6b0c9e),
    ],
    // global-clock pull complete(513)
    [
        (0x402cd6d686b891f0, 7341, 0x56fc78e1903b0158),
        (0x4030de201046dfbd, 8553, 0x12234822c6e40cd8),
    ],
    // node-clocks complete(513)
    [
        (0x401f9ad3572cc240, 4049, 0x95d4f7c14911f536),
        (0x401ac0d395f00555, 3377, 0xcbd6c8fccd38fdb6),
    ],
    // sync push complete(513)
    [(0x4031000000000000, 17, 0xa80bfe4b3dc42d9d), (0x402e000000000000, 15, 0x98083654dd5637da)],
    // sync complete(513)
    [(0x4020000000000000, 8, 0x9cf84ecd3d185b02), (0x4020000000000000, 8, 0xa82d17e4e6356091)],
    // global-clock loss 0.1 complete(513)
    [
        (0x4020365d562fd0bd, 4317, 0xe9cb6c038e8c582d),
        (0x4021a5249b74251d, 4525, 0x1e97cc585b9351c3),
    ],
    // sync loss 0.1 complete(513)
    [(0x4024000000000000, 10, 0x9d87a22ad20d3c0c), (0x4022000000000000, 9, 0x920e965cd83789c8)],
    // global-clock sources {0,n/2} complete(513)
    [
        (0x401bbcbb945db48b, 3557, 0x5eb844552683ae87),
        (0x401b6d9de01360c9, 3463, 0xd628f6d7ba6b0c9e),
    ],
    // sync sources {0,n/2} complete(513)
    [(0x4020000000000000, 8, 0x9cf84ecd3d185b02), (0x401c000000000000, 7, 0xbd0bb518a8dd6cbc)],
];

#[test]
fn complete_graph_runs_replay_their_pins() {
    for (i, (name, got)) in complete_pins().into_iter().enumerate() {
        assert_eq!(got, COMPLETE_PINS[i], "{name}: stream drifted");
    }
}

/// The lossy lines of the benchmark's `paper_static` workload, at fixed
/// seeds, run through the spec layer.
const LOSSY_SPECS: [&str; 4] = [
    "graph = random-regular n=1024 d=6 seed=7 attempts=200\nprotocol = sync mode=push\n\
     loss = 0.1\ntrials = 4\n",
    "graph = hypercube dim=10\nprotocol = sync mode=push-pull\nloss = 0.2\ntrials = 4\n",
    "graph = torus rows=24 cols=24\nprotocol = async mode=pull view=global-clock\n\
     loss = 0.1\ntrials = 4\n",
    "graph = gnp n=512 p=0.0243 seed=9 attempts=200\n\
     protocol = async mode=push-pull view=global-clock\nloss = 0.2\ntrials = 4\n",
];

/// Per spec and seed: `(first value bits, total steps, FNV-1a of every
/// trial's (value bits, steps))`.
fn spec_pins() -> Vec<[Pin; 2]> {
    LOSSY_SPECS
        .iter()
        .map(|text| {
            SEEDS.map(|seed| {
                let text = format!("spec = v1\n{text}seed = {seed}\n");
                let spec = SimSpec::parse(&text).expect("valid spec");
                let report = spec.build().expect("legal spec").run();
                assert_eq!(report.censored(), 0, "{text}");
                let mut h = Fnv::new();
                for o in &report.outcomes {
                    h.word(o.value.to_bits());
                    h.word(o.steps);
                }
                let steps = report.outcomes.iter().map(|o| o.steps).sum();
                (report.outcomes[0].value.to_bits(), steps, h.0)
            })
        })
        .collect()
}

const SPEC_PINS: [[Pin; 2]; 4] = [
    [(0x4038000000000000, 86, 0xe07cb24eff6f6d65), (0x403b000000000000, 97, 0x5ff1fde83136ba6d)],
    [(0x402c000000000000, 56, 0x681df2202c5e00b3), (0x402e000000000000, 60, 0x824c2434b7da9e85)],
    [
        (0x403f8e4ed91b6b6c, 90479, 0xe661cde66cff2cfe),
        (0x4043f52c3b9bac36, 87269, 0xc88f31df007b1f39),
    ],
    [
        (0x4024a319c0355fe3, 18321, 0x3939a81705b7975e),
        (0x402562cd94773483, 20367, 0x81ccb41b4fc06fa7),
    ],
];

#[test]
fn lossy_spec_lines_replay_their_pins() {
    for (i, got) in spec_pins().into_iter().enumerate() {
        assert_eq!(got, SPEC_PINS[i], "{}: stream drifted", LOSSY_SPECS[i]);
    }
}

fn trace_pins() -> Vec<(&'static str, [TracePin; 2])> {
    let g = generators::gnp_connected(48, 0.15, &mut rng(1), 100);
    let pin = |record: &dyn Fn(&mut Xoshiro256PlusPlus) -> Trace| {
        SEEDS.map(|seed| {
            let mut r = rng(seed);
            let trace = record(&mut r);
            assert!(trace.complete());
            let mut h = Fnv::new();
            for e in trace.events() {
                h.word(u64::from(e.learner));
                h.word(u64::from(e.informer));
                h.word(e.at.to_bits());
            }
            (trace.events().len(), trace.push_count(), h.0, r.next_u64())
        })
    };
    vec![
        ("sync trace", pin(&|r| sync_trace(&g, r))),
        ("global-clock trace", pin(&|r| async_trace(&g, r))),
    ]
}

const TRACE_PINS: [[TracePin; 2]; 2] = [
    // sync trace
    [
        (47, 20, 0x1561d302d92bf462, 0xb752a4efef147579),
        (47, 13, 0xc6381acbeb69e38b, 0x0c3cfe606fbb8f80),
    ],
    // global-clock trace
    [
        (47, 24, 0xe2e6037dd9bbdbeb, 0x6d80610729a3b65e),
        (47, 18, 0x2213b53226b3a1c4, 0x97404fef682538e5),
    ],
];

#[test]
fn traces_replay_their_pins() {
    for (i, (name, got)) in trace_pins().into_iter().enumerate() {
        assert_eq!(got, TRACE_PINS[i], "{name}: trace drifted");
    }
}

/// `(time.to_bits(), steps, topology_events, FNV-1a of every
/// informed_time's bits, final_rng_word)`.
type DynamicPin = (u64, u64, u64, u64, u64);

/// The step budget of a dynamic run that must complete.
const DYNAMIC_FULL: u64 = 10_000_000;

/// The dynamic models `SEQ_V2` does not cover, each with its step
/// budget: the censored adversary never heals its cuts and stops at
/// the budget.
fn dynamic_models() -> (Graph, Vec<(&'static str, DynamicModel, u64)>) {
    let g = generators::gnp_connected(96, 0.08, &mut rng(3), 100);
    let models = vec![
        ("walk rate 1", DynamicModel::RandomWalk(RandomWalk::new(1.0)), DYNAMIC_FULL),
        ("mobility dense", DynamicModel::Mobility(Mobility::new(1.0, 0.35, 0.15)), DYNAMIC_FULL),
        (
            "mobility sparse",
            DynamicModel::Mobility(Mobility::matching_density(&g, 1.0, 0.15)),
            DYNAMIC_FULL,
        ),
        ("adversary heal 1", DynamicModel::Adversary(Adversary::new(4.0, 4, 1.0)), DYNAMIC_FULL),
        (
            "adversary heal inf censored",
            DynamicModel::Adversary(Adversary::new(20.0, 8, f64::INFINITY)),
            20_000,
        ),
    ];
    (g, models)
}

fn dynamic_pins() -> Vec<(&'static str, [DynamicPin; 2])> {
    let (g, models) = dynamic_models();
    models
        .into_iter()
        .map(|(name, model, budget)| {
            let pins = SEEDS.map(|seed| {
                let mut r = rng(seed);
                let out = run_dynamic(&g, 0, Mode::PushPull, &model, &mut r, budget);
                assert_eq!(out.completed, budget == DYNAMIC_FULL, "{name}");
                let mut h = Fnv::new();
                for t in &out.informed_time {
                    h.word(t.to_bits());
                }
                (out.time.to_bits(), out.steps, out.topology_events, h.0, r.next_u64())
            });
            (name, pins)
        })
        .collect()
}

const DYNAMIC_PINS: [[DynamicPin; 2]; 5] = [
    // walk rate 1
    [
        (0x401b13fbb338b380, 635, 2851, 0xa1e840b773dad1f5, 0x3207f17153c5d479),
        (0x40152bbce14bf169, 503, 2105, 0x00e2d135e7e08715, 0x0cade102904940de),
    ],
    // mobility dense
    [
        (0x4019964812719c4d, 647, 582, 0xb8c6fb0688961cf4, 0xdf58b761675b09c2),
        (0x402141ff9d284f76, 783, 837, 0xd7b4888fde51bd13, 0x2042951839a2b9e5),
    ],
    // mobility sparse
    [
        (0x401e69b993a57d2e, 735, 687, 0x4c22c1b6295300af, 0xd33ceb57ac017f6c),
        (0x4022ce927820b606, 846, 937, 0x15ca58b7ef33018e, 0x138f9734307eadc5),
    ],
    // adversary heal 1
    [
        (0x401f72a73a95e124, 713, 152, 0xd591005b0857523c, 0xa1db0c2e47956349),
        (0x4020200970d873bb, 805, 114, 0xa693fe080f07ded9, 0x2be1b41ef457040b),
    ],
    // adversary heal inf censored
    [
        (0x4069bd18a89a3464, 20000, 4249, 0x65c465eac8e82dbd, 0x7354e5ef18ede291),
        (0x406a320b13055cd2, 20000, 4229, 0x4a7619ea089b9cf8, 0x791398c64d5f1b43),
    ],
];

#[test]
fn dynamic_models_replay_their_pins() {
    for (i, (name, got)) in dynamic_pins().into_iter().enumerate() {
        assert_eq!(got, DYNAMIC_PINS[i], "{name}: stream drifted");
    }
}

/// `(step count, FNV-1a of every step's time bits and edge and node
/// lists, final_rng_word)` of a standalone recording to horizon 8.
type TopologyTracePin = (usize, u64, u64);

fn topology_trace_pins() -> Vec<(&'static str, [TopologyTracePin; 2])> {
    let (g, models) = dynamic_models();
    // Node churn is the only model that fills the deactivated/activated
    // lists, and rewire the only one whose steps move many edges.
    let others = [
        ("markov", DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(0.5))),
        ("walk rate 1", DynamicModel::RandomWalk(RandomWalk::new(1.0))),
        ("rewire", DynamicModel::Rewire(Rewire::new(2.0, SnapshotFamily::matching_density(&g)))),
        ("node-churn", DynamicModel::NodeChurn(NodeChurn::new(0.3, 1.0, 2))),
    ];
    models
        .into_iter()
        .filter(|(name, ..)| name.starts_with("mobility") || *name == "adversary heal 1")
        .map(|(name, model, _)| (name, model))
        .chain(others)
        .map(|(name, model)| {
            let pins = SEEDS.map(|seed| {
                let mut r = rng(seed);
                let trace = TopologyTrace::record(&g, 0, model.build_state().as_mut(), &mut r, 8.0);
                let mut h = Fnv::new();
                for step in trace.steps() {
                    h.word(step.time.to_bits());
                    for list in [&step.removed, &step.added] {
                        h.word(list.len() as u64);
                        list.iter().for_each(|&(u, v)| h.word(u64::from(u) << 32 | u64::from(v)));
                    }
                    for list in [&step.deactivated, &step.activated] {
                        h.word(list.len() as u64);
                        list.iter().for_each(|&v| h.word(u64::from(v)));
                    }
                }
                (trace.len(), h.0, r.next_u64())
            });
            (name, pins)
        })
        .collect()
}

const TOPOLOGY_TRACE_PINS: [[TopologyTracePin; 2]; 7] = [
    // mobility dense
    [(769, 0xb726bcb526fecaa0, 0x8ae5628e585d0ebe), (741, 0xfa4776bd9f71dc0b, 0x02b18272c854091d)],
    // mobility sparse
    [(752, 0xec3cdf05f9391782, 0x8ae5628e585d0ebe), (713, 0xd450ac973651f50a, 0x02b18272c854091d)],
    // adversary heal 1
    [(79, 0x3f6b7d8e5b4c40b1, 0xbc4ea054e26991c4), (78, 0x24c9df7e13d30443, 0xef7e712b10f2146a)],
    // markov
    [
        (1598, 0x2959d012b3cd45bb, 0x35005f61fe4a65d2),
        (1596, 0x4e8830bd0122f1d6, 0x5952f1d85384eb8d),
    ],
    // walk rate 1
    [
        (2866, 0x2853bedf97c09e7a, 0x19a9fc6fdfbba560),
        (2767, 0x978f50db89be3cd8, 0xa216ed783ce183d1),
    ],
    // rewire
    [(4, 0xfe9c1f63d7d6c5b0, 0x7719fdcf488b59a2), (4, 0x881072ce60f29d35, 0x988c2e0c7f31ec1f)],
    // node-churn
    [(336, 0x4596cf9b54d54b98, 0x7b070413d3585099), (334, 0x115b8391530ba90d, 0x05ef1ad6d0614acf)],
];

#[test]
fn topology_traces_replay_their_pins() {
    for (i, (name, got)) in topology_trace_pins().into_iter().enumerate() {
        assert_eq!(got, TOPOLOGY_TRACE_PINS[i], "{name}: journal drifted");
    }
}

/// FNV-1a over 64-bit words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Prints the constants above (`cargo test --test protocol_pins
/// print_protocol_pins -- --ignored --nocapture`).
#[test]
#[ignore]
fn print_protocol_pins() {
    let pin = |p: &Pin| format!("(0x{:016x}, {}, 0x{:016x})", p.0, p.1, p.2);
    println!("STATIC_PINS:");
    for (name, [a, b]) in static_pins() {
        println!("    // {name}\n    [{}, {}],", pin(&a), pin(&b));
    }
    println!("CLOCK_PINS:");
    for (name, [a, b]) in clock_pins() {
        println!("    // {name}\n    [{}, {}],", pin(&a), pin(&b));
    }
    println!("COMPLETE_PINS:");
    for (name, [a, b]) in complete_pins() {
        println!("    // {name}\n    [{}, {}],", pin(&a), pin(&b));
    }
    println!("SPEC_PINS:");
    for [a, b] in spec_pins() {
        println!("    [{}, {}],", pin(&a), pin(&b));
    }
    println!("DYNAMIC_PINS:");
    for (name, pins) in dynamic_pins() {
        println!("    // {name}\n    [");
        for (time, steps, events, informed, word) in pins {
            println!(
                "        (0x{time:016x}, {steps}, {events}, 0x{informed:016x}, 0x{word:016x}),"
            );
        }
        println!("    ],");
    }
    println!("TOPOLOGY_TRACE_PINS:");
    for (name, [a, b]) in topology_trace_pins() {
        let pin = |p: &TopologyTracePin| format!("({}, 0x{:016x}, 0x{:016x})", p.0, p.1, p.2);
        println!("    // {name}\n    [{}, {}],", pin(&a), pin(&b));
    }
    println!("TRACE_PINS:");
    for (name, pins) in trace_pins() {
        println!("    // {name}\n    [");
        for (events, pushes, hash, word) in pins {
            println!("        ({events}, {pushes}, 0x{hash:016x}, 0x{word:016x}),");
        }
        println!("    ],");
    }
}
