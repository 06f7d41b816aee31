//! The five workloads: seed-determined request streams of spec or sweep
//! **text**.
//!
//! Every stream is a sequence of blocks with a fixed composition (which
//! graph families, sizes, protocols and topologies, in which counts);
//! the seed shuffles each block and draws every generator and master
//! seed, except those of `serve_mixed`'s fixed pool, over which it draws
//! the traffic. Two seeds therefore ask for the same amount of work in a
//! different order on different random graphs, which keeps run-to-run
//! spread small, and each block holds one deterministic heavy class of
//! ~2.5% of its requests, so p99 falls inside that class rather than on
//! scheduler noise.

use rumor_core::obs::json::Json;

use crate::client::Transport;
use crate::rng::{SplitMix64, Zipf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperStatic,
    DynamicModels,
    CoupledTraces,
    ServeMixed,
    SweepFanout,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperStatic,
        Workload::DynamicModels,
        Workload::CoupledTraces,
        Workload::ServeMixed,
        Workload::SweepFanout,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperStatic => "paper_static",
            Workload::DynamicModels => "dynamic_models",
            Workload::CoupledTraces => "coupled_traces",
            Workload::ServeMixed => "serve_mixed",
            Workload::SweepFanout => "sweep_fanout",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn transport(self) -> Transport {
        match self {
            Workload::ServeMixed => Transport::Serve,
            Workload::SweepFanout => Transport::Sweep,
            _ => Transport::Worker,
        }
    }

    /// Requests per block; every block has the same composition.
    pub fn block_len(self) -> usize {
        match self {
            Workload::ServeMixed => 200,
            _ => 40,
        }
    }

    /// Requests in the stream: whole blocks, enough that the timed part
    /// after the warm-up holds the 1000 samples a p99 needs. A pass over
    /// it takes about 4 s on the calibration host (2-vCPU x86-64 VM).
    /// The list is the same on every commit, so a faster program
    /// finishes the same work sooner.
    pub fn stream_len(self) -> usize {
        match self {
            Workload::PaperStatic => 1120,
            Workload::ServeMixed => 16000,
            _ => 1080,
        }
    }

    /// The seed-determined request stream.
    pub fn generate(self, seed: u64, len: usize) -> Vec<Request> {
        let mut rng = SplitMix64::new(seed ^ (self as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        let mut out = Vec::with_capacity(len);
        let pool = (self == Workload::ServeMixed).then(ServePool::new);
        while out.len() < len {
            let mut block = match self {
                Workload::PaperStatic => paper_static_block(&mut rng),
                Workload::DynamicModels => dynamic_block(&mut rng),
                Workload::CoupledTraces => coupled_block(&mut rng),
                Workload::ServeMixed => pool.as_ref().expect("serve pool").block(&mut rng),
                Workload::SweepFanout => sweep_block(&mut rng),
            };
            rng.shuffle(&mut block);
            out.extend(block);
        }
        out.truncate(len);
        out
    }
}

/// What a request carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// A `.spec` run, sent as `{id, spec}`.
    Spec(String),
    /// `{id, stats: true}`.
    Stats,
    /// A sweep file for `rumor sweep`.
    Sweep(String),
}

/// The reply a request must get.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// A report in `unit` with `trials` outcomes, none censored.
    Report { unit: &'static str, trials: usize },
    /// An in-band `error` (deliberately invalid spec).
    Error,
    /// The service's cache counters.
    Counters,
    /// A fleet artifact with `children` children and `trials` trials in
    /// total, none censored.
    Fleet { children: usize, trials: usize },
}

#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The request's class within its workload (for the spans file).
    pub class: &'static str,
    pub body: Body,
    pub expect: Expect,
    /// `Some(n)`: asynchronous push–pull on the static complete graph
    /// K_n, whose spreading-time law is known exactly.
    pub law_n: Option<usize>,
}

impl Request {
    /// Trials the request asks for.
    pub fn trials(&self) -> usize {
        match self.expect {
            Expect::Report { trials, .. } | Expect::Fleet { trials, .. } => trials,
            Expect::Error | Expect::Counters => 0,
        }
    }

    /// The bytes sent: a frame body, or a sweep file.
    pub fn payload(&self, id: usize) -> Vec<u8> {
        let field = match &self.body {
            Body::Spec(text) => ("spec".to_owned(), Json::Str(text.clone())),
            Body::Stats => ("stats".to_owned(), Json::Bool(true)),
            Body::Sweep(text) => return text.clone().into_bytes(),
        };
        Json::Obj(vec![("id".to_owned(), Json::Num(id as f64)), field]).render().into_bytes()
    }
}

// ---------------------------------------------------------------------------
// Spec text
// ---------------------------------------------------------------------------

const SYNC_PUSH: &str = "sync mode=push";
const SYNC_PULL: &str = "sync mode=pull";
const SYNC_PP: &str = "sync mode=push-pull";
const GLOBAL_PUSH: &str = "async mode=push view=global-clock";
const GLOBAL_PULL: &str = "async mode=pull view=global-clock";
const GLOBAL_PP: &str = "async mode=push-pull view=global-clock";
const NODE_PUSH: &str = "async mode=push view=node-clocks";
const NODE_PULL: &str = "async mode=pull view=node-clocks";
const NODE_PP: &str = "async mode=push-pull view=node-clocks";
const EDGE_PUSH: &str = "async mode=push view=edge-clocks";
const EDGE_PULL: &str = "async mode=pull view=edge-clocks";
const EDGE_PP: &str = "async mode=push-pull view=edge-clocks";

/// One run spec, rendered in the canonical text layout with
/// `threads = 1` and `rng_contract = v2`.
struct Run {
    graph: String,
    protocol: &'static str,
    topology: String,
    engine: &'static str,
    trials: usize,
    seed: u64,
    loss: f64,
    coupled: bool,
    antithetic: bool,
}

impl Run {
    fn new(graph: String, protocol: &'static str, trials: usize, rng: &mut SplitMix64) -> Run {
        Run {
            graph,
            protocol,
            topology: "static".to_owned(),
            engine: "sequential",
            trials,
            seed: rng.next_u64(),
            loss: 0.0,
            coupled: false,
            antithetic: false,
        }
    }

    fn text(&self) -> String {
        format!(
            "spec = v1\ngraph = {}\nsource = 0\nprotocol = {}\ntopology = {}\nengine = {}\n\
             trials = {}\nseed = {}\nthreads = 1\nloss = {}\nmax_steps = auto\n\
             max_rounds = auto\ncoupled = {}\nhorizon = auto\nantithetic = {}\n\
             rng_contract = v2\nmetrics = off\n",
            self.graph,
            self.protocol,
            self.topology,
            self.engine,
            self.trials,
            self.seed,
            self.loss,
            self.coupled,
            self.antithetic
        )
    }

    fn request(self, class: &'static str) -> Request {
        let unit = if self.coupled {
            "paired"
        } else if self.protocol.starts_with("sync") {
            "rounds"
        } else {
            "time units"
        };
        Request {
            class,
            body: Body::Spec(self.text()),
            expect: Expect::Report { unit, trials: self.trials },
            law_n: None,
        }
    }
}

/// The G(n, p) edge probability of every random graph here: `2 ln n /
/// n`, twice the connectivity threshold (the Panagiotou–Speidel regime).
fn gnp_p(n: usize) -> f64 {
    2.0 * (n as f64).ln() / n as f64
}

fn gnp(n: usize, rng: &mut SplitMix64) -> String {
    format!("gnp n={n} p={} seed={} attempts=200", gnp_p(n), rng.next_u64())
}

/// The graph families of the static workload.
#[derive(Debug, Clone, Copy)]
enum G {
    Complete(usize),
    Hypercube(u32),
    Star(usize),
    Gnp(usize),
    Regular(usize, usize),
    Torus(usize, usize),
    Necklace(usize, usize),
}

impl G {
    fn text(self, rng: &mut SplitMix64) -> String {
        match self {
            G::Complete(n) => format!("complete n={n}"),
            G::Hypercube(dim) => format!("hypercube dim={dim}"),
            G::Star(n) => format!("star n={n}"),
            G::Gnp(n) => gnp(n, rng),
            G::Regular(n, d) => {
                format!("random-regular n={n} d={d} seed={} attempts=200", rng.next_u64())
            }
            G::Torus(r, c) => format!("torus rows={r} cols={c}"),
            G::Necklace(k, s) => format!("necklace cliques={k} size={s}"),
        }
    }
}

// ---------------------------------------------------------------------------
// paper_static
// ---------------------------------------------------------------------------

/// One block of the paper's experiment: 10 law-check requests
/// (asynchronous push–pull on K_n, one of them the heavy K_2048), 10
/// synchronous, 16 asynchronous and 4 lossy runs across the paper's
/// graph families. Push on a star is left out: it is a coupon collector
/// over the leaves and would dwarf every other request.
///
/// Synchronous push on the 11-cube comes twice. Sorted by round trip,
/// its two copies are the 20th and 21st of the 40, so the median falls
/// in the middle of one deterministic graph's requests instead of in the
/// gap between two kinds, where it would move with the seed's random
/// graphs.
const PAPER_STATIC: [(&str, G, &str, usize, f64); 40] = [
    ("law", G::Complete(64), GLOBAL_PP, 8, 0.0),
    ("law", G::Complete(64), NODE_PP, 8, 0.0),
    ("law", G::Complete(64), EDGE_PP, 8, 0.0),
    ("law", G::Complete(256), GLOBAL_PP, 6, 0.0),
    ("law", G::Complete(256), NODE_PP, 6, 0.0),
    ("law", G::Complete(256), GLOBAL_PP, 6, 0.0),
    ("law", G::Complete(512), GLOBAL_PP, 4, 0.0),
    ("law", G::Complete(512), NODE_PP, 4, 0.0),
    ("law", G::Complete(512), GLOBAL_PP, 4, 0.0),
    ("heavy", G::Complete(2048), GLOBAL_PP, 4, 0.0),
    ("sync", G::Hypercube(11), SYNC_PUSH, 4, 0.0),
    ("sync", G::Hypercube(11), SYNC_PUSH, 4, 0.0),
    ("sync", G::Star(1024), SYNC_PULL, 8, 0.0),
    ("sync", G::Star(2048), SYNC_PP, 8, 0.0),
    ("sync", G::Gnp(1024), SYNC_PULL, 4, 0.0),
    ("sync", G::Gnp(512), SYNC_PP, 8, 0.0),
    ("sync", G::Regular(1024, 6), SYNC_PUSH, 4, 0.0),
    ("sync", G::Torus(32, 32), SYNC_PP, 4, 0.0),
    ("sync", G::Necklace(16, 16), SYNC_PP, 4, 0.0),
    ("sync", G::Necklace(16, 32), SYNC_PULL, 2, 0.0),
    ("async", G::Hypercube(10), GLOBAL_PP, 4, 0.0),
    ("async", G::Hypercube(9), NODE_PUSH, 4, 0.0),
    ("async", G::Hypercube(9), EDGE_PULL, 4, 0.0),
    ("async", G::Hypercube(12), GLOBAL_PP, 2, 0.0),
    ("async", G::Star(1024), GLOBAL_PULL, 8, 0.0),
    ("async", G::Star(2048), NODE_PP, 4, 0.0),
    ("async", G::Gnp(1024), GLOBAL_PP, 4, 0.0),
    ("async", G::Gnp(512), NODE_PULL, 4, 0.0),
    ("async", G::Gnp(256), EDGE_PUSH, 4, 0.0),
    ("async", G::Regular(1024, 8), GLOBAL_PUSH, 4, 0.0),
    ("async", G::Regular(512, 6), NODE_PP, 4, 0.0),
    ("async", G::Torus(32, 32), GLOBAL_PP, 2, 0.0),
    ("async", G::Torus(24, 24), EDGE_PP, 2, 0.0),
    ("async", G::Torus(16, 16), NODE_PULL, 4, 0.0),
    ("async", G::Necklace(8, 16), GLOBAL_PP, 4, 0.0),
    ("async", G::Necklace(16, 32), GLOBAL_PP, 2, 0.0),
    ("lossy", G::Regular(1024, 6), SYNC_PUSH, 4, 0.1),
    ("lossy", G::Hypercube(10), SYNC_PP, 4, 0.2),
    ("lossy", G::Torus(24, 24), GLOBAL_PULL, 4, 0.1),
    ("lossy", G::Gnp(512), GLOBAL_PP, 4, 0.2),
];

fn paper_static_block(rng: &mut SplitMix64) -> Vec<Request> {
    PAPER_STATIC
        .iter()
        .map(|&(class, graph, protocol, trials, loss)| {
            let mut run = Run::new(graph.text(rng), protocol, trials, rng);
            run.loss = loss;
            let mut request = run.request(class);
            if let (G::Complete(n), 0.0) = (graph, loss) {
                if protocol.starts_with("async mode=push-pull") {
                    request.law_n = Some(n);
                }
            }
            request
        })
        .collect()
}

// ---------------------------------------------------------------------------
// dynamic_models and coupled_traces
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    Markov,
    Walk,
    Mobility,
    Rewire,
    NodeChurn,
    Adversary,
}

impl Model {
    fn name(self) -> &'static str {
        match self {
            Model::Markov => "markov",
            Model::Walk => "walk",
            Model::Mobility => "mobility",
            Model::Rewire => "rewire",
            Model::NodeChurn => "node-churn",
            Model::Adversary => "adversary",
        }
    }

    /// The model on a G(n, 2 ln n / n) base at per-edge churn volume
    /// `nu`, matched as in E22: every model changes about `m·nu` edges
    /// per unit time.
    fn topology(self, n: usize, nu: f64) -> String {
        let p = gnp_p(n);
        let mean_degree = p * (n - 1) as f64;
        match self {
            Model::Markov => format!("markov off={nu} on={nu}"),
            Model::Walk => format!("walk rate={nu}"),
            Model::Mobility => {
                let radius = (mean_degree / (std::f64::consts::PI * n as f64)).sqrt();
                format!("mobility move={} radius={radius} step=0.1", nu / 2.0)
            }
            Model::Rewire => format!("rewire period={} family=gnp p={p}", 1.0 / nu),
            // A leave removes ~d̄ edges and a join adds `attach`; nodes
            // are away a fifth of the time.
            Model::NodeChurn => format!(
                "node-churn leave={} join={} attach={}",
                nu / 2.0,
                2.0 * nu,
                (mean_degree / 2.0).round().max(1.0)
            ),
            Model::Adversary => {
                let edges = p * (n * (n - 1)) as f64 / 2.0;
                format!("adversary rate={} budget=4 heal=1", edges * nu / 8.0)
            }
        }
    }
}

/// One block of dynamic runs: 39 requests over five models at E22's
/// matched churn (nu = 1) and n in {256, 512, 1024} (2, 1 and 1
/// trials), plus the heavy class, the frontier adversary on n = 256.
fn dynamic_block(rng: &mut SplitMix64) -> Vec<Request> {
    const SIZES: [usize; 3] = [256, 512, 1024];
    let models = [
        (Model::Markov, 8),
        (Model::Walk, 8),
        (Model::Mobility, 6),
        (Model::Rewire, 9),
        (Model::NodeChurn, 8),
    ];
    let mut block = Vec::with_capacity(40);
    for (model, count) in models {
        for i in 0..count {
            let n = SIZES[i % SIZES.len()];
            let trials = if n == 256 { 2 } else { 1 };
            block.push(dynamic_run(model, n, trials, rng).request(model.name()));
        }
    }
    block.push(dynamic_run(Model::Adversary, 256, 2, rng).request("heavy"));
    block
}

fn dynamic_run(model: Model, n: usize, trials: usize, rng: &mut SplitMix64) -> Run {
    let mut run = Run::new(gnp(n, rng), GLOBAL_PP, trials, rng);
    run.topology = model.topology(n, 1.0);
    run
}

/// One block of the coupled workload, as (model, n, trials, count): 39
/// requests, then the heavy class, walk on n = 128.
const COUPLED: [(Model, usize, usize, usize); 7] = [
    (Model::Markov, 64, 2, 10),
    (Model::Markov, 128, 1, 6),
    (Model::Markov, 256, 1, 1),
    (Model::Walk, 64, 1, 5),
    (Model::Mobility, 64, 1, 5),
    (Model::Rewire, 64, 2, 6),
    (Model::Rewire, 128, 1, 6),
];

/// One block of E23-shaped coupled runs (`auto` horizon); every other
/// request replays on the lazy cursor and every fourth is antithetic.
fn coupled_block(rng: &mut SplitMix64) -> Vec<Request> {
    let mut block = Vec::with_capacity(40);
    for (model, n, trials, count) in COUPLED {
        for _ in 0..count {
            let k = block.len();
            let run = coupled_run(model, n, trials, rng);
            block.push(
                Run { engine: ["sequential", "lazy"][k % 2], antithetic: k % 4 == 3, ..run }
                    .request(model.name()),
            );
        }
    }
    block.push(coupled_run(Model::Walk, 128, 2, rng).request("heavy"));
    block
}

/// A coupled run whose topology keeps every trial well inside the
/// `auto` horizon. After the horizon the trace ends and the last
/// snapshot stays frozen, so a trial that has not finished by then and
/// is cut off there is censored. E23's own markov rates (off 0.25, on
/// 0.1) thin G(n, 2 ln n / n) to 29% of its edges and censor about one
/// trial in 60 on n = 16 and one in 1500 on n = 64; slow walks and
/// sparse mobility censor too. These rates censored none of 5000 to
/// 20000 trials at each (model, n) used here, and the slowest trial
/// finished before 40% of the horizon.
fn coupled_run(model: Model, n: usize, trials: usize, rng: &mut SplitMix64) -> Run {
    let mut run = Run::new(gnp(n, rng), GLOBAL_PP, trials, rng);
    let p = gnp_p(n);
    run.topology = match model {
        Model::Markov => "markov off=0.1 on=0.4".to_owned(),
        Model::Walk => "walk rate=0.5".to_owned(),
        Model::Mobility => {
            // Twice the base graph's mean degree.
            let radius = (2.0 * p * (n - 1) as f64 / (std::f64::consts::PI * n as f64)).sqrt();
            format!("mobility move=0.5 radius={radius} step=0.1")
        }
        Model::Rewire => format!("rewire period=4 family=gnp p={p}"),
        other => unreachable!("{other:?} is not a coupled workload model"),
    };
    run.coupled = true;
    run
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

/// Coupled specs in the Zipf pool; at 2 trials each they hold 1600
/// distinct trace keys, 1.56 × the service's 1024-trace cache.
const POOL_SPECS: usize = 800;
/// Distinct graphs behind the static requests.
const POOL_GRAPHS: usize = 200;
/// The seed of the pool itself, the same for every `--seed`.
const POOL_SEED: u64 = 0x5EED_F00D;

/// The shared request population of `serve_mixed`: the service's client
/// base. It is the same for every seed, and the seed draws the traffic
/// over it. Under Zipf(1.1) the most popular spec alone is an eighth of
/// all requests and its round trip sits at the median, so a pool drawn
/// per seed would make `req_p50_ms` measure which spec the seed happened
/// to make popular.
struct ServePool {
    coupled: Vec<String>,
    graphs: Vec<String>,
    zipf: Zipf,
}

impl ServePool {
    fn new() -> ServePool {
        let rng = &mut SplitMix64::new(POOL_SEED);
        // Small graphs keep a full trace cache near 160 MB.
        let coupled = (0..POOL_SPECS)
            .map(|k| {
                let model = if k % 2 == 0 { Model::Markov } else { Model::Rewire };
                coupled_run(model, [16, 24, 32][k % 3], 2, rng).text()
            })
            .collect();
        let graphs = (0..POOL_GRAPHS)
            .map(|k| match k % 4 {
                0 => G::Gnp(128),
                1 => G::Regular(256, 4),
                2 => G::Hypercube(7),
                _ => G::Gnp(256),
            })
            .map(|g| g.text(rng))
            .collect();
        ServePool { coupled, graphs, zipf: Zipf::new(POOL_SPECS, 1.1) }
    }

    /// 200 requests: 135 coupled specs drawn Zipf(1.1) from the pool, 5
    /// heavy coupled specs with fresh seeds (always recorded, never
    /// cached), 48 small static runs over the pool's graphs, 10 `stats`
    /// requests and 2 invalid specs.
    fn block(&self, rng: &mut SplitMix64) -> Vec<Request> {
        let mut block = Vec::with_capacity(200);
        for _ in 0..135 {
            let text = self.coupled[self.zipf.sample(rng)].clone();
            block.push(Request {
                class: "pooled",
                body: Body::Spec(text),
                expect: Expect::Report { unit: "paired", trials: 2 },
                law_n: None,
            });
        }
        for _ in 0..5 {
            block.push(coupled_run(Model::Markov, 64, 2, rng).request("heavy"));
        }
        for i in 0..48 {
            let graph = self.graphs[rng.below(POOL_GRAPHS)].clone();
            let protocol = if i % 2 == 0 { GLOBAL_PP } else { SYNC_PP };
            block.push(Run::new(graph, protocol, 4, rng).request("static"));
        }
        for _ in 0..10 {
            block.push(Request {
                class: "stats",
                body: Body::Stats,
                expect: Expect::Counters,
                law_n: None,
            });
        }
        for i in 0..2 {
            block.push(invalid_spec(i + 2 * rng.below(2), rng));
        }
        block
    }
}

/// A spec the service must answer with an in-band error: a parse error,
/// an invalid graph, or an illegal axis combination.
fn invalid_spec(kind: usize, rng: &mut SplitMix64) -> Request {
    let mut run = Run::new(G::Gnp(64).text(rng), GLOBAL_PP, 2, rng);
    let text = match kind {
        0 => format!("{}colour = blue\n", run.text()),
        1 => {
            run.graph = "gnp n=1 p=0.5 seed=1 attempts=10".to_owned();
            run.text()
        }
        2 => {
            run.protocol = SYNC_PP;
            run.topology = "markov off=1 on=1".to_owned();
            run.text()
        }
        _ => {
            run.loss = 0.1;
            run.coupled = true;
            run.text()
        }
    };
    Request { class: "invalid", body: Body::Spec(text), expect: Expect::Error, law_n: None }
}

// ---------------------------------------------------------------------------
// sweep_fanout
// ---------------------------------------------------------------------------

type Axis = (&'static str, &'static [&'static str]);

/// Two-axis grids of 4 to 12 tiny children.
const SWEEP_SHAPES: [(Axis, Axis); 7] = [
    (("graph.n", &["8", "12"]), ("protocol.mode", &["push", "push-pull"])),
    (("graph.n", &["8", "12", "16"]), ("protocol.mode", &["pull", "push-pull"])),
    (("graph.n", &["12", "16"]), ("trials", &["2", "4", "6"])),
    (("graph.n", &["8", "12", "16", "24"]), ("protocol.mode", &["push", "push-pull"])),
    (("graph.n", &["8", "16", "24"]), ("protocol.mode", &["push", "pull", "push-pull"])),
    (("graph.n", &["8", "12", "16", "24", "32"]), ("trials", &["2", "4"])),
    (("graph.n", &["8", "12", "16", "24"]), ("protocol.mode", &["push", "pull", "push-pull"])),
];

/// The heavy class: 12 children on hypercubes of dimension 7 to 10.
const HEAVY_SWEEP: (Axis, Axis) =
    (("graph.dim", &["7", "8", "9", "10"]), ("protocol.mode", &["push", "pull", "push-pull"]));

/// One block: 39 tiny grids (complete graphs, alternately asynchronous
/// and synchronous, 4 trials a child) and one heavy grid (8 trials a
/// child).
fn sweep_block(rng: &mut SplitMix64) -> Vec<Request> {
    let mut block: Vec<Request> = (0..39)
        .map(|i| {
            let protocol = if i % 2 == 0 { GLOBAL_PP } else { SYNC_PP };
            let run = Run::new(G::Complete(12).text(rng), protocol, 4, rng);
            sweep_request(&run, SWEEP_SHAPES[i % SWEEP_SHAPES.len()], "sweep")
        })
        .collect();
    let heavy = Run::new(G::Hypercube(7).text(rng), GLOBAL_PP, 8, rng);
    block.push(sweep_request(&heavy, HEAVY_SWEEP, "heavy"));
    block
}

fn sweep_request(base: &Run, axes: (Axis, Axis), class: &'static str) -> Request {
    let mut text = base.text();
    let mut children = 1;
    let mut trials_axis = None;
    for (key, values) in [axes.0, axes.1] {
        text.push_str(&format!("sweep.{key} = [{}]\n", values.join(", ")));
        children *= values.len();
        if key == "trials" {
            trials_axis = Some(values);
        }
    }
    let trials = match trials_axis {
        Some(values) => {
            let per_value = children / values.len();
            values.iter().map(|v| v.parse::<usize>().expect("numeric trials")).sum::<usize>()
                * per_value
        }
        None => children * base.trials,
    };
    Request {
        class,
        body: Body::Sweep(text),
        expect: Expect::Fleet { children, trials },
        law_n: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::{SimSpec, SweepSpec};

    fn stream_bytes(w: Workload, seed: u64) -> Vec<u8> {
        w.generate(seed, 400).iter().enumerate().flat_map(|(i, r)| r.payload(i)).collect()
    }

    #[test]
    fn a_seed_fixes_the_stream_byte_for_byte() {
        for w in Workload::ALL {
            assert_eq!(stream_bytes(w, 1), stream_bytes(w, 1), "{}", w.name());
            assert_ne!(stream_bytes(w, 1), stream_bytes(w, 2), "{}", w.name());
        }
    }

    #[test]
    fn every_generated_spec_parses_and_builds_as_expected() {
        for w in Workload::ALL {
            for r in w.generate(7, 400) {
                match (&r.body, r.expect) {
                    (Body::Spec(text), Expect::Report { unit, trials }) => {
                        let spec = SimSpec::parse(text).unwrap_or_else(|e| panic!("{e}: {text}"));
                        assert_eq!(spec.plan.trials, trials);
                        assert_eq!(spec.plan.threads, 1);
                        let coupled = spec.plan.coupled;
                        let sync = spec.protocol.is_sync();
                        let want = if coupled {
                            "paired"
                        } else if sync {
                            "rounds"
                        } else {
                            "time units"
                        };
                        assert_eq!(unit, want, "{text}");
                        spec.build().unwrap_or_else(|e| panic!("{e}: {text}"));
                    }
                    (Body::Spec(text), Expect::Error) => {
                        let built = SimSpec::parse(text).and_then(|s| s.build().map(|_| ()));
                        assert!(built.is_err(), "invalid spec accepted: {text}");
                    }
                    (Body::Sweep(text), Expect::Fleet { children, trials }) => {
                        let sweep = SweepSpec::parse(text).unwrap();
                        let expanded = sweep.expand().unwrap();
                        assert_eq!(expanded.len(), children);
                        let total: usize = expanded.iter().map(|c| c.spec.plan.trials).sum();
                        assert_eq!(total, trials, "{text}");
                    }
                    (Body::Stats, Expect::Counters) => {}
                    other => panic!("mismatched request {other:?}"),
                }
            }
        }
    }

    #[test]
    fn heavy_and_law_classes_have_their_shares() {
        let stream = Workload::PaperStatic.generate(3, 400);
        assert_eq!(stream.iter().filter(|r| r.class == "heavy").count(), 10);
        assert_eq!(stream.iter().filter(|r| r.law_n.is_some()).count(), 100);
        let serve = Workload::ServeMixed.generate(3, 400);
        assert_eq!(serve.iter().filter(|r| r.expect == Expect::Error).count(), 4);
        assert_eq!(serve.iter().filter(|r| r.expect == Expect::Counters).count(), 20);
    }

    #[test]
    fn every_seed_draws_serve_traffic_from_one_pool() {
        let pool = ServePool::new();
        for seed in [1, 2] {
            for r in Workload::ServeMixed.generate(seed, 400) {
                if let (Body::Spec(text), "pooled") = (&r.body, r.class) {
                    assert!(pool.coupled.contains(text), "seed {seed}: {text}");
                }
            }
        }
    }

    #[test]
    fn streams_are_whole_blocks_of_one_composition() {
        for w in Workload::ALL {
            assert_eq!(w.stream_len() % w.block_len(), 0, "{}", w.name());
            let stream = w.generate(1, w.block_len());
            let again = w.generate(1, 2 * w.block_len());
            // The second block has the first one's classes, reshuffled.
            let classes = |s: &[Request]| {
                let mut c: Vec<_> = s.iter().map(|r| r.class).collect();
                c.sort_unstable();
                c
            };
            assert_eq!(classes(&stream), classes(&again[w.block_len()..]), "{}", w.name());
        }
    }
}
