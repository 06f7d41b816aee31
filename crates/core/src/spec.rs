//! The unified run API: one typed builder for every experiment shape.
//!
//! Every run in this workspace is an instance of one abstract
//! experiment: a **protocol** (synchronous rounds or asynchronous
//! clocks, push/pull/push–pull) on a **topology** (static, one of the
//! dynamic evolution models, a custom [`TopologyModel`], or a recorded
//! trace) under an **engine** (sequential merged-stream, sharded PDES,
//! lazy per-edge clocks) over a **trial plan** (seeded Monte-Carlo
//! trials, optionally coupled sync/async pairs on shared traces).
//! [`SimSpec`] names those four axes once; [`SimSpec::build`] validates
//! the combination (illegal combinations are a typed [`SpecError`], not
//! a panic deep inside a run) and returns a [`Simulation`] whose
//! [`run`](Simulation::run) produces a unified [`RunReport`] —
//! per-trial outcomes with explicit censoring, paired statistics when
//! coupled, and engine telemetry.
//!
//! Specs serialize to a line-based `key = value` text format
//! ([`SimSpec::to_spec_string`] / [`SimSpec::parse`]), so any committed
//! experiment line is reproducible from a one-file artifact (the CLI's
//! `run --spec file.spec`).
//!
//! # One API, many runs
//!
//! ```
//! use rumor_core::spec::{Engine, GraphSpec, Protocol, SimSpec, Topology};
//! use rumor_core::dynamic::{DynamicModel, EdgeMarkov};
//! use rumor_core::Mode;
//!
//! // Asynchronous push–pull under symmetric edge-Markov churn on a
//! // seeded G(n, p), 40 trials on the sharded engine.
//! let spec = SimSpec::new(GraphSpec::Gnp { n: 48, p: 0.17, seed: 7, attempts: 200 })
//!     .protocol(Protocol::push_pull_async())
//!     .topology(Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))))
//!     .engine(Engine::Sharded { shards: 2 })
//!     .trials(40)
//!     .seed(11);
//! let report = spec.build().unwrap().run();
//! assert_eq!(report.outcomes.len(), 40);
//! assert_eq!(report.censored(), 0);
//!
//! // The same spec round-trips through the text format.
//! let text = spec.to_spec_string().unwrap();
//! assert_eq!(SimSpec::parse(&text).unwrap(), spec);
//! ```
//!
//! Illegal combinations fail at build time with a typed error:
//!
//! ```
//! use rumor_core::spec::{Engine, GraphSpec, SimSpec, SpecError, Topology};
//! use rumor_core::dynamic::{Adversary, DynamicModel};
//!
//! // The lazy engine needs a per-edge memoryless model; the frontier
//! // adversary couples edges to the informed state.
//! let err = SimSpec::new(GraphSpec::Complete { n: 8 })
//!     .protocol(rumor_core::spec::Protocol::push_pull_async())
//!     .topology(Topology::Model(DynamicModel::Adversary(Adversary::new(0.5, 4, 1.0))))
//!     .engine(Engine::Lazy)
//!     .build()
//!     .unwrap_err();
//! assert!(matches!(err, SpecError::LazyNeedsMemoryless { .. }));
//! ```

use std::fmt;
use std::sync::Arc;

pub mod cache;
pub mod sweep;

use rumor_graph::partition::Partition;
use rumor_graph::{generators, io, Graph, Node};
use rumor_sim::events::RngContract;
use rumor_sim::rng::Xoshiro256PlusPlus;

use crate::asynchronous::{run_async, AsyncView};
use crate::dynamic::{
    run_dynamic_with, run_sync_rewire, Adversary, DynamicModel, DynamicOutcome, EdgeMarkov,
    Mobility, NodeChurn, RandomWalk, Rewire, SequentialRun, SnapshotFamily,
};
use crate::engine::{
    run_dynamic_sharded_with, run_edge_markov_lazy, run_sync_dynamic, run_trace_lazy,
    ShardedOutcome, TopologyModel, TopologyTrace,
};
use crate::mode::Mode;
use crate::obs::{
    CensorDump, CurveSummary, LogHistogram, MetricsLevel, NoProbe, Probe, ProbeEvent, RingProbe,
    RunMetrics, SpreadingCurve,
};
use crate::outcome::{AsyncOutcome, SyncOutcome};
use crate::runner::{default_max_steps, run_trials_parallel};
use crate::spread::{run_async_config, run_sync_config, SpreadConfig};
use crate::sync::run_sync;

/// Per-trial curves are downsampled to this many samples before
/// aggregation, bounding memory on long runs.
const CURVE_SAMPLES: usize = 256;

/// Aggregated mean curves live on a uniform grid of this many intervals.
const CURVE_GRID: usize = 64;

/// Events retained by the censor ring probe on sequential dynamic
/// trials.
const RING_CAP: usize = 32;

/// At most this many censored trials dump their rings into the metrics.
const MAX_CENSOR_DUMPS: usize = 4;

/// The protocol axis: timing model × exchange mode (× clock view for
/// the asynchronous timing model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Synchronous simultaneous rounds.
    Sync {
        /// Push, pull, or push–pull exchanges.
        mode: Mode,
    },
    /// Asynchronous Poisson clocks.
    Async {
        /// Push, pull, or push–pull exchanges.
        mode: Mode,
        /// Which of the three equivalent clock views drives the run
        /// (static sequential runs only; every dynamic engine is
        /// written in the global-clock view).
        view: AsyncView,
    },
}

impl Protocol {
    /// Synchronous push–pull, the paper's headline protocol.
    pub fn push_pull_sync() -> Self {
        Protocol::Sync { mode: Mode::PushPull }
    }

    /// Asynchronous push–pull in the global-clock view.
    pub fn push_pull_async() -> Self {
        Protocol::Async { mode: Mode::PushPull, view: AsyncView::GlobalClock }
    }

    /// The exchange mode, common to both timing models.
    pub fn mode(&self) -> Mode {
        match *self {
            Protocol::Sync { mode } | Protocol::Async { mode, .. } => mode,
        }
    }

    /// Whether this is the synchronous timing model.
    pub fn is_sync(&self) -> bool {
        matches!(self, Protocol::Sync { .. })
    }
}

/// Builds a fresh per-trial [`TopologyModel`] state — the hook through
/// which model implementations *outside* the [`DynamicModel`] enum plug
/// into every engine (the ROADMAP's "custom models through the runner
/// helpers" follow-up).
pub trait TopologyModelFactory: Send + Sync {
    /// Builds one trial's model state for base graph `g`.
    fn build(&self, g: &Graph) -> Box<dyn TopologyModel>;

    /// Mirrors [`TopologyModel::memoryless_edge_rates`]: `Some` makes
    /// the factory eligible for the lazy engine.
    fn memoryless_edge_rates(&self) -> Option<(f64, f64)> {
        None
    }

    /// Short display label (used in errors and reports).
    fn label(&self) -> String;
}

/// Every [`DynamicModel`] is trivially its own factory.
impl TopologyModelFactory for DynamicModel {
    fn build(&self, _g: &Graph) -> Box<dyn TopologyModel> {
        self.build_state()
    }

    fn memoryless_edge_rates(&self) -> Option<(f64, f64)> {
        DynamicModel::memoryless_edge_rates(self)
    }

    fn label(&self) -> String {
        model_label(self).to_owned()
    }
}

/// The topology axis: what the protocol spreads over.
#[derive(Clone)]
pub enum Topology {
    /// The base graph, frozen.
    Static,
    /// One of the built-in evolution models.
    Model(DynamicModel),
    /// A user-supplied model factory (fresh state per trial). Not
    /// serializable; two `Custom` topologies compare equal only if they
    /// share the same factory allocation.
    Custom(Arc<dyn TopologyModelFactory>),
    /// Deterministic replay of one recorded topology realization. Not
    /// serializable.
    Trace(TopologyTrace),
}

impl Topology {
    /// Wraps a custom model factory.
    pub fn custom<F: TopologyModelFactory + 'static>(factory: F) -> Self {
        Topology::Custom(Arc::new(factory))
    }

    /// Whether the topology evolves during a run.
    pub fn is_static(&self) -> bool {
        matches!(self, Topology::Static)
    }

    /// The per-edge memoryless `(off_rate, on_rate)` chain rates, if
    /// the topology qualifies for the lazy engine.
    pub fn memoryless_edge_rates(&self) -> Option<(f64, f64)> {
        match self {
            Topology::Static => Some((0.0, 0.0)),
            Topology::Model(m) => m.memoryless_edge_rates(),
            Topology::Custom(f) => f.memoryless_edge_rates(),
            // A recorded trace is deterministic; the trace cursor
            // replays it lazily regardless of the source model.
            Topology::Trace(_) => None,
        }
    }

    /// Display label (used in errors and CLI headers).
    pub fn label(&self) -> String {
        match self {
            Topology::Static => "static".to_owned(),
            Topology::Model(m) => model_label(m).to_owned(),
            Topology::Custom(f) => format!("custom:{}", f.label()),
            Topology::Trace(_) => "trace".to_owned(),
        }
    }
}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::Static => write!(f, "Static"),
            Topology::Model(m) => write!(f, "Model({m:?})"),
            Topology::Custom(c) => write!(f, "Custom({})", c.label()),
            Topology::Trace(t) => {
                write!(f, "Trace({} nodes, {} steps)", t.node_count(), t.len())
            }
        }
    }
}

impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Topology::Static, Topology::Static) => true,
            (Topology::Model(a), Topology::Model(b)) => a == b,
            (Topology::Custom(a), Topology::Custom(b)) => Arc::ptr_eq(a, b),
            (Topology::Trace(a), Topology::Trace(b)) => a == b,
            _ => false,
        }
    }
}

/// The canonical short name of a built-in model (stable across the
/// CLI, the spec text format, and experiment tables).
pub fn model_label(model: &DynamicModel) -> &'static str {
    match model {
        DynamicModel::Static => "static",
        DynamicModel::EdgeMarkov(_) => "edge-markov",
        DynamicModel::Rewire(_) => "rewire",
        DynamicModel::NodeChurn(_) => "node-churn",
        DynamicModel::RandomWalk(_) => "walk",
        DynamicModel::Mobility(_) => "mobility",
        DynamicModel::Adversary(_) => "adversary",
    }
}

/// The engine axis: which machinery executes one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The sequential merged-stream engine.
    Sequential,
    /// The conservative-lookahead sharded PDES engine (one trial spread
    /// across `shards` worker threads; `shards == 1` replays the
    /// sequential engine seed-for-seed).
    Sharded {
        /// Shard count.
        shards: usize,
    },
    /// The lazy per-edge-clock engine (per-edge memoryless models) or
    /// the queue-free trace cursor (trace replay / coupled runs).
    Lazy,
}

/// The trial-plan axis: how many seeded trials, on how many threads,
/// under which budgets, and whether sync/async runs are coupled over
/// shared traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialPlan {
    /// Independent Monte-Carlo trials.
    pub trials: usize,
    /// Master seed; trial `i` uses the `i`-th seed of a `SeedStream`.
    pub master_seed: u64,
    /// Worker threads for trial fan-out (identical output for any
    /// thread count).
    pub threads: usize,
    /// Asynchronous step budget; `None` picks a generous default from
    /// the graph at build time.
    pub max_steps: Option<u64>,
    /// Synchronous round budget; `None` picks a generous default.
    pub max_rounds: Option<u64>,
    /// Run BOTH protocols per trial over one shared topology trace with
    /// a common protocol seed, reporting paired outcomes.
    pub coupled: bool,
    /// Trace-recording horizon for coupled runs; `None` picks
    /// [`default_coupled_horizon`].
    pub horizon: Option<f64>,
    /// Coupled runs only: run each protocol twice per trace, once on
    /// the trial's protocol seed and once on its antithetic partner
    /// seed, and report the pair averages — protocol-clock noise is
    /// halved while the trace realization is reused.
    pub antithetic: bool,
    /// Which versioned RNG stream the run's engines draw: `V1` pins the
    /// eager per-event legacy path (what every pre-v2 golden and
    /// committed artifact records — a `.spec` without an
    /// `rng_contract` line parses as `V1`), `V2` — the default for new
    /// specs — the superposition scheduler.
    pub rng_contract: RngContract,
}

impl Default for TrialPlan {
    fn default() -> Self {
        Self {
            trials: 100,
            master_seed: 42,
            threads: 1,
            max_steps: None,
            max_rounds: None,
            coupled: false,
            horizon: None,
            antithetic: false,
            rng_contract: RngContract::V2,
        }
    }
}

/// How the base graph of a run is obtained. Everything except
/// `Provided` serializes into the spec text format, so generator-drawn
/// experiment graphs are reproducible from the artifact alone.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    /// An externally built graph (not serializable).
    Provided(Graph),
    /// An edge-list file, read at build time.
    File(String),
    /// `gnp_connected(n, p, seed, attempts)`.
    Gnp {
        /// Node count.
        n: usize,
        /// Edge probability.
        p: f64,
        /// Generator seed.
        seed: u64,
        /// Redraw attempts until connected.
        attempts: usize,
    },
    /// `random_regular_connected(n, d, seed, attempts)`.
    RandomRegular {
        /// Node count.
        n: usize,
        /// Degree.
        d: usize,
        /// Generator seed.
        seed: u64,
        /// Redraw attempts until connected.
        attempts: usize,
    },
    /// The `dim`-dimensional hypercube.
    Hypercube {
        /// Dimension.
        dim: u32,
    },
    /// The complete graph on `n` nodes.
    Complete {
        /// Node count.
        n: usize,
    },
    /// The path on `n` nodes.
    Path {
        /// Node count.
        n: usize,
    },
    /// The cycle on `n` nodes.
    Cycle {
        /// Node count.
        n: usize,
    },
    /// The star on `n` nodes (center 0).
    Star {
        /// Node count.
        n: usize,
    },
    /// A necklace of `cliques` cliques of `size` nodes each.
    Necklace {
        /// Clique count.
        cliques: usize,
        /// Clique size.
        size: usize,
    },
    /// The `rows × cols` torus.
    Torus {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
}

impl GraphSpec {
    /// Builds (or reads) the graph this spec describes.
    pub fn resolve(&self) -> Result<Graph, SpecError> {
        let invalid = |msg: String| SpecError::InvalidGraph(msg);
        match self {
            GraphSpec::Provided(g) => Ok(g.clone()),
            GraphSpec::File(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| invalid(format!("cannot read `{path}`: {e}")))?;
                io::from_edge_list(&text).map_err(|e| invalid(format!("bad edge list: {e}")))
            }
            GraphSpec::Gnp { n, p, seed, attempts } => {
                if *n < 2 || !(*p > 0.0 && *p <= 1.0) || *attempts == 0 {
                    return Err(invalid(format!("gnp needs n >= 2, p in (0, 1], attempts > 0 (got n={n}, p={p}, attempts={attempts})")));
                }
                let mut rng = Xoshiro256PlusPlus::seed_from(*seed);
                Ok(generators::gnp_connected(*n, *p, &mut rng, *attempts))
            }
            GraphSpec::RandomRegular { n, d, seed, attempts } => {
                if *n < 2 || *d == 0 || *d >= *n || n * d % 2 != 0 || *attempts == 0 {
                    return Err(invalid(format!(
                        "random-regular needs 0 < d < n, n*d even, attempts > 0 (got n={n}, d={d})"
                    )));
                }
                let mut rng = Xoshiro256PlusPlus::seed_from(*seed);
                Ok(generators::random_regular_connected(*n, *d, &mut rng, *attempts))
            }
            GraphSpec::Hypercube { dim } => {
                if *dim == 0 || *dim > 24 {
                    return Err(invalid(format!("hypercube dim {dim} out of range [1, 24]")));
                }
                Ok(generators::hypercube(*dim))
            }
            GraphSpec::Complete { n } => sized(*n, generators::complete),
            GraphSpec::Path { n } => sized(*n, generators::path),
            GraphSpec::Cycle { n } => {
                if *n < 3 {
                    return Err(invalid(format!("cycle needs n >= 3, got {n}")));
                }
                Ok(generators::cycle(*n))
            }
            GraphSpec::Star { n } => sized(*n, generators::star),
            GraphSpec::Necklace { cliques, size } => {
                if *cliques == 0 || *size < 2 {
                    return Err(invalid(format!(
                        "necklace needs cliques > 0 and size >= 2 (got {cliques}x{size})"
                    )));
                }
                Ok(generators::necklace_of_cliques(*cliques, *size))
            }
            GraphSpec::Torus { rows, cols } => {
                if *rows < 3 || *cols < 3 {
                    return Err(invalid(format!("torus needs rows, cols >= 3, got {rows}x{cols}")));
                }
                Ok(generators::torus(*rows, *cols))
            }
        }
    }
}

fn sized(n: usize, gen: impl Fn(usize) -> Graph) -> Result<Graph, SpecError> {
    if n < 2 {
        return Err(SpecError::InvalidGraph(format!("graph needs n >= 2, got {n}")));
    }
    Ok(gen(n))
}

/// Everything that can be wrong with a [`SimSpec`] — the one place the
/// legal combination rules live (the checks previously scattered over
/// the CLI and the runner helpers).
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A spec text had no `graph = …` line.
    MissingGraph,
    /// Graph parameters are invalid or the file is unreadable.
    InvalidGraph(String),
    /// The source vertex is not in the graph.
    SourceOutOfRange {
        /// Requested source.
        source: Node,
        /// Node count of the resolved graph.
        nodes: usize,
    },
    /// `trials == 0`.
    ZeroTrials,
    /// `threads == 0`.
    ZeroThreads,
    /// `Engine::Sharded { shards: 0 }`.
    ZeroShards,
    /// More shards than nodes.
    ShardsExceedNodes {
        /// Requested shard count.
        shards: usize,
        /// Node count of the resolved graph.
        nodes: usize,
    },
    /// The sharded engine only runs asynchronous (or coupled) trials.
    ShardedNeedsAsync,
    /// The lazy engine only runs asynchronous (or coupled) trials.
    LazyNeedsAsync,
    /// The lazy engine needs a per-edge memoryless topology.
    LazyNeedsMemoryless {
        /// Label of the offending topology.
        model: String,
    },
    /// The synchronous protocol supports only static topologies,
    /// integer-period rewiring, and trace replay.
    SyncNeedsStaticTopology {
        /// Label of the offending topology.
        model: String,
    },
    /// Synchronous rewiring needs an integer period (whole rounds).
    FractionalRewireRounds {
        /// The offending period.
        period: f64,
    },
    /// Loss probability outside `[0, 1)`.
    InvalidLoss {
        /// The offending value.
        loss: f64,
    },
    /// Message loss is only modelled on static sequential runs.
    LossUnsupported {
        /// What the loss probability collided with.
        with: String,
    },
    /// Coupled horizon must be positive and finite.
    InvalidHorizon {
        /// The offending value.
        horizon: f64,
    },
    /// A horizon is only meaningful for coupled runs.
    HorizonNeedsCoupling,
    /// Antithetic pairing is only defined for coupled runs.
    AntitheticNeedsCoupling,
    /// An option that is only defined under the v2 RNG contract was
    /// combined with `rng_contract = v1` (the pinned legacy streams
    /// predate it; accepting the combination would silently diverge
    /// from every v1 golden).
    ContractV1Conflict {
        /// The v2-only option.
        option: &'static str,
    },
    /// A trace topology whose node count differs from the graph's.
    TraceNodeMismatch {
        /// Node count of the recorded trace.
        trace: usize,
        /// Node count of the resolved graph.
        nodes: usize,
    },
    /// The requested clock view is not available on this run shape.
    ViewUnsupported {
        /// The requested view.
        view: AsyncView,
        /// Why it is unavailable.
        why: &'static str,
    },
    /// The spec contains a component with no text representation
    /// (provided graphs, custom factories, recorded traces).
    NotSerializable {
        /// Which component.
        what: &'static str,
    },
    /// A spec text line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A `sweep.<key> = [...]` axis line is malformed (bad list syntax,
    /// empty or illegal values, duplicate key).
    SweepAxis {
        /// 1-based line number (0 for axes built programmatically).
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A sweep axis targets a key that names no line or field of the
    /// base spec (e.g. `graph.p` on a `complete` graph).
    SweepUnknownKey {
        /// The offending axis key.
        key: String,
    },
    /// A sweep grid point produced an invalid child spec; `point` names
    /// the offending axis assignment.
    SweepPoint {
        /// The grid point, e.g. `graph.n=32 trials=20`.
        point: String,
        /// What was wrong with the child spec.
        error: Box<SpecError>,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::MissingGraph => write!(f, "spec has no `graph = ...` line"),
            SpecError::InvalidGraph(msg) => write!(f, "invalid graph spec: {msg}"),
            SpecError::SourceOutOfRange { source, nodes } => {
                write!(f, "source {source} out of range for {nodes} nodes")
            }
            SpecError::ZeroTrials => write!(f, "trials must be positive"),
            SpecError::ZeroThreads => write!(f, "threads must be positive"),
            SpecError::ZeroShards => write!(f, "shards must be positive"),
            SpecError::ShardsExceedNodes { shards, nodes } => {
                write!(f, "shards {shards} exceeds the node count {nodes}")
            }
            SpecError::ShardedNeedsAsync => {
                write!(f, "the sharded engine requires an asynchronous protocol or a coupled plan")
            }
            SpecError::LazyNeedsAsync => {
                write!(f, "the lazy engine requires an asynchronous protocol or a coupled plan")
            }
            SpecError::LazyNeedsMemoryless { model } => write!(
                f,
                "the lazy engine requires a per-edge memoryless topology (static or markov); \
                 `{model}` couples edges across the graph or to the informed state (no \
                 memoryless edge rates); use the sequential engine, or a coupled plan to \
                 replay a recorded trace lazily"
            ),
            SpecError::SyncNeedsStaticTopology { model } => write!(
                f,
                "the synchronous protocol supports only static topologies, integer-period \
                 rewiring, and trace replay; `{model}` requires an asynchronous protocol or \
                 a coupled plan"
            ),
            SpecError::FractionalRewireRounds { period } => {
                write!(f, "synchronous rewiring needs a whole number of rounds, got {period}")
            }
            SpecError::InvalidLoss { loss } => write!(f, "loss must be in [0, 1), got {loss}"),
            SpecError::LossUnsupported { with } => {
                write!(f, "loss is not supported with {with}")
            }
            SpecError::InvalidHorizon { horizon } => {
                write!(f, "horizon must be positive and finite, got {horizon}")
            }
            SpecError::HorizonNeedsCoupling => {
                write!(f, "a horizon is only meaningful for coupled runs")
            }
            SpecError::AntitheticNeedsCoupling => {
                write!(f, "antithetic pairing is only defined for coupled runs")
            }
            SpecError::ContractV1Conflict { option } => {
                write!(
                    f,
                    "`{option}` is only defined under the v2 RNG contract; the v1 legacy \
                     streams predate it (drop `rng_contract = v1` or `{option}`)"
                )
            }
            SpecError::TraceNodeMismatch { trace, nodes } => {
                write!(f, "trace records {trace} nodes but the graph has {nodes}")
            }
            SpecError::ViewUnsupported { view, why } => {
                write!(f, "the {view} view is unavailable here: {why}")
            }
            SpecError::NotSerializable { what } => {
                write!(f, "{what} has no spec text representation")
            }
            SpecError::Parse { line, message } => write!(f, "spec line {line}: {message}"),
            SpecError::SweepAxis { line, message } => {
                write!(f, "sweep line {line}: {message}")
            }
            SpecError::SweepUnknownKey { key } => {
                write!(f, "sweep axis `{key}` names no line or field of the base spec")
            }
            SpecError::SweepPoint { point, error } => {
                write!(f, "sweep point [{point}]: {error}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Generous default synchronous round budget for graph `g`.
pub fn default_sync_rounds(g: &Graph) -> u64 {
    1_000 * g.node_count() as u64 + 10_000
}

/// Default trace-recording horizon for coupled runs on `n` nodes: far
/// beyond the expected spreading time of every model in this workspace
/// (E23's regime).
pub fn default_coupled_horizon(n: usize) -> f64 {
    24.0 * (n as f64).ln()
}

/// Default asynchronous step budget for coupled runs on `n` nodes
/// (shared between E23 and the CLI's `--coupled`).
pub fn default_coupled_max_steps(n: usize) -> u64 {
    4_000 * n as u64
}

/// Default synchronous round budget for coupled runs.
pub const DEFAULT_COUPLED_MAX_ROUNDS: u64 = 20_000;

/// A complete, possibly-invalid description of one run. Build it with
/// the fluent methods, then [`build`](SimSpec::build) to validate.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// How the base graph is obtained.
    pub graph: GraphSpec,
    /// Source vertex.
    pub source: Node,
    /// The protocol axis.
    pub protocol: Protocol,
    /// The topology axis.
    pub topology: Topology,
    /// The engine axis.
    pub engine: Engine,
    /// The trial-plan axis.
    pub plan: TrialPlan,
    /// Per-exchange message-loss probability (static sequential runs
    /// only).
    pub loss: f64,
    /// How much observability the run records (off by default; probes
    /// compile out of the hot loops when off).
    pub metrics: MetricsLevel,
}

impl SimSpec {
    /// A spec with the given graph and every other axis at its default:
    /// synchronous push–pull, static topology, sequential engine, 100
    /// trials at seed 42 on one thread, no loss, metrics off.
    pub fn new(graph: GraphSpec) -> Self {
        Self {
            graph,
            source: 0,
            protocol: Protocol::push_pull_sync(),
            topology: Topology::Static,
            engine: Engine::Sequential,
            plan: TrialPlan::default(),
            loss: 0.0,
            metrics: MetricsLevel::Off,
        }
    }

    /// A spec over an externally built graph.
    pub fn on_graph(g: &Graph) -> Self {
        Self::new(GraphSpec::Provided(g.clone()))
    }

    /// Sets the source vertex.
    pub fn source(mut self, source: Node) -> Self {
        self.source = source;
        self
    }

    /// Sets the protocol.
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the topology.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Replaces the whole trial plan.
    pub fn plan(mut self, plan: TrialPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Sets the trial count.
    pub fn trials(mut self, trials: usize) -> Self {
        self.plan.trials = trials;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, master_seed: u64) -> Self {
        self.plan.master_seed = master_seed;
        self
    }

    /// Sets the worker-thread count for trial fan-out.
    pub fn threads(mut self, threads: usize) -> Self {
        self.plan.threads = threads;
        self
    }

    /// Sets the asynchronous step budget.
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.plan.max_steps = Some(max_steps);
        self
    }

    /// Sets the synchronous round budget.
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.plan.max_rounds = Some(max_rounds);
        self
    }

    /// Enables (or disables) coupled sync/async trials.
    pub fn coupled(mut self, coupled: bool) -> Self {
        self.plan.coupled = coupled;
        self
    }

    /// Sets the coupled trace-recording horizon.
    pub fn horizon(mut self, horizon: f64) -> Self {
        self.plan.horizon = Some(horizon);
        self
    }

    /// Enables antithetic protocol-seed pairing on coupled runs.
    pub fn antithetic(mut self, antithetic: bool) -> Self {
        self.plan.antithetic = antithetic;
        self
    }

    /// Pins the versioned RNG contract (defaults to
    /// [`RngContract::V2`]; `V1` replays the pre-superposition streams
    /// bit-for-bit).
    pub fn rng_contract(mut self, contract: RngContract) -> Self {
        self.plan.rng_contract = contract;
        self
    }

    /// Sets the per-exchange message-loss probability.
    pub fn loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the observability level (see [`MetricsLevel`]).
    pub fn metrics(mut self, metrics: MetricsLevel) -> Self {
        self.metrics = metrics;
        self
    }

    /// Validates the spec and resolves the graph, returning a runnable
    /// [`Simulation`].
    ///
    /// # Errors
    ///
    /// Every illegal combination maps to one [`SpecError`] variant; see
    /// the enum docs.
    pub fn build(&self) -> Result<Simulation, SpecError> {
        self.build_inner(None)
    }

    /// Like [`build`](Self::build), but resolves the graph through — and
    /// binds coupled trace recording to — the given cross-run caches
    /// (the `rumor serve` path). Runs from a cached simulation report
    /// cache hit/miss counters in their metrics when metrics are
    /// enabled; results are otherwise identical to an uncached build.
    ///
    /// # Errors
    ///
    /// Same as [`build`](Self::build).
    pub fn build_cached(&self, caches: &Arc<cache::RunCaches>) -> Result<Simulation, SpecError> {
        self.build_inner(Some(caches))
    }

    fn build_inner(&self, caches: Option<&Arc<cache::RunCaches>>) -> Result<Simulation, SpecError> {
        // Taken before the build consults the caches, so the metrics
        // deltas include the graph-resolution hit or miss.
        let counter_baseline = caches.map(|c| c.counters());
        let plan = &self.plan;
        if plan.trials == 0 {
            return Err(SpecError::ZeroTrials);
        }
        if plan.threads == 0 {
            return Err(SpecError::ZeroThreads);
        }
        if !(0.0..1.0).contains(&self.loss) {
            return Err(SpecError::InvalidLoss { loss: self.loss });
        }
        if !plan.coupled {
            if plan.horizon.is_some() {
                return Err(SpecError::HorizonNeedsCoupling);
            }
            if plan.antithetic {
                return Err(SpecError::AntitheticNeedsCoupling);
            }
        }
        if plan.rng_contract == RngContract::V1 && plan.antithetic {
            // Antithetic pairing is pinned as a v2-path feature: no v1
            // golden records it, and accepting it would silently fork
            // the legacy streams.
            return Err(SpecError::ContractV1Conflict { option: "antithetic" });
        }
        if let Some(h) = plan.horizon {
            if !(h > 0.0 && h.is_finite()) {
                return Err(SpecError::InvalidHorizon { horizon: h });
            }
        }
        let g = match caches {
            Some(c) => c.resolve_graph(&self.graph)?,
            None => self.graph.resolve()?,
        };
        let nodes = g.node_count();
        if self.source as usize >= nodes {
            return Err(SpecError::SourceOutOfRange { source: self.source, nodes });
        }
        if let Topology::Trace(t) = &self.topology {
            if t.node_count() != nodes {
                return Err(SpecError::TraceNodeMismatch { trace: t.node_count(), nodes });
            }
        }
        match self.engine {
            Engine::Sharded { shards } => {
                if shards == 0 {
                    return Err(SpecError::ZeroShards);
                }
                if shards > nodes {
                    return Err(SpecError::ShardsExceedNodes { shards, nodes });
                }
                if self.protocol.is_sync() && !plan.coupled {
                    return Err(SpecError::ShardedNeedsAsync);
                }
            }
            Engine::Lazy => {
                if self.protocol.is_sync() && !plan.coupled {
                    return Err(SpecError::LazyNeedsAsync);
                }
                // A coupled plan replays the recorded trace through the
                // queue-free cursor, which handles every model; an
                // uncoupled lazy run resolves per-edge chains on touch
                // and needs memorylessness. An uncoupled Trace topology
                // is likewise deterministic and always replayable.
                let trace_like = matches!(self.topology, Topology::Trace(_));
                if !plan.coupled && !trace_like && self.topology.memoryless_edge_rates().is_none() {
                    return Err(SpecError::LazyNeedsMemoryless { model: self.topology.label() });
                }
            }
            Engine::Sequential => {}
        }
        if self.protocol.is_sync() && !plan.coupled {
            match &self.topology {
                Topology::Static | Topology::Trace(_) => {}
                Topology::Model(DynamicModel::Rewire(r)) => {
                    if !(r.period.is_finite() && r.period.fract() == 0.0 && r.period >= 1.0) {
                        return Err(SpecError::FractionalRewireRounds { period: r.period });
                    }
                }
                other => {
                    return Err(SpecError::SyncNeedsStaticTopology { model: other.label() });
                }
            }
        }
        if let Protocol::Async { view, .. } = self.protocol {
            let dynamic_like =
                !self.topology.is_static() || plan.coupled || self.engine != Engine::Sequential;
            if dynamic_like && view != AsyncView::GlobalClock {
                return Err(SpecError::ViewUnsupported {
                    view,
                    why: "dynamic topologies and the sharded/lazy engines are written in the \
                          global-clock view",
                });
            }
            if self.loss > 0.0 && view != AsyncView::GlobalClock {
                return Err(SpecError::ViewUnsupported {
                    view,
                    why: "lossy asynchronous runs use the global-clock view",
                });
            }
        }
        if self.loss > 0.0 {
            let with = if plan.coupled {
                Some("coupled runs")
            } else if !self.topology.is_static() {
                Some("dynamic topologies")
            } else if self.engine != Engine::Sequential {
                Some("the sharded/lazy engines")
            } else {
                None
            };
            if let Some(with) = with {
                return Err(SpecError::LossUnsupported { with: with.to_owned() });
            }
        }

        // Budget and horizon resolution: explicit values win, defaults
        // come from the resolved graph.
        let n = nodes;
        let (max_steps, max_rounds, horizon);
        if plan.coupled {
            max_steps = plan.max_steps.unwrap_or_else(|| default_coupled_max_steps(n));
            max_rounds = plan.max_rounds.unwrap_or(DEFAULT_COUPLED_MAX_ROUNDS);
            horizon = plan.horizon.unwrap_or_else(|| default_coupled_horizon(n));
        } else {
            let dynamic = !self.topology.is_static();
            max_steps = plan.max_steps.unwrap_or_else(|| {
                let base = default_max_steps(&g);
                if dynamic {
                    base.saturating_mul(8)
                } else {
                    base.saturating_mul(4)
                }
            });
            max_rounds = plan.max_rounds.unwrap_or_else(|| default_sync_rounds(&g));
            horizon = f64::NAN;
        }
        let caches = caches.map(|c| {
            cache::CacheBinding::bind(c, counter_baseline.unwrap_or_default(), self, horizon)
        });
        Ok(Simulation { spec: self.clone(), graph: g, max_steps, max_rounds, horizon, caches })
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// A validated, runnable simulation: the spec plus the resolved graph
/// and budgets.
#[derive(Debug, Clone)]
pub struct Simulation {
    spec: SimSpec,
    graph: Graph,
    max_steps: u64,
    max_rounds: u64,
    horizon: f64,
    caches: Option<cache::CacheBinding>,
}

/// Which unit the report's `value` column is measured in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Synchronous rounds.
    Rounds,
    /// Asynchronous time units.
    TimeUnits,
    /// Coupled runs report both columns.
    Paired,
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Unit::Rounds => "rounds",
            Unit::TimeUnits => "time units",
            Unit::Paired => "paired",
        })
    }
}

/// One trial's outcome in a [`RunReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Spreading time (rounds or time units). For a censored trial this
    /// is the value at the last step taken — a lower bound, not a
    /// sample.
    pub value: f64,
    /// Whether every node was informed within the budget. `false`
    /// trials are **censored**: never average their values as if
    /// complete.
    pub completed: bool,
    /// Protocol steps taken (rounds for synchronous runs).
    pub steps: u64,
    /// Topology events processed.
    pub topology_events: u64,
}

/// One coupled trial: a synchronous and an asynchronous run over the
/// **same** recorded topology trace, driven by a **common** protocol
/// seed (common random numbers). The paired difference/ratio of the two
/// columns has the trace's variance cancelled — the coupling argument
/// of the paper's proofs, as an estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoupledOutcome {
    /// Rounds the synchronous run took (the antithetic pair average on
    /// antithetic plans).
    pub sync_rounds: f64,
    /// Whether the synchronous run(s) informed everyone within budget.
    pub sync_completed: bool,
    /// Time the asynchronous run took (the antithetic pair average on
    /// antithetic plans).
    pub async_time: f64,
    /// Whether the asynchronous run(s) informed everyone within budget.
    pub async_completed: bool,
    /// Effective topology changes in the shared trace.
    pub trace_steps: usize,
}

/// Aggregate engine telemetry across a report's trials.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Telemetry {
    /// Protocol steps (node activations; rounds for synchronous runs)
    /// summed over trials.
    pub steps: u64,
    /// Topology events processed, summed over trials.
    pub topology_events: u64,
    /// Sharded engine: synchronization windows, summed over trials.
    pub windows: u64,
    /// Sharded engine: cross-shard contacts, summed over trials.
    pub cross_events: u64,
    /// Lazy engine: per-edge clocks materialized, summed over trials.
    pub clocks_touched: u64,
    /// Lazy engine: base edges (the eager engine's queue size).
    pub base_edges: u64,
    /// Coupled runs: recorded trace steps, summed over trials.
    pub trace_steps: u64,
}

impl Telemetry {
    /// Accumulates another (per-trial or partial) telemetry bundle into
    /// this one. Counters sum; `base_edges` — a per-run constant, not a
    /// per-trial count — takes the maximum. The one merge path every
    /// engine's report assembly flows through.
    pub fn merge(&mut self, other: &Telemetry) {
        self.steps += other.steps;
        self.topology_events += other.topology_events;
        self.windows += other.windows;
        self.cross_events += other.cross_events;
        self.clocks_touched += other.clocks_touched;
        self.base_edges = self.base_edges.max(other.base_edges);
        self.trace_steps += other.trace_steps;
    }
}

/// The unified result of [`Simulation::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Unit of the `value` column.
    pub unit: Unit,
    /// Per-trial outcomes (empty for coupled runs).
    pub outcomes: Vec<TrialOutcome>,
    /// Per-trial coupled outcomes (`Some` exactly for coupled runs).
    pub coupled: Option<Vec<CoupledOutcome>>,
    /// Aggregate engine telemetry.
    pub telemetry: Telemetry,
    /// Captured metrics (`Some` exactly when the spec's
    /// [`MetricsLevel`] is not `Off`).
    pub metrics: Option<RunMetrics>,
}

impl RunReport {
    /// Total trials observed.
    pub fn trials(&self) -> usize {
        match &self.coupled {
            Some(c) => c.len(),
            None => self.outcomes.len(),
        }
    }

    /// Number of **censored** trials: budget exhausted before every
    /// node was informed (for coupled runs, on either side). Censored
    /// values are lower bounds, never samples — the PR 3
    /// `CensoredSamples` contract.
    pub fn censored(&self) -> usize {
        match &self.coupled {
            Some(c) => c.iter().filter(|o| !(o.sync_completed && o.async_completed)).count(),
            None => self.outcomes.iter().filter(|o| !o.completed).count(),
        }
    }

    /// Every trial's value, censored trials included (their values are
    /// lower bounds; prefer [`completed_values`](Self::completed_values)
    /// for unbiased statistics).
    pub fn values(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.value).collect()
    }

    /// The values of completed trials only.
    pub fn completed_values(&self) -> Vec<f64> {
        self.outcomes.iter().filter(|o| o.completed).map(|o| o.value).collect()
    }

    /// `(value, completed)` pairs, the shape the censoring-aware
    /// aggregations consume.
    pub fn outcome_pairs(&self) -> Vec<(f64, bool)> {
        self.outcomes.iter().map(|o| (o.value, o.completed)).collect()
    }

    /// The coupled outcomes, or a typed absence for uncoupled runs.
    pub fn coupled_outcomes(&self) -> Option<&[CoupledOutcome]> {
        self.coupled.as_deref()
    }
}

impl Simulation {
    /// The resolved base graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The validated spec this simulation was built from.
    pub fn spec(&self) -> &SimSpec {
        &self.spec
    }

    /// The resolved asynchronous step budget.
    pub fn max_steps(&self) -> u64 {
        self.max_steps
    }

    /// The resolved synchronous round budget.
    pub fn max_rounds(&self) -> u64 {
        self.max_rounds
    }

    /// The resolved coupled horizon (`NaN` for uncoupled runs).
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Runs the plan and returns the unified report. Identical output
    /// for any thread count (per-trial seeding).
    pub fn run(&self) -> RunReport {
        let mut report = if self.spec.plan.coupled {
            self.run_coupled()
        } else {
            match self.spec.protocol {
                Protocol::Sync { mode } => self.run_sync_trials(mode),
                Protocol::Async { mode, view } => self.run_async_trials(mode, view),
            }
        };
        // Cache-bound runs surface their cache activity since build
        // (graph resolution included) through the metrics; the
        // spreading payload itself is identical with or without caches.
        if let Some(binding) = &self.caches {
            if let Some(m) = report.metrics.as_mut() {
                m.counters = binding
                    .caches
                    .counters()
                    .into_iter()
                    .zip(&binding.baseline)
                    .map(|((name, after), (_, b4))| (name, after.saturating_sub(*b4)))
                    .collect();
            }
        }
        report
    }

    fn fan_out<T: Send>(&self, f: impl Fn(usize, &mut Xoshiro256PlusPlus) -> T + Sync) -> Vec<T> {
        let plan = &self.spec.plan;
        run_trials_parallel(plan.trials, plan.master_seed, plan.threads, f)
    }

    fn run_sync_trials(&self, mode: Mode) -> RunReport {
        let g = &self.graph;
        let n = g.node_count();
        let source = self.spec.source;
        let max_rounds = self.max_rounds;
        let capture = self.spec.metrics.is_enabled();
        let sync_rec = |out: SyncOutcome| {
            let rec = TrialRecord::new(sync_trial(out.rounds, out.completed));
            if capture {
                rec.with_curve(SpreadingCurve::from_round_counts(&out.informed_by_round, n))
            } else {
                rec
            }
        };
        let records: Vec<TrialRecord> = match &self.spec.topology {
            Topology::Static => {
                if self.loss_active() {
                    let config = SpreadConfig::new(source)
                        .with_mode(mode)
                        .with_loss_probability(self.spec.loss);
                    self.fan_out(|_, rng| sync_rec(run_sync_config(g, &config, rng, max_rounds)))
                } else {
                    self.fan_out(|_, rng| sync_rec(run_sync(g, source, mode, rng, max_rounds)))
                }
            }
            Topology::Model(DynamicModel::Rewire(r)) => {
                let period = r.period as u64;
                let family = r.family;
                self.fan_out(|_, rng| {
                    sync_rec(run_sync_rewire(g, source, mode, period, family, rng, max_rounds))
                })
            }
            Topology::Trace(trace) => self
                .fan_out(|_, rng| sync_rec(run_sync_dynamic(trace, source, mode, rng, max_rounds))),
            other => unreachable!("validated at build time: sync + {other:?}"),
        };
        assemble(Unit::Rounds, records, self.spec.metrics)
    }

    fn run_async_trials(&self, mode: Mode, view: AsyncView) -> RunReport {
        let g = &self.graph;
        let source = self.spec.source;
        let max_steps = self.max_steps;
        let capture = self.spec.metrics.is_enabled();
        // Builds the record for one static asynchronous outcome.
        let async_rec = |out: &AsyncOutcome| {
            let rec = TrialRecord::new(TrialOutcome {
                value: out.time,
                completed: out.completed,
                steps: out.steps,
                topology_events: 0,
            });
            if capture {
                rec.with_curve(SpreadingCurve::from_informed_times(&out.informed_time))
            } else {
                rec
            }
        };
        let dynamic_rec = |out: &ShardedOutcome| {
            let mut rec = TrialRecord::new(dynamic_trial(&out.outcome));
            rec.telemetry.windows = out.windows;
            rec.telemetry.cross_events = out.cross_events;
            if capture {
                rec =
                    rec.with_curve(SpreadingCurve::from_informed_times(&out.outcome.informed_time));
            }
            rec
        };
        let records: Vec<TrialRecord> = match (self.spec.engine, &self.spec.topology) {
            (Engine::Sequential, Topology::Static) => {
                if self.loss_active() {
                    let config = SpreadConfig::new(source)
                        .with_mode(mode)
                        .with_loss_probability(self.spec.loss);
                    self.fan_out(|_, rng| async_rec(&run_async_config(g, &config, rng, max_steps)))
                } else {
                    self.fan_out(|_, rng| {
                        async_rec(&run_async(g, source, mode, view, rng, max_steps))
                    })
                }
            }
            (Engine::Sequential | Engine::Sharded { .. }, _)
            | (Engine::Lazy, Topology::Trace(_)) => {
                self.fan_out(|_, rng| {
                    if !capture {
                        return dynamic_rec(&self.dynamic_run(mode, rng, &mut NoProbe));
                    }
                    let mut probe = CaptureProbe::new();
                    let out = self.dynamic_run(mode, rng, &mut probe);
                    let mut rec = dynamic_rec(&out);
                    rec.utilization = probe.utilization;
                    // Censored sequential trials dump their event tail.
                    if self.spec.engine == Engine::Sequential && !out.outcome.completed {
                        rec.dump = Some(probe.ring.into_events());
                    }
                    rec
                })
            }
            (Engine::Lazy, topology) => {
                let (off_rate, on_rate) =
                    topology.memoryless_edge_rates().expect("validated at build time");
                let markov = EdgeMarkov { off_rate, on_rate };
                self.fan_out(|_, rng| {
                    let out =
                        run_edge_markov_lazy(g, source, mode, markov, rng, max_steps, &mut NoProbe);
                    let mut rec = TrialRecord::new(TrialOutcome {
                        value: out.time,
                        completed: out.completed,
                        steps: out.steps,
                        topology_events: 0,
                    });
                    rec.telemetry.clocks_touched = out.clocks_touched as u64;
                    rec.telemetry.base_edges = out.base_edges as u64;
                    if capture {
                        rec =
                            rec.with_curve(SpreadingCurve::from_informed_times(&out.informed_time));
                    }
                    rec
                })
            }
        };
        assemble(Unit::TimeUnits, records, self.spec.metrics)
    }

    fn loss_active(&self) -> bool {
        self.spec.loss > 0.0
    }

    /// Runs one asynchronous trial on the spec's evolving topology
    /// through the plan's engine, observed by `probe`. Sequential runs
    /// over a built-in model visit its concrete state type; the sharded
    /// engine runs every model behind the [`TopologyModel`] interface.
    fn dynamic_run<P: Probe>(
        &self,
        mode: Mode,
        rng: &mut Xoshiro256PlusPlus,
        probe: &mut P,
    ) -> ShardedOutcome {
        let g = &self.graph;
        let (source, max_steps) = (self.spec.source, self.max_steps);
        let contract = self.spec.plan.rng_contract;
        let outcome = match (self.spec.engine, &self.spec.topology) {
            (_, Topology::Trace(trace)) => return self.trace_run(trace, mode, rng, probe),
            (Engine::Sharded { shards }, topology) => {
                let mut state = match topology {
                    Topology::Model(model) => model.build_state(),
                    Topology::Custom(factory) => factory.build(g),
                    // Static; traces returned above.
                    _ => DynamicModel::Static.build_state(),
                };
                return self.sharded_run(state.as_mut(), shards, mode, rng, probe);
            }
            (_, Topology::Model(model)) => {
                model.with_state(SequentialRun { contract, g, source, mode, rng, max_steps, probe })
            }
            (_, Topology::Custom(factory)) => {
                let mut state = factory.build(g);
                run_dynamic_with(contract, g, source, mode, state.as_mut(), rng, max_steps, probe)
            }
            (_, Topology::Static) => unreachable!("static sequential runs use the static engine"),
        };
        ShardedOutcome { outcome, shards: 1, windows: 0, cross_events: 0 }
    }

    /// Runs one asynchronous trial over a recorded trace through the
    /// plan's engine: the sequential or sharded engine over the trace's
    /// replayer, or the queue-free trace cursor on a lazy plan.
    fn trace_run<P: Probe>(
        &self,
        trace: &TopologyTrace,
        mode: Mode,
        rng: &mut Xoshiro256PlusPlus,
        probe: &mut P,
    ) -> ShardedOutcome {
        let g = &self.graph;
        let (source, max_steps) = (self.spec.source, self.max_steps);
        let contract = self.spec.plan.rng_contract;
        let outcome = match self.spec.engine {
            Engine::Sequential => run_dynamic_with(
                contract,
                g,
                source,
                mode,
                &mut trace.replayer(),
                rng,
                max_steps,
                probe,
            ),
            Engine::Sharded { shards } => {
                return self.sharded_run(&mut trace.replayer(), shards, mode, rng, probe)
            }
            Engine::Lazy => run_trace_lazy(contract, trace, source, mode, rng, max_steps),
        };
        ShardedOutcome { outcome, shards: 1, windows: 0, cross_events: 0 }
    }

    /// Runs one sharded trial over `state`, `shards` contiguous shards.
    fn sharded_run<P: Probe>(
        &self,
        state: &mut dyn TopologyModel,
        shards: usize,
        mode: Mode,
        rng: &mut Xoshiro256PlusPlus,
        probe: &mut P,
    ) -> ShardedOutcome {
        let g = &self.graph;
        run_dynamic_sharded_with(
            self.spec.plan.rng_contract,
            g,
            self.spec.source,
            mode,
            state,
            &Partition::contiguous(g.node_count(), shards),
            rng,
            self.max_steps,
            probe,
        )
    }

    fn run_coupled(&self) -> RunReport {
        let results: Vec<(CoupledOutcome, Vec<CurvePair>)> =
            self.fan_out(|_, rng| self.coupled_trial(rng));
        let outcomes: Vec<CoupledOutcome> = results.iter().map(|(o, _)| *o).collect();
        let trace_steps: u64 = outcomes.iter().map(|o| o.trace_steps as u64).sum();
        let metrics = self.spec.metrics.is_enabled().then(|| coupled_metrics(&outcomes, &results));
        RunReport {
            unit: Unit::Paired,
            outcomes: Vec::new(),
            coupled: Some(outcomes),
            telemetry: Telemetry { trace_steps, ..Telemetry::default() },
            metrics,
        }
    }

    fn coupled_trial(&self, rng: &mut Xoshiro256PlusPlus) -> (CoupledOutcome, Vec<CurvePair>) {
        let g = &self.graph;
        let source = self.spec.source;
        // Two sub-seeds per trial: one for the shared topology
        // realization, one used by BOTH protocol runs (common random
        // numbers). A pre-recorded trace draws no trace seed.
        match &self.spec.topology {
            Topology::Trace(trace) => {
                let proto_seed = rng.next_u64();
                self.coupled_on_trace(trace, proto_seed)
            }
            Topology::Custom(factory) => {
                let trace_seed = rng.next_u64();
                let proto_seed = rng.next_u64();
                let mut trace_rng = Xoshiro256PlusPlus::seed_from(trace_seed);
                let trace = TopologyTrace::record(
                    self.spec.plan.rng_contract,
                    g,
                    source,
                    factory.build(g).as_mut(),
                    &mut trace_rng,
                    self.horizon,
                );
                self.coupled_on_trace(&trace, proto_seed)
            }
            topology => {
                let model = match topology {
                    Topology::Static => DynamicModel::Static,
                    Topology::Model(m) => *m,
                    _ => unreachable!("trace/custom handled above"),
                };
                let trace_seed = rng.next_u64();
                let proto_seed = rng.next_u64();
                let record = || {
                    let mut trace_rng = Xoshiro256PlusPlus::seed_from(trace_seed);
                    TopologyTrace::record(
                        self.spec.plan.rng_contract,
                        g,
                        source,
                        model.build_state().as_mut(),
                        &mut trace_rng,
                        self.horizon,
                    )
                };
                // The recording is a pure function of (spec axes, trace
                // seed): cache-bound simulations reuse it across runs.
                // The trial RNG is not consumed by the recording, so a
                // hit replays the miss path bit-for-bit.
                let trace = match self.caches.as_ref().and_then(cache::CacheBinding::trace_key) {
                    Some((caches, prefix)) => caches.trace_or_record(prefix, trace_seed, record),
                    None => record(),
                };
                self.coupled_on_trace(&trace, proto_seed)
            }
        }
    }

    fn coupled_on_trace(
        &self,
        trace: &TopologyTrace,
        proto_seed: u64,
    ) -> (CoupledOutcome, Vec<CurvePair>) {
        let (one, mut curves) = self.coupled_pair(trace, proto_seed);
        if !self.spec.plan.antithetic {
            return (one, curves);
        }
        // Antithetic partner: the complement seed reuses the same trace
        // with a second protocol realization; averaging the pair halves
        // the protocol-clock variance while the (expensive, shared)
        // trace realization is recorded once.
        let (two, more) = self.coupled_pair(trace, !proto_seed);
        curves.extend(more);
        let avg = CoupledOutcome {
            sync_rounds: 0.5 * (one.sync_rounds + two.sync_rounds),
            sync_completed: one.sync_completed && two.sync_completed,
            async_time: 0.5 * (one.async_time + two.async_time),
            async_completed: one.async_completed && two.async_completed,
            trace_steps: one.trace_steps,
        };
        (avg, curves)
    }

    fn coupled_pair(
        &self,
        trace: &TopologyTrace,
        proto_seed: u64,
    ) -> (CoupledOutcome, Vec<CurvePair>) {
        let g = &self.graph;
        let source = self.spec.source;
        let mode = self.spec.protocol.mode();
        let sync = run_sync_dynamic(
            trace,
            source,
            mode,
            &mut Xoshiro256PlusPlus::seed_from(proto_seed),
            self.max_rounds,
        );
        // The asynchronous half replays the trace through the plan's
        // engine. A replayer reports no stochastic channels, so the
        // scheduler half of the contract is moot — but v2 also pins the
        // adjacency to order-relaxed mode, which permutes neighbor
        // draws, so the contract reaches every engine all the same.
        let mut proto_rng = Xoshiro256PlusPlus::seed_from(proto_seed);
        let asy = self.trace_run(trace, mode, &mut proto_rng, &mut NoProbe).outcome;
        let curves = if self.spec.metrics.is_enabled() {
            let n = g.node_count();
            vec![(
                SpreadingCurve::from_round_counts(&sync.informed_by_round, n)
                    .downsample(CURVE_SAMPLES),
                SpreadingCurve::from_informed_times(&asy.informed_time).downsample(CURVE_SAMPLES),
            )]
        } else {
            Vec::new()
        };
        let out = CoupledOutcome {
            sync_rounds: sync.rounds as f64,
            sync_completed: sync.completed,
            async_time: asy.time,
            async_completed: asy.completed,
            trace_steps: trace.len(),
        };
        (out, curves)
    }
}

/// A per-pair (synchronous, asynchronous) spreading-curve capture from
/// one coupled protocol realization on a shared topology trace.
type CurvePair = (SpreadingCurve, SpreadingCurve);

/// Builds the metrics bundle for a coupled run: paired histograms over
/// the per-trial (averaged) values plus sync/async mean curves.
fn coupled_metrics(
    outcomes: &[CoupledOutcome],
    results: &[(CoupledOutcome, Vec<CurvePair>)],
) -> RunMetrics {
    let mut m = RunMetrics::new(Unit::Paired.to_string());
    m.trials = outcomes.len() as u64;
    m.censored =
        outcomes.iter().filter(|o| !(o.sync_completed && o.async_completed)).count() as u64;
    let mut sync_h = LogHistogram::new();
    let mut async_h = LogHistogram::new();
    for o in outcomes {
        if o.sync_completed {
            sync_h.record(o.sync_rounds);
        }
        if o.async_completed {
            async_h.record(o.async_time);
        }
    }
    m.push_histogram("sync_rounds", sync_h);
    m.push_histogram("async_time", async_h);
    let sync_curves: Vec<SpreadingCurve> =
        results.iter().flat_map(|(_, cs)| cs.iter().map(|(s, _)| s.clone())).collect();
    let async_curves: Vec<SpreadingCurve> =
        results.iter().flat_map(|(_, cs)| cs.iter().map(|(_, a)| a.clone())).collect();
    if !sync_curves.is_empty() {
        m.push_curve("sync_informed", CurveSummary::aggregate(&sync_curves, CURVE_GRID));
        m.push_curve("async_informed", CurveSummary::aggregate(&async_curves, CURVE_GRID));
    }
    m
}

fn sync_trial(rounds: u64, completed: bool) -> TrialOutcome {
    TrialOutcome { value: rounds as f64, completed, steps: rounds, topology_events: 0 }
}

fn dynamic_trial(out: &DynamicOutcome) -> TrialOutcome {
    TrialOutcome {
        value: out.time,
        completed: out.completed,
        steps: out.steps,
        topology_events: out.topology_events,
    }
}

/// Everything one trial contributes to report assembly: the outcome,
/// the trial's own telemetry slice, and — on metrics-enabled runs — its
/// spreading curve, censor ring dump, and shard utilization readings.
struct TrialRecord {
    outcome: TrialOutcome,
    telemetry: Telemetry,
    curve: Option<SpreadingCurve>,
    dump: Option<Vec<(f64, ProbeEvent)>>,
    utilization: Vec<f64>,
}

impl TrialRecord {
    /// A record with the telemetry every engine shares (steps and
    /// topology events, straight off the outcome).
    fn new(outcome: TrialOutcome) -> Self {
        let telemetry = Telemetry {
            steps: outcome.steps,
            topology_events: outcome.topology_events,
            ..Telemetry::default()
        };
        Self { outcome, telemetry, curve: None, dump: None, utilization: Vec::new() }
    }

    /// Attaches a (downsampled) spreading curve.
    fn with_curve(mut self, curve: SpreadingCurve) -> Self {
        self.curve = Some(curve.downsample(CURVE_SAMPLES));
        self
    }
}

/// The one assembly path every uncoupled run flows through: merges the
/// per-trial telemetry in trial order and builds the metrics bundle
/// when the level asks for one.
fn assemble(unit: Unit, records: Vec<TrialRecord>, level: MetricsLevel) -> RunReport {
    let mut telemetry = Telemetry::default();
    for r in &records {
        telemetry.merge(&r.telemetry);
    }
    let metrics = level.is_enabled().then(|| trial_metrics(unit, &records));
    let outcomes = records.into_iter().map(|r| r.outcome).collect();
    RunReport { unit, outcomes, coupled: None, telemetry, metrics }
}

/// Builds the metrics bundle from per-trial records, in trial order
/// (fixed merge order keeps float sums deterministic).
fn trial_metrics(unit: Unit, records: &[TrialRecord]) -> RunMetrics {
    let mut m = RunMetrics::new(unit.to_string());
    m.trials = records.len() as u64;
    m.censored = records.iter().filter(|r| !r.outcome.completed).count() as u64;
    let mut value = LogHistogram::new();
    let mut steps = LogHistogram::new();
    let mut topology = LogHistogram::new();
    for r in records {
        if r.outcome.completed {
            value.record(r.outcome.value);
        }
        steps.record_u64(r.outcome.steps);
        topology.record_u64(r.outcome.topology_events);
    }
    m.push_histogram("spreading_time", value);
    m.push_histogram("steps", steps);
    m.push_histogram("topology_events", topology);
    let curves: Vec<SpreadingCurve> = records.iter().filter_map(|r| r.curve.clone()).collect();
    if !curves.is_empty() {
        m.push_curve("informed", CurveSummary::aggregate(&curves, CURVE_GRID));
    }

    // Engine health: per-engine diagnostics, summary display only.
    if records.iter().any(|r| r.telemetry.windows > 0 || r.telemetry.cross_events > 0) {
        for r in records {
            m.health.windows.record_u64(r.telemetry.windows);
            m.health.cross_events.record_u64(r.telemetry.cross_events);
        }
    }
    if records.iter().any(|r| r.telemetry.clocks_touched > 0) {
        for r in records {
            m.health.clocks_touched.record_u64(r.telemetry.clocks_touched);
        }
    }
    m.health.base_edges = records.iter().map(|r| r.telemetry.base_edges).max().unwrap_or(0);
    let measured: Vec<&[f64]> =
        records.iter().map(|r| r.utilization.as_slice()).filter(|u| !u.is_empty()).collect();
    if let Some(first) = measured.first() {
        let mut mean = vec![0.0; first.len()];
        for u in &measured {
            for (acc, v) in mean.iter_mut().zip(u.iter()) {
                *acc += v;
            }
        }
        for v in &mut mean {
            *v /= measured.len() as f64;
        }
        m.health.shard_utilization = mean;
    }
    for (idx, r) in records.iter().enumerate() {
        if m.health.censor_dumps.len() >= MAX_CENSOR_DUMPS {
            break;
        }
        if let (false, Some(events)) = (r.outcome.completed, r.dump.as_ref()) {
            m.health.censor_dumps.push(CensorDump { trial: idx as u64, events: events.clone() });
        }
    }
    m
}

/// The probe of a metrics-enabled dynamic trial: the tail of the event
/// stream (dumped when a sequential trial is censored) and the sharded
/// engine's per-shard utilization readings.
struct CaptureProbe {
    ring: RingProbe,
    utilization: Vec<f64>,
}

impl CaptureProbe {
    fn new() -> Self {
        Self { ring: RingProbe::new(RING_CAP), utilization: Vec::new() }
    }
}

impl Probe for CaptureProbe {
    fn event(&mut self, time: f64, kind: ProbeEvent) {
        self.ring.event(time, kind);
    }

    fn informed(&mut self, time: f64, count: usize) {
        self.ring.informed(time, count);
    }

    fn shard_utilization(&mut self, utilization: &[f64]) {
        self.utilization = utilization.to_vec();
    }
}

// ---------------------------------------------------------------------------
// Text serialization
// ---------------------------------------------------------------------------

const SPEC_VERSION: &str = "v1";

impl SimSpec {
    /// Serializes the spec to the line-based `key = value` text format.
    ///
    /// Every field is written explicitly (budgets and the horizon write
    /// `auto` when unset), so `parse(to_spec_string(spec)) == spec` for
    /// every serializable spec. Provided graphs, custom topologies, and
    /// recorded traces have no text form and return
    /// [`SpecError::NotSerializable`].
    pub fn to_spec_string(&self) -> Result<String, SpecError> {
        let mut s = String::new();
        s.push_str("# rumor-spreading run spec\n");
        s.push_str(&format!("spec = {SPEC_VERSION}\n"));
        s.push_str(&format!("graph = {}\n", graph_to_text(&self.graph)?));
        s.push_str(&format!("source = {}\n", self.source));
        s.push_str(&format!("protocol = {}\n", protocol_to_text(&self.protocol)));
        s.push_str(&format!("topology = {}\n", topology_to_text(&self.topology)?));
        s.push_str(&format!("engine = {}\n", engine_to_text(&self.engine)));
        s.push_str(&format!("trials = {}\n", self.plan.trials));
        s.push_str(&format!("seed = {}\n", self.plan.master_seed));
        s.push_str(&format!("threads = {}\n", self.plan.threads));
        s.push_str(&format!("loss = {}\n", fmt_f64(self.loss)));
        s.push_str(&format!("max_steps = {}\n", opt_u64_to_text(self.plan.max_steps)));
        s.push_str(&format!("max_rounds = {}\n", opt_u64_to_text(self.plan.max_rounds)));
        s.push_str(&format!("coupled = {}\n", self.plan.coupled));
        s.push_str(&format!(
            "horizon = {}\n",
            self.plan.horizon.map_or_else(|| "auto".to_owned(), fmt_f64)
        ));
        s.push_str(&format!("antithetic = {}\n", self.plan.antithetic));
        // Absence of the line IS the v1 declaration (legacy artifacts
        // predate the key), so v1 specs serialize without it and stay
        // byte-identical to their committed pre-v2 form.
        if self.plan.rng_contract != RngContract::V1 {
            s.push_str(&format!("rng_contract = {}\n", self.plan.rng_contract));
        }
        s.push_str(&format!("metrics = {}\n", self.metrics));
        Ok(s)
    }

    /// Parses a spec from the text format produced by
    /// [`to_spec_string`](Self::to_spec_string). Blank lines and `#`
    /// comments are skipped; unknown keys are an error. The result is
    /// *syntactically* valid — call [`build`](Self::build) to check the
    /// combination rules.
    pub fn parse(text: &str) -> Result<SimSpec, SpecError> {
        let mut graph: Option<GraphSpec> = None;
        let mut spec = SimSpec::new(GraphSpec::Complete { n: 2 });
        // Contract-less spec texts predate the v2 scheduler: they pin
        // the streams they were recorded under. An explicit
        // `rng_contract` line overrides this.
        spec.plan.rng_contract = RngContract::V1;
        let mut version_seen = false;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lineno = idx + 1;
            let err = |message: String| SpecError::Parse { line: lineno, message };
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| err(format!("expected `key = value`, got `{line}`")))?;
            if !version_seen {
                if key != "spec" {
                    return Err(err("first directive must be `spec = v1`".to_owned()));
                }
                if value != SPEC_VERSION {
                    return Err(err(format!("unsupported spec version `{value}`")));
                }
                version_seen = true;
                continue;
            }
            match key {
                "spec" => return Err(err("duplicate `spec` directive".to_owned())),
                "graph" => graph = Some(graph_from_text(value, lineno)?),
                "source" => spec.source = parse_num(value, "source", lineno)?,
                "protocol" => spec.protocol = protocol_from_text(value, lineno)?,
                "topology" => spec.topology = topology_from_text(value, lineno)?,
                "engine" => spec.engine = engine_from_text(value, lineno)?,
                "trials" => spec.plan.trials = parse_num(value, "trials", lineno)?,
                "seed" => spec.plan.master_seed = parse_num(value, "seed", lineno)?,
                "threads" => spec.plan.threads = parse_num(value, "threads", lineno)?,
                "loss" => spec.loss = parse_num(value, "loss", lineno)?,
                "max_steps" => spec.plan.max_steps = opt_u64_from_text(value, "max_steps", lineno)?,
                "max_rounds" => {
                    spec.plan.max_rounds = opt_u64_from_text(value, "max_rounds", lineno)?
                }
                "coupled" => spec.plan.coupled = parse_bool(value, "coupled", lineno)?,
                "horizon" => {
                    spec.plan.horizon = if value == "auto" {
                        None
                    } else {
                        Some(parse_num(value, "horizon", lineno)?)
                    }
                }
                "antithetic" => spec.plan.antithetic = parse_bool(value, "antithetic", lineno)?,
                "rng_contract" => {
                    spec.plan.rng_contract = value.parse::<RngContract>().map_err(err)?;
                }
                "metrics" => {
                    spec.metrics = value.parse::<MetricsLevel>().map_err(err)?;
                }
                other => return Err(err(format!("unknown key `{other}`"))),
            }
        }
        if !version_seen {
            return Err(SpecError::Parse {
                line: text.lines().count().max(1),
                message: "missing `spec = v1` directive".to_owned(),
            });
        }
        spec.graph = graph.ok_or(SpecError::MissingGraph)?;
        Ok(spec)
    }
}

/// Shortest round-tripping float text (`inf` for infinity).
fn fmt_f64(x: f64) -> String {
    if x == f64::INFINITY {
        "inf".to_owned()
    } else {
        format!("{x}")
    }
}

fn opt_u64_to_text(v: Option<u64>) -> String {
    v.map_or_else(|| "auto".to_owned(), |x| x.to_string())
}

fn opt_u64_from_text(value: &str, key: &str, line: usize) -> Result<Option<u64>, SpecError> {
    if value == "auto" {
        return Ok(None);
    }
    parse_num(value, key, line).map(Some)
}

fn parse_num<T: std::str::FromStr>(value: &str, key: &str, line: usize) -> Result<T, SpecError> {
    value
        .parse()
        .map_err(|_| SpecError::Parse { line, message: format!("cannot parse {key} `{value}`") })
}

fn parse_bool(value: &str, key: &str, line: usize) -> Result<bool, SpecError> {
    match value {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(SpecError::Parse {
            line,
            message: format!("{key} must be true or false, got `{other}`"),
        }),
    }
}

/// Splits `kind k1=v1 k2=v2 …`; returns the kind and an accessor that
/// fails with a parse error naming missing/garbled fields.
struct Fields<'a> {
    kind: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
    line: usize,
}

impl<'a> Fields<'a> {
    fn split(value: &'a str, line: usize) -> Result<Self, SpecError> {
        let mut tokens = value.split_whitespace();
        let kind =
            tokens.next().ok_or(SpecError::Parse { line, message: "empty value".to_owned() })?;
        let mut pairs = Vec::new();
        for tok in tokens {
            let (k, v) = tok.split_once('=').ok_or_else(|| SpecError::Parse {
                line,
                message: format!("expected `key=value` field, got `{tok}`"),
            })?;
            pairs.push((k, v));
        }
        Ok(Self { kind, pairs, line })
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, SpecError> {
        let raw = self.pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v).ok_or_else(|| {
            SpecError::Parse {
                line: self.line,
                message: format!("`{}` needs a `{key}=` field", self.kind),
            }
        })?;
        parse_num(raw, key, self.line)
    }
}

fn graph_to_text(graph: &GraphSpec) -> Result<String, SpecError> {
    Ok(match graph {
        GraphSpec::Provided(_) => {
            return Err(SpecError::NotSerializable { what: "a provided graph" })
        }
        GraphSpec::File(path) => format!("file {path}"),
        GraphSpec::Gnp { n, p, seed, attempts } => {
            format!("gnp n={n} p={} seed={seed} attempts={attempts}", fmt_f64(*p))
        }
        GraphSpec::RandomRegular { n, d, seed, attempts } => {
            format!("random-regular n={n} d={d} seed={seed} attempts={attempts}")
        }
        GraphSpec::Hypercube { dim } => format!("hypercube dim={dim}"),
        GraphSpec::Complete { n } => format!("complete n={n}"),
        GraphSpec::Path { n } => format!("path n={n}"),
        GraphSpec::Cycle { n } => format!("cycle n={n}"),
        GraphSpec::Star { n } => format!("star n={n}"),
        GraphSpec::Necklace { cliques, size } => format!("necklace cliques={cliques} size={size}"),
        GraphSpec::Torus { rows, cols } => format!("torus rows={rows} cols={cols}"),
    })
}

fn graph_from_text(value: &str, line: usize) -> Result<GraphSpec, SpecError> {
    if let Some(path) = value.strip_prefix("file ") {
        return Ok(GraphSpec::File(path.trim().to_owned()));
    }
    let f = Fields::split(value, line)?;
    Ok(match f.kind {
        "gnp" => GraphSpec::Gnp {
            n: f.get("n")?,
            p: f.get("p")?,
            seed: f.get("seed")?,
            attempts: f.get("attempts")?,
        },
        "random-regular" => GraphSpec::RandomRegular {
            n: f.get("n")?,
            d: f.get("d")?,
            seed: f.get("seed")?,
            attempts: f.get("attempts")?,
        },
        "hypercube" => GraphSpec::Hypercube { dim: f.get("dim")? },
        "complete" => GraphSpec::Complete { n: f.get("n")? },
        "path" => GraphSpec::Path { n: f.get("n")? },
        "cycle" => GraphSpec::Cycle { n: f.get("n")? },
        "star" => GraphSpec::Star { n: f.get("n")? },
        "necklace" => GraphSpec::Necklace { cliques: f.get("cliques")?, size: f.get("size")? },
        "torus" => GraphSpec::Torus { rows: f.get("rows")?, cols: f.get("cols")? },
        other => {
            return Err(SpecError::Parse {
                line,
                message: format!("unknown graph family `{other}`"),
            })
        }
    })
}

fn protocol_to_text(protocol: &Protocol) -> String {
    match protocol {
        Protocol::Sync { mode } => format!("sync mode={mode}"),
        Protocol::Async { mode, view } => format!("async mode={mode} view={view}"),
    }
}

fn mode_from_text(value: &str, line: usize) -> Result<Mode, SpecError> {
    match value {
        "push" => Ok(Mode::Push),
        "pull" => Ok(Mode::Pull),
        "pushpull" | "push-pull" => Ok(Mode::PushPull),
        other => {
            Err(SpecError::Parse { line, message: format!("unknown protocol mode `{other}`") })
        }
    }
}

fn view_from_text(value: &str, line: usize) -> Result<AsyncView, SpecError> {
    match value {
        "global-clock" => Ok(AsyncView::GlobalClock),
        "node-clocks" => Ok(AsyncView::NodeClocks),
        "edge-clocks" => Ok(AsyncView::EdgeClocks),
        other => Err(SpecError::Parse { line, message: format!("unknown async view `{other}`") }),
    }
}

fn protocol_from_text(value: &str, line: usize) -> Result<Protocol, SpecError> {
    let f = Fields::split(value, line)?;
    let mode = mode_from_text(&f.get::<String>("mode")?, line)?;
    match f.kind {
        "sync" => Ok(Protocol::Sync { mode }),
        "async" => {
            let view = view_from_text(&f.get::<String>("view")?, line)?;
            Ok(Protocol::Async { mode, view })
        }
        other => Err(SpecError::Parse { line, message: format!("unknown protocol `{other}`") }),
    }
}

fn family_to_text(family: &SnapshotFamily) -> String {
    match family {
        SnapshotFamily::Gnp { p } => format!("family=gnp p={}", fmt_f64(*p)),
        SnapshotFamily::RandomRegular { d } => format!("family=random-regular d={d}"),
    }
}

fn topology_to_text(topology: &Topology) -> Result<String, SpecError> {
    Ok(match topology {
        Topology::Static => "static".to_owned(),
        // Distinct from `static`: Model(Static) routes through the
        // dynamic engine (an explicit no-op model) and resolves the
        // dynamic default budgets, so the round trip must preserve it.
        Topology::Model(DynamicModel::Static) => "static-model".to_owned(),
        Topology::Model(DynamicModel::EdgeMarkov(m)) => {
            format!("markov off={} on={}", fmt_f64(m.off_rate), fmt_f64(m.on_rate))
        }
        Topology::Model(DynamicModel::Rewire(m)) => {
            format!("rewire period={} {}", fmt_f64(m.period), family_to_text(&m.family))
        }
        Topology::Model(DynamicModel::NodeChurn(m)) => format!(
            "node-churn leave={} join={} attach={}",
            fmt_f64(m.leave_rate),
            fmt_f64(m.join_rate),
            m.attach_degree
        ),
        Topology::Model(DynamicModel::RandomWalk(m)) => {
            format!("walk rate={}", fmt_f64(m.rate))
        }
        Topology::Model(DynamicModel::Mobility(m)) => format!(
            "mobility move={} radius={} step={}",
            fmt_f64(m.move_rate),
            fmt_f64(m.radius),
            fmt_f64(m.step)
        ),
        Topology::Model(DynamicModel::Adversary(m)) => format!(
            "adversary rate={} budget={} heal={}",
            fmt_f64(m.rate),
            m.budget,
            fmt_f64(m.heal_after)
        ),
        Topology::Custom(_) => {
            return Err(SpecError::NotSerializable { what: "a custom topology factory" })
        }
        Topology::Trace(_) => {
            return Err(SpecError::NotSerializable { what: "a recorded topology trace" })
        }
    })
}

fn topology_from_text(value: &str, line: usize) -> Result<Topology, SpecError> {
    let f = Fields::split(value, line)?;
    Ok(match f.kind {
        "static" => Topology::Static,
        "static-model" => Topology::Model(DynamicModel::Static),
        "markov" => Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov {
            off_rate: f.get("off")?,
            on_rate: f.get("on")?,
        })),
        "rewire" => {
            let family = match f.get::<String>("family")?.as_str() {
                "gnp" => SnapshotFamily::Gnp { p: f.get("p")? },
                "random-regular" => SnapshotFamily::RandomRegular { d: f.get("d")? },
                other => {
                    return Err(SpecError::Parse {
                        line,
                        message: format!("unknown snapshot family `{other}`"),
                    })
                }
            };
            let period: f64 = f.get("period")?;
            if period.is_nan() || period <= 0.0 {
                return Err(SpecError::Parse {
                    line,
                    message: format!("rewire period must be positive, got {period}"),
                });
            }
            Topology::Model(DynamicModel::Rewire(Rewire::new(period, family)))
        }
        "node-churn" => {
            let leave: f64 = f.get("leave")?;
            let join: f64 = f.get("join")?;
            let attach: usize = f.get("attach")?;
            if !(leave >= 0.0 && leave.is_finite() && join >= 0.0 && join.is_finite()) {
                return Err(SpecError::Parse {
                    line,
                    message: "node-churn rates must be finite and >= 0".to_owned(),
                });
            }
            if attach == 0 {
                return Err(SpecError::Parse {
                    line,
                    message: "node-churn attach must be positive".to_owned(),
                });
            }
            Topology::Model(DynamicModel::NodeChurn(NodeChurn::new(leave, join, attach)))
        }
        "walk" => {
            let rate: f64 = f.get("rate")?;
            if !(rate >= 0.0 && rate.is_finite()) {
                return Err(SpecError::Parse {
                    line,
                    message: "walk rate must be finite and >= 0".to_owned(),
                });
            }
            Topology::Model(DynamicModel::RandomWalk(RandomWalk::new(rate)))
        }
        "mobility" => {
            let move_rate: f64 = f.get("move")?;
            let radius: f64 = f.get("radius")?;
            let step: f64 = f.get("step")?;
            let valid = move_rate >= 0.0
                && move_rate.is_finite()
                && radius > 0.0
                && radius.is_finite()
                && step > 0.0
                && step.is_finite();
            if !valid {
                return Err(SpecError::Parse {
                    line,
                    message: "mobility needs move >= 0 and positive finite radius/step".to_owned(),
                });
            }
            Topology::Model(DynamicModel::Mobility(Mobility::new(move_rate, radius, step)))
        }
        "adversary" => {
            let rate: f64 = f.get("rate")?;
            let budget: usize = f.get("budget")?;
            let heal: f64 = f.get("heal")?;
            if !(rate >= 0.0 && rate.is_finite()) || budget == 0 || heal.is_nan() || heal <= 0.0 {
                return Err(SpecError::Parse {
                    line,
                    message: "adversary needs rate >= 0, budget > 0, heal > 0 (inf ok)".to_owned(),
                });
            }
            Topology::Model(DynamicModel::Adversary(Adversary::new(rate, budget, heal)))
        }
        other => {
            return Err(SpecError::Parse { line, message: format!("unknown topology `{other}`") })
        }
    })
}

fn engine_to_text(engine: &Engine) -> String {
    match engine {
        Engine::Sequential => "sequential".to_owned(),
        Engine::Sharded { shards } => format!("sharded shards={shards}"),
        Engine::Lazy => "lazy".to_owned(),
    }
}

fn engine_from_text(value: &str, line: usize) -> Result<Engine, SpecError> {
    let f = Fields::split(value, line)?;
    match f.kind {
        "sequential" => Ok(Engine::Sequential),
        "sharded" => Ok(Engine::Sharded { shards: f.get("shards")? }),
        "lazy" => Ok(Engine::Lazy),
        other => Err(SpecError::Parse { line, message: format!("unknown engine `{other}`") }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_graph::generators;

    fn base_spec() -> SimSpec {
        SimSpec::new(GraphSpec::Complete { n: 8 })
    }

    #[test]
    fn builds_and_runs_the_default_plan() {
        let report = base_spec().trials(10).build().unwrap().run();
        assert_eq!(report.unit, Unit::Rounds);
        assert_eq!(report.trials(), 10);
        assert_eq!(report.censored(), 0);
        assert!(report.coupled.is_none());
        assert!(report.telemetry.steps > 0);
    }

    #[test]
    fn report_counts_censored_trials_explicitly() {
        // A 3-round budget cannot inform a 64-path.
        let report =
            SimSpec::new(GraphSpec::Path { n: 64 }).trials(5).max_rounds(3).build().unwrap().run();
        assert_eq!(report.censored(), 5);
        assert!(report.completed_values().is_empty());
        assert_eq!(report.values().len(), 5);
        assert!(report.outcome_pairs().iter().all(|&(v, done)| !done && v == 3.0));
    }

    #[test]
    fn provided_and_generated_graphs_agree() {
        let g = generators::complete(8);
        let a = SimSpec::on_graph(&g).trials(6).build().unwrap().run();
        let b = base_spec().trials(6).build().unwrap().run();
        assert_eq!(a, b);
    }

    #[test]
    fn threads_do_not_change_the_report() {
        let spec = base_spec().protocol(Protocol::push_pull_async()).trials(12);
        let serial = spec.clone().build().unwrap().run();
        let parallel = spec.threads(4).build().unwrap().run();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn custom_factories_replay_their_enum_twin() {
        // DynamicModel is itself a factory: Custom(markov) must replay
        // Model(markov) seed-for-seed through every engine.
        let g = generators::gnp_connected(24, 0.3, &mut Xoshiro256PlusPlus::seed_from(5), 100);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0));
        for engine in [Engine::Sequential, Engine::Sharded { shards: 2 }] {
            let via_enum = SimSpec::on_graph(&g)
                .protocol(Protocol::push_pull_async())
                .topology(Topology::Model(model))
                .engine(engine)
                .trials(6)
                .seed(9)
                .build()
                .unwrap()
                .run();
            let via_factory = SimSpec::on_graph(&g)
                .protocol(Protocol::push_pull_async())
                .topology(Topology::custom(model))
                .engine(engine)
                .trials(6)
                .seed(9)
                .build()
                .unwrap()
                .run();
            assert_eq!(via_enum.outcomes, via_factory.outcomes, "{engine:?}");
        }
    }

    #[test]
    fn trace_topology_replays_deterministically() {
        let g = generators::gnp_connected(24, 0.3, &mut Xoshiro256PlusPlus::seed_from(6), 100);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0));
        let trace = TopologyTrace::record(
            RngContract::V1,
            &g,
            0,
            model.build_state().as_mut(),
            &mut Xoshiro256PlusPlus::seed_from(7),
            40.0,
        );
        let spec = SimSpec::on_graph(&g)
            .protocol(Protocol::push_pull_async())
            .topology(Topology::Trace(trace))
            .trials(5)
            .seed(3);
        let a = spec.clone().build().unwrap().run();
        let b = spec.clone().build().unwrap().run();
        assert_eq!(a, b);
        // The lazy cursor replays the sequential replay seed-for-seed.
        let lazy = spec.engine(Engine::Lazy).build().unwrap().run();
        assert_eq!(lazy.outcome_pairs(), a.outcome_pairs());
    }

    #[test]
    fn coupled_runs_report_paired_outcomes() {
        let g = generators::gnp_connected(24, 0.3, &mut Xoshiro256PlusPlus::seed_from(8), 100);
        let spec = SimSpec::on_graph(&g)
            .protocol(Protocol::push_pull_async())
            .topology(Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))))
            .coupled(true)
            .trials(6)
            .seed(12);
        let report = spec.clone().build().unwrap().run();
        assert_eq!(report.unit, Unit::Paired);
        let coupled = report.coupled_outcomes().unwrap();
        assert_eq!(coupled.len(), 6);
        assert!(coupled.iter().all(|o| o.trace_steps > 0));
        assert!(report.telemetry.trace_steps > 0);
        // Engine choice does not change a coupled report: the trace is
        // deterministic and all engines replay it.
        for engine in [Engine::Sharded { shards: 1 }, Engine::Lazy] {
            let other = spec.clone().engine(engine).build().unwrap().run();
            assert_eq!(other.coupled, report.coupled, "{engine:?}");
        }
    }

    #[test]
    fn antithetic_pairs_average_and_reuse_the_trace() {
        let g = generators::gnp_connected(24, 0.3, &mut Xoshiro256PlusPlus::seed_from(9), 100);
        let spec = SimSpec::on_graph(&g)
            .protocol(Protocol::push_pull_async())
            .topology(Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(0.5))))
            .coupled(true)
            .trials(8)
            .seed(13);
        let plain = spec.clone().build().unwrap().run();
        let anti = spec.antithetic(true).build().unwrap().run();
        let p = plain.coupled_outcomes().unwrap();
        let a = anti.coupled_outcomes().unwrap();
        assert_eq!(p.len(), a.len());
        for (x, y) in p.iter().zip(a) {
            // Same trace per trial (same trace seed draw order) …
            assert_eq!(x.trace_steps, y.trace_steps);
            // … and the antithetic value is an average of two runs, so
            // it generally differs from the single-run value.
            assert!(x.sync_completed && y.sync_completed);
        }
        assert!(p.iter().zip(a).any(|(x, y)| x.async_time != y.async_time));
    }

    #[test]
    fn spec_round_trips_through_text() {
        let spec = SimSpec::new(GraphSpec::Gnp { n: 32, p: 0.25, seed: 77, attempts: 200 })
            .source(3)
            .protocol(Protocol::Async { mode: Mode::Push, view: AsyncView::GlobalClock })
            .topology(Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov {
                off_rate: 0.25,
                on_rate: 0.1,
            })))
            .engine(Engine::Sharded { shards: 4 })
            .trials(60)
            .seed(0xC0FFEE)
            .threads(2)
            .max_steps(10_000)
            .coupled(true)
            .horizon(83.17766166719343)
            .antithetic(true);
        let text = spec.to_spec_string().unwrap();
        assert_eq!(SimSpec::parse(&text).unwrap(), spec);
    }

    #[test]
    fn unserializable_components_are_typed_errors() {
        let g = generators::complete(4);
        assert_eq!(
            SimSpec::on_graph(&g).to_spec_string().unwrap_err(),
            SpecError::NotSerializable { what: "a provided graph" }
        );
        let custom = SimSpec::new(GraphSpec::Complete { n: 4 })
            .topology(Topology::custom(DynamicModel::Static));
        assert_eq!(
            custom.to_spec_string().unwrap_err(),
            SpecError::NotSerializable { what: "a custom topology factory" }
        );
    }

    #[test]
    fn static_model_round_trips_distinctly_from_static() {
        // Model(Static) routes through the dynamic engine and resolves
        // dynamic budget defaults, so it must not collapse to Static
        // across a serialization round trip.
        let spec = base_spec()
            .protocol(Protocol::push_pull_async())
            .topology(Topology::Model(DynamicModel::Static));
        let text = spec.to_spec_string().unwrap();
        assert!(text.contains("topology = static-model"), "{text}");
        let reparsed = SimSpec::parse(&text).unwrap();
        assert_eq!(reparsed, spec);
        assert_ne!(reparsed.topology, Topology::Static);
        // The replayed run resolves the same (dynamic) auto budget.
        assert_eq!(reparsed.build().unwrap().max_steps(), spec.build().unwrap().max_steps());
    }

    #[test]
    fn infinity_round_trips() {
        let spec = base_spec().protocol(Protocol::push_pull_async()).topology(Topology::Model(
            DynamicModel::Adversary(Adversary::new(0.5, 4, f64::INFINITY)),
        ));
        let text = spec.to_spec_string().unwrap();
        assert_eq!(SimSpec::parse(&text).unwrap(), spec);
    }

    #[test]
    fn metrics_level_round_trips_through_text() {
        for level in [MetricsLevel::Off, MetricsLevel::Summary, MetricsLevel::Json] {
            let spec = base_spec().metrics(level);
            let text = spec.to_spec_string().unwrap();
            assert!(text.contains(&format!("metrics = {level}")), "{text}");
            assert_eq!(SimSpec::parse(&text).unwrap(), spec);
        }
    }

    #[test]
    fn telemetry_merge_sums_counters_and_keeps_base_edges() {
        let mut a = Telemetry {
            steps: 10,
            topology_events: 2,
            windows: 3,
            cross_events: 1,
            clocks_touched: 5,
            base_edges: 40,
            trace_steps: 7,
        };
        let b = Telemetry {
            steps: 1,
            topology_events: 1,
            windows: 1,
            cross_events: 1,
            clocks_touched: 1,
            base_edges: 8,
            trace_steps: 1,
        };
        a.merge(&b);
        assert_eq!(a.steps, 11);
        assert_eq!(a.topology_events, 3);
        assert_eq!(a.windows, 4);
        assert_eq!(a.cross_events, 2);
        assert_eq!(a.clocks_touched, 6);
        // base_edges is a per-run property, not a counter.
        assert_eq!(a.base_edges, 40);
        assert_eq!(a.trace_steps, 8);
        // Merging from default is the identity.
        let mut from_zero = Telemetry::default();
        from_zero.merge(&a);
        assert_eq!(from_zero, a);
    }

    #[test]
    fn metrics_off_by_default_and_captured_when_enabled() {
        let off = base_spec().trials(6).build().unwrap().run();
        assert!(off.metrics.is_none());
        let on = base_spec().trials(6).metrics(MetricsLevel::Summary).build().unwrap().run();
        let m = on.metrics.as_ref().unwrap();
        assert_eq!(m.trials, 6);
        assert_eq!(m.censored, 0);
        // Metrics capture does not perturb the trial outcomes.
        assert_eq!(on.outcomes, off.outcomes);
        assert_eq!(m.histogram("spreading_time").unwrap().count(), 6);
        let curve = m.curve("informed").unwrap();
        assert_eq!(curve.trials, 6);
        // The mean curve saturates at the full graph.
        assert_eq!(curve.points.last().unwrap().1, 1.0);
    }

    #[test]
    fn sharded_metrics_record_utilization_and_windows() {
        let g = generators::gnp_connected(24, 0.3, &mut Xoshiro256PlusPlus::seed_from(21), 100);
        let report = SimSpec::on_graph(&g)
            .protocol(Protocol::push_pull_async())
            .topology(Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))))
            .engine(Engine::Sharded { shards: 2 })
            .trials(4)
            .metrics(MetricsLevel::Json)
            .build()
            .unwrap()
            .run();
        let m = report.metrics.as_ref().unwrap();
        assert_eq!(m.health.shard_utilization.len(), 2);
        assert!(m.health.shard_utilization.iter().all(|&u| (0.0..=1.0).contains(&u)));
        assert!(m.health.windows.count() > 0);
    }

    #[test]
    fn censored_dynamic_trials_dump_their_event_ring() {
        // A tiny step budget censors every trial; the ring dump must
        // surface the tail of the event stream for the first few.
        let g = generators::gnp_connected(24, 0.3, &mut Xoshiro256PlusPlus::seed_from(22), 100);
        let report = SimSpec::on_graph(&g)
            .protocol(Protocol::push_pull_async())
            .topology(Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))))
            .trials(6)
            .max_steps(3)
            .metrics(MetricsLevel::Json)
            .build()
            .unwrap()
            .run();
        let m = report.metrics.as_ref().unwrap();
        assert_eq!(m.censored, 6);
        assert_eq!(m.health.censor_dumps.len(), MAX_CENSOR_DUMPS);
        assert!(m.health.censor_dumps.iter().all(|d| !d.events.is_empty()));
    }

    #[test]
    fn coupled_metrics_capture_paired_curves() {
        let g = generators::gnp_connected(24, 0.3, &mut Xoshiro256PlusPlus::seed_from(23), 100);
        let report = SimSpec::on_graph(&g)
            .protocol(Protocol::push_pull_async())
            .topology(Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))))
            .coupled(true)
            .trials(4)
            .metrics(MetricsLevel::Json)
            .build()
            .unwrap()
            .run();
        let m = report.metrics.as_ref().unwrap();
        assert_eq!(m.trials, 4);
        let sync_curve = m.curve("sync_informed").unwrap();
        let async_curve = m.curve("async_informed").unwrap();
        assert_eq!(sync_curve.trials, 4);
        assert_eq!(async_curve.trials, 4);
        assert!(m.histogram("sync_rounds").unwrap().count() > 0);
        assert!(m.histogram("async_time").unwrap().count() > 0);
    }
}
