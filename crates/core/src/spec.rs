//! The unified run API: one typed builder for every experiment shape.
//!
//! Every run in this workspace is an instance of one abstract
//! experiment: a **protocol** (synchronous rounds or asynchronous
//! clocks, push/pull/push–pull) on a **topology** (static, or one of
//! the dynamic evolution models) over a **trial plan** (seeded
//! Monte-Carlo trials, optionally coupled sync/async pairs on shared
//! traces). The engine follows from those axes: static graphs run the
//! static engines, asynchronous runs on a topology model the sequential
//! merged-stream engine, and every run that replays a recorded trace
//! (a coupled trial, or a synchronous run on a model) the lockstep trace
//! replay ([`run_coupled_dynamic`]), on a realization recorded on demand.
//! [`SimSpec`] names those three axes once; [`SimSpec::build`] validates
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
//! use rumor_core::spec::{GraphSpec, Protocol, SimSpec, Topology};
//! use rumor_core::dynamic::{DynamicModel, EdgeMarkov};
//!
//! // Asynchronous push–pull under symmetric edge-Markov churn on a
//! // seeded G(n, p), 40 trials.
//! let spec = SimSpec::new(GraphSpec::Gnp { n: 48, p: 0.17, seed: 7, attempts: 200 })
//!     .protocol(Protocol::push_pull_async())
//!     .topology(Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))))
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
//! use rumor_core::spec::{GraphSpec, Protocol, SimSpec, SpecError, Topology};
//! use rumor_core::dynamic::{Adversary, DynamicModel};
//! use rumor_core::{AsyncView, Mode};
//!
//! // The dynamic engines are written in the global-clock view; the
//! // node-clock view exists only on static graphs.
//! let err = SimSpec::new(GraphSpec::Complete { n: 8 })
//!     .protocol(Protocol::Async { mode: Mode::PushPull, view: AsyncView::NodeClocks })
//!     .topology(Topology::Model(DynamicModel::Adversary(Adversary::new(0.5, 4, 1.0))))
//!     .build()
//!     .unwrap_err();
//! assert!(matches!(err, SpecError::ViewUnsupported { .. }));
//! ```

use std::fmt;
use std::sync::Arc;

pub mod cache;
pub mod sweep;

use rumor_graph::{generators, io, Graph, Node, MAX_NODES};
use rumor_sim::events::RNG_CONTRACT;
use rumor_sim::rng::Xoshiro256PlusPlus;

use crate::asynchronous::{run_async_probed, AsyncView};
use crate::dynamic::{
    run_dynamic_with, Adversary, DynamicModel, EdgeMarkov, Mobility, NodeChurn, RandomWalk, Rewire,
    SnapshotFamily,
};
use crate::engine::{
    run_coupled_dynamic, run_sync_dynamic, CoupledReplays, TraceRecording, TraceRef,
};
use crate::mode::Mode;
use crate::obs::{
    CensorDump, CurveSummary, LogHistogram, MetricsLevel, NoProbe, Probe, ProbeEvent, RingProbe,
    RunMetrics, SpreadingCurve,
};
use crate::outcome::{AsyncOutcome, SyncOutcome};
use crate::runner::{default_max_steps, run_trials_parallel};
use crate::spread::SpreadConfig;
use crate::sync::run_sync_probed;

/// Per-trial curves are downsampled to this many samples before
/// aggregation, bounding memory on long runs.
const CURVE_SAMPLES: usize = 256;

/// Aggregated mean curves live on a uniform grid of this many intervals.
const CURVE_GRID: usize = 64;

/// Events retained by the censor ring probe on uncoupled dynamic
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

/// The topology axis: what the protocol spreads over.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// The base graph, frozen.
    Static,
    /// One of the built-in evolution models.
    Model(DynamicModel),
}

impl Topology {
    /// Whether the topology evolves during a run.
    pub fn is_static(&self) -> bool {
        matches!(self, Topology::Static)
    }

    /// Display label (used in errors and CLI headers).
    pub fn label(&self) -> String {
        match self {
            Topology::Static => "static".to_owned(),
            Topology::Model(m) => model_label(m).to_owned(),
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
    /// Synchronous round budget; `None` picks a generous default. An
    /// uncoupled synchronous run on a topology model must set it: it
    /// is the horizon of the realization the run records.
    pub max_rounds: Option<u64>,
    /// Run BOTH protocols per trial over one shared topology trace with
    /// a common protocol seed, reporting paired outcomes.
    pub coupled: bool,
    /// Trace-recording horizon (a cap) for coupled runs; `None` picks
    /// [`default_coupled_horizon`].
    pub horizon: Option<f64>,
    /// Coupled runs only: replay each trace with two protocol seeds,
    /// the trial's protocol seed and its bitwise complement
    /// `!proto_seed`, and report the averages of the two runs. The
    /// complement seed is simply a second seed: nothing makes the two
    /// runs negatively correlated, so this is two protocol realizations
    /// per recorded trace, not an antithetic-variates estimator. (The
    /// name is the spec key's.)
    pub antithetic: bool,
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
    /// The `rows × cols` grid with open boundary.
    Grid {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// The complete binary tree on `n` nodes.
    BinaryTree {
        /// Node count.
        n: usize,
    },
    /// A path of `spine` nodes, each carrying `legs` leaves.
    Caterpillar {
        /// Spine length.
        spine: usize,
        /// Leaves per spine node.
        legs: usize,
    },
    /// Two joined centers with `left` and `right` leaves.
    DoubleStar {
        /// Leaves of center 0.
        left: usize,
        /// Leaves of center 1.
        right: usize,
    },
    /// The string of `k` diamonds of `m` two-hop paths each, the
    /// paper's separation witness (source: hub 0).
    Diamonds {
        /// Diamond count.
        k: usize,
        /// Internal paths per diamond.
        m: usize,
    },
    /// One Chung–Lu power-law draw (not conditioned on connectivity).
    ChungLu {
        /// Node count.
        n: usize,
        /// Power-law exponent.
        beta: f64,
        /// Target average degree.
        avg: f64,
        /// Generator seed.
        seed: u64,
    },
    /// Preferential attachment, `m` edges per arriving node.
    PreferentialAttachment {
        /// Node count.
        n: usize,
        /// Edges per arriving node.
        m: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl GraphSpec {
    /// Builds (or reads) the graph this spec describes. Each family's
    /// rules are checked here, before it is built, so a bad parameter
    /// is a [`SpecError::InvalidGraph`] that quotes the graph value.
    pub fn resolve(&self) -> Result<Graph, SpecError> {
        let invalid = |msg: String| SpecError::InvalidGraph(msg);
        let need = |ok: bool, rule: &str| {
            if ok {
                Ok(())
            } else {
                Err(invalid(format!("`{}` needs {rule}", graph_to_text(self)?)))
            }
        };
        let exhausted = |family: &str, attempts: usize| {
            invalid(format!("{family} found no connected sample within attempts={attempts}"))
        };
        let rng = Xoshiro256PlusPlus::seed_from;
        self.check_node_count()?;
        match *self {
            GraphSpec::Provided(ref g) => Ok(g.clone()),
            GraphSpec::File(ref path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| invalid(format!("cannot read `{path}`: {e}")))?;
                io::from_edge_list(&text).map_err(|e| invalid(format!("bad edge list: {e}")))
            }
            GraphSpec::Gnp { n, p, seed, attempts } => {
                let rule = "n >= 2, p in (0, 1], attempts > 0";
                need(n >= 2 && p > 0.0 && p <= 1.0 && attempts > 0, rule)?;
                generators::try_gnp_connected(n, p, &mut rng(seed), attempts)
                    .ok_or_else(|| exhausted("gnp", attempts))
            }
            GraphSpec::RandomRegular { n, d, seed, attempts } => {
                let rule = "0 < d < n, n*d even, attempts > 0";
                need(d > 0 && d < n && (n * d).is_multiple_of(2) && attempts > 0, rule)?;
                generators::try_random_regular_connected(n, d, &mut rng(seed), attempts)
                    .ok_or_else(|| exhausted("random-regular", attempts))
            }
            GraphSpec::Hypercube { dim } => {
                need((1..=24).contains(&dim), "dim in [1, 24]").map(|()| generators::hypercube(dim))
            }
            GraphSpec::Complete { n } => need(n >= 2, "n >= 2").map(|()| generators::complete(n)),
            GraphSpec::Path { n } => need(n >= 2, "n >= 2").map(|()| generators::path(n)),
            GraphSpec::Cycle { n } => need(n >= 3, "n >= 3").map(|()| generators::cycle(n)),
            GraphSpec::Star { n } => need(n >= 2, "n >= 2").map(|()| generators::star(n)),
            GraphSpec::Necklace { cliques, size } => {
                need(cliques > 0 && size >= 2, "cliques > 0, size >= 2")
                    .map(|()| generators::necklace_of_cliques(cliques, size))
            }
            GraphSpec::Torus { rows, cols } => need(rows >= 3 && cols >= 3, "rows, cols >= 3")
                .map(|()| generators::torus(rows, cols)),
            GraphSpec::Grid { rows, cols } => {
                need(rows > 0 && cols > 0 && rows * cols >= 2, "rows, cols > 0 and 2 nodes")
                    .map(|()| generators::grid(rows, cols))
            }
            GraphSpec::BinaryTree { n } => {
                need(n >= 2, "n >= 2").map(|()| generators::complete_binary_tree(n))
            }
            GraphSpec::Caterpillar { spine, legs } => {
                need(spine >= 2, "spine >= 2").map(|()| generators::caterpillar(spine, legs))
            }
            GraphSpec::DoubleStar { left, right } => need(left > 0 && right > 0, "left, right > 0")
                .map(|()| generators::double_star(left, right)),
            GraphSpec::Diamonds { k, m } => {
                need(k > 0 && m > 0, "k, m > 0").map(|()| generators::string_of_diamonds(k, m))
            }
            GraphSpec::ChungLu { n, beta, avg, seed } => {
                let ok = n >= 2 && beta > 2.0 && beta.is_finite() && avg > 0.0 && avg.is_finite();
                need(ok, "n >= 2, finite beta > 2, finite avg > 0")?;
                Ok(generators::chung_lu(n, beta, avg, &mut rng(seed)))
            }
            GraphSpec::PreferentialAttachment { n, m, seed } => {
                need(m > 0 && n > m.saturating_add(1), "m > 0, n > m + 1")?;
                Ok(generators::preferential_attachment(n, m, &mut rng(seed)))
            }
        }
    }

    /// Rejects a generated family whose node count does not fit a
    /// [`Node`], before any of it is allocated.
    fn check_node_count(&self) -> Result<(), SpecError> {
        use GraphSpec::*;
        let nodes = match *self {
            Provided(_) | File(_) | Hypercube { .. } => return Ok(()),
            Gnp { n, .. } | RandomRegular { n, .. } => Some(n),
            Complete { n } | Path { n } | Cycle { n } | Star { n } | BinaryTree { n } => Some(n),
            ChungLu { n, .. } | PreferentialAttachment { n, .. } => Some(n),
            Necklace { cliques, size } => cliques.checked_mul(size),
            Torus { rows, cols } | Grid { rows, cols } => rows.checked_mul(cols),
            Caterpillar { spine, legs } => legs.checked_add(1).and_then(|l| spine.checked_mul(l)),
            DoubleStar { left, right } => left.checked_add(right).and_then(|l| l.checked_add(2)),
            Diamonds { k, m } => {
                k.checked_mul(m).and_then(|km| km.checked_add(k)).and_then(|x| x.checked_add(1))
            }
        };
        match nodes {
            Some(n) if n <= MAX_NODES => Ok(()),
            _ => Err(SpecError::InvalidGraph(format!(
                "`{}` has more than {MAX_NODES} nodes",
                graph_to_text(self)?
            ))),
        }
    }
}

/// Everything that can be wrong with a [`SimSpec`] — the one place the
/// legal combination rules live (the checks previously scattered over
/// the CLI and the runner helpers).
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A spec text had no `graph = …` line.
    MissingGraph,
    /// Graph parameters are invalid, the file is unreadable, no connected
    /// sample turned up, or the run's engine cannot skip an isolated node.
    InvalidGraph(String),
    /// Model parameters break [`DynamicModel::check`] or misfit the graph.
    InvalidTopology(String),
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
    /// An uncoupled synchronous run on a topology model needs an
    /// explicit round budget: it is the horizon of the realization the
    /// run records.
    SyncNeedsRoundBudget {
        /// Label of the offending topology.
        model: String,
    },
    /// Loss probability outside `[0, 1)`.
    InvalidLoss {
        /// The offending value.
        loss: f64,
    },
    /// Message loss is only modelled on uncoupled runs.
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
    /// The requested clock view is not available on this run shape.
    ViewUnsupported {
        /// The requested view.
        view: AsyncView,
        /// Why it is unavailable.
        why: &'static str,
    },
    /// The spec contains a component with no text representation
    /// (provided graphs, recorded traces).
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
            SpecError::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
            SpecError::SourceOutOfRange { source, nodes } => {
                write!(f, "source {source} out of range for {nodes} nodes")
            }
            SpecError::ZeroTrials => write!(f, "trials must be positive"),
            SpecError::ZeroThreads => write!(f, "threads must be positive"),
            SpecError::SyncNeedsRoundBudget { model } => write!(
                f,
                "a synchronous run on `{model}` records the topology up to its round budget; \
                 set `max_rounds` explicitly (the automatic budget is sized for static graphs)"
            ),
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
/// (E23's regime). The horizon is a cap, not a cost: coupled trials
/// record their trace only as far as their replays read it, so a
/// larger horizon records nothing more unless a replay runs that long.
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
    /// The trial-plan axis.
    pub plan: TrialPlan,
    /// Per-exchange message-loss probability (uncoupled runs only).
    pub loss: f64,
    /// How much observability the run records (off by default; probes
    /// compile out of the hot loops when off).
    pub metrics: MetricsLevel,
}

impl SimSpec {
    /// A spec with the given graph and every other axis at its default:
    /// synchronous push–pull, static topology, 100 trials at seed 42 on one thread, no loss, metrics off.
    pub fn new(graph: GraphSpec) -> Self {
        Self {
            graph,
            source: 0,
            protocol: Protocol::push_pull_sync(),
            topology: Topology::Static,
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

    /// Enables two protocol seeds per trace on coupled runs (see
    /// [`TrialPlan::antithetic`]).
    pub fn antithetic(mut self, antithetic: bool) -> Self {
        self.plan.antithetic = antithetic;
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
        if let Some(h) = plan.horizon {
            if !(h > 0.0 && h.is_finite()) {
                return Err(SpecError::InvalidHorizon { horizon: h });
            }
        }
        if let Topology::Model(model) = &self.topology {
            model.check().map_err(SpecError::InvalidTopology)?;
        }
        let g = match caches {
            Some(c) => c.resolve_graph(&self.graph)?,
            None => self.graph.resolve()?,
        };
        let nodes = g.node_count();
        if self.source as usize >= nodes {
            return Err(SpecError::SourceOutOfRange { source: self.source, nodes });
        }
        // The static and sequential dynamic engines assert against
        // isolated nodes; replays of a recorded trace skip them.
        let recorded = matches!(self.topology, Topology::Model(_));
        let replayed = plan.coupled || (self.protocol.is_sync() && recorded);
        if !replayed && nodes >= 2 && g.has_isolated_nodes() {
            return Err(SpecError::InvalidGraph(
                "graph has isolated nodes, which only trace replays can skip".to_owned(),
            ));
        }
        if let Topology::Model(DynamicModel::Rewire(Rewire {
            family: SnapshotFamily::RandomRegular { d },
            ..
        })) = self.topology
        {
            // The snapshot generator's own preconditions, checked here
            // because only the resolved graph fixes n.
            if d == 0 || d >= nodes || nodes * d % 2 != 0 {
                return Err(SpecError::InvalidTopology(format!(
                    "random-regular snapshots need 0 < d < n and n*d even (got n={nodes}, d={d})"
                )));
            }
        }
        if self.protocol.is_sync() && !plan.coupled && recorded && plan.max_rounds.is_none() {
            return Err(SpecError::SyncNeedsRoundBudget { model: self.topology.label() });
        }
        if let Protocol::Async { view, .. } = self.protocol {
            if (!self.topology.is_static() || plan.coupled) && view != AsyncView::GlobalClock {
                return Err(SpecError::ViewUnsupported {
                    view,
                    why: "dynamic topologies and coupled runs are written in the global-clock \
                          view",
                });
            }
        }
        if self.loss > 0.0 && plan.coupled {
            return Err(SpecError::LossUnsupported { with: "coupled runs".to_owned() });
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
    /// Effective topology changes the trial's replays read: the steps
    /// of the shared trace with time at or before the furthest time any
    /// of its replays reached (the last async tick, or `r − 1` after `r`
    /// sync rounds; antithetic trials take the furthest of all four
    /// replays). It depends neither on the cache state nor on the
    /// horizon unless a replay ran past it.
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
    /// Coupled runs: [`CoupledOutcome::trace_steps`] (the trace steps
    /// each trial's replays read), summed over trials.
    pub trace_steps: u64,
}

impl Telemetry {
    /// Accumulates another (per-trial or partial) telemetry bundle into
    /// this one: every counter sums. The one merge path every engine's
    /// report assembly flows through.
    pub fn merge(&mut self, other: &Telemetry) {
        self.steps += other.steps;
        self.topology_events += other.topology_events;
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
                Protocol::Sync { .. } => self.run_sync_trials(),
                Protocol::Async { view, .. } => self.run_async_trials(view),
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

    fn run_sync_trials(&self) -> RunReport {
        let g = &self.graph;
        let n = g.node_count();
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
        let config = self.spread_config();
        let records: Vec<TrialRecord> = match &self.spec.topology {
            Topology::Static => self.fan_out(|_, rng| {
                sync_rec(run_sync_probed(g, &config, rng, max_rounds, &mut NoProbe))
            }),
            // The sync half of a coupled trial: the same two sub-seeds,
            // and the realization recorded on demand up to the last
            // round boundary the run can read.
            Topology::Model(_) => self.fan_out(|_, rng| {
                let trace_seed = rng.next_u64();
                let proto_seed = rng.next_u64();
                let mut rec = self.start_recording(trace_seed, max_rounds as f64);
                let proto_rng = &mut Xoshiro256PlusPlus::seed_from(proto_seed);
                sync_rec(run_sync_dynamic(&mut rec, &config, proto_rng, max_rounds))
            }),
        };
        assemble(Unit::Rounds, records, self.spec.metrics)
    }

    fn run_async_trials(&self, view: AsyncView) -> RunReport {
        let g = &self.graph;
        let max_steps = self.max_steps;
        let capture = self.spec.metrics.is_enabled();
        let async_rec = |out: &AsyncOutcome| {
            let rec = TrialRecord::new(async_trial(out));
            if capture {
                rec.with_curve(SpreadingCurve::from_informed_times(&out.informed_time))
            } else {
                rec
            }
        };
        let config = self.spread_config();
        let records: Vec<TrialRecord> = match &self.spec.topology {
            Topology::Static => self.fan_out(|_, rng| {
                async_rec(&run_async_probed(g, &config, view, rng, max_steps, &mut NoProbe))
            }),
            Topology::Model(model) => self.fan_out(|_, rng| {
                if !capture {
                    return async_rec(&self.dynamic_run(model, &config, rng, &mut NoProbe));
                }
                let mut ring = RingProbe::new(RING_CAP);
                let out = self.dynamic_run(model, &config, rng, &mut ring);
                let mut rec = async_rec(&out);
                // Censored trials dump their event tail.
                if !out.completed {
                    rec.dump = Some(ring.into_events());
                }
                rec
            }),
        };
        assemble(Unit::TimeUnits, records, self.spec.metrics)
    }

    /// The engines' configuration: the spec's source, mode and loss.
    fn spread_config(&self) -> SpreadConfig {
        let mode = self.spec.protocol.mode();
        SpreadConfig::new(self.spec.source).with_mode(mode).with_loss_probability(self.spec.loss)
    }

    /// Starts recording the spec's topology from the trace seed, up to
    /// `horizon`.
    fn start_recording(&self, trace_seed: u64, horizon: f64) -> TraceRecording {
        let state = match &self.spec.topology {
            Topology::Static => DynamicModel::Static.build_state(),
            Topology::Model(m) => m.build_state(),
        };
        let trace_rng = Xoshiro256PlusPlus::seed_from(trace_seed);
        TraceRecording::start(&self.graph, self.spec.source, state, trace_rng, horizon)
    }

    /// Runs one asynchronous trial on `model`, observed by `probe`: the
    /// sequential engine over the model's boxed state.
    fn dynamic_run<P: Probe>(
        &self,
        model: &DynamicModel,
        config: &SpreadConfig,
        rng: &mut Xoshiro256PlusPlus,
        probe: &mut P,
    ) -> AsyncOutcome {
        let g = &self.graph;
        run_dynamic_with(g, config, model.build_state().as_mut(), rng, self.max_steps, probe)
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
        // Two sub-seeds per trial: one for the shared topology
        // realization, one used by BOTH protocol runs (common random
        // numbers).
        let trace_seed = rng.next_u64();
        let proto_seed = rng.next_u64();
        // The realization is recorded on demand: only as far as the
        // replays read it, capped by the horizon.
        let start = || self.start_recording(trace_seed, self.horizon);
        // The recording is a pure function of (spec axes, trace seed):
        // cache-bound simulations resume it across runs. The trial RNG
        // is not consumed by the recording, so a hit replays the miss
        // path bit-for-bit.
        match self.caches.as_ref().and_then(cache::CacheBinding::trace_key) {
            Some((caches, prefix)) => caches.with_trace(prefix, trace_seed, start, |rec| {
                self.coupled_on_trace(rec.into(), proto_seed)
            }),
            None => self.coupled_on_trace((&mut start()).into(), proto_seed),
        }
    }

    /// The trial's replays of `trace`: a synchronous and an asynchronous
    /// one on the protocol seed (and on its complement, antithetic),
    /// run in lockstep on one graph, so the trace is walked once
    /// however many replays read it ([`run_coupled_dynamic`]). Each
    /// replay keeps its own RNG, so each is the separate replay, seed
    /// for seed.
    fn coupled_on_trace(
        &self,
        mut trace: TraceRef<'_>,
        proto_seed: u64,
    ) -> (CoupledOutcome, Vec<CurvePair>) {
        // The complement seed reuses the same trace with a second
        // protocol realization; the (expensive, shared) trace is
        // recorded and applied once.
        let seeds: &[u64] =
            if self.spec.plan.antithetic { &[proto_seed, !proto_seed] } else { &[proto_seed] };
        let rngs = || seeds.iter().map(|&s| Xoshiro256PlusPlus::seed_from(s)).collect::<Vec<_>>();
        let (mut sync_rngs, mut async_rngs) = (rngs(), rngs());
        let CoupledReplays { sync, asynchronous } = run_coupled_dynamic(
            &mut trace,
            &self.spread_config(),
            &mut sync_rngs,
            &mut async_rngs,
            self.max_rounds,
            self.max_steps,
        );
        let curves = if self.spec.metrics.is_enabled() {
            let n = self.graph.node_count();
            sync.iter()
                .zip(&asynchronous)
                .map(|(s, a)| {
                    (
                        SpreadingCurve::from_round_counts(&s.informed_by_round, n)
                            .downsample(CURVE_SAMPLES),
                        SpreadingCurve::from_informed_times(&a.informed_time)
                            .downsample(CURVE_SAMPLES),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        // The furthest time any replay read: its last async tick, or
        // `r − 1` after `r` sync rounds.
        let reach = sync
            .iter()
            .map(|s| s.rounds.saturating_sub(1) as f64)
            .chain(asynchronous.iter().map(|a| a.time))
            .fold(0.0, f64::max);
        // Antithetic plans average the pair.
        let k = seeds.len() as f64;
        let out = CoupledOutcome {
            sync_rounds: sync.iter().map(|s| s.rounds as f64).sum::<f64>() / k,
            sync_completed: sync.iter().all(|s| s.completed),
            async_time: asynchronous.iter().map(|a| a.time).sum::<f64>() / k,
            async_completed: asynchronous.iter().all(|a| a.completed),
            // Counted against the replays' reach, not against what
            // happens to be recorded (a cache hit may have recorded
            // further).
            trace_steps: trace.trace().times().partition_point(|&time| time <= reach),
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

fn async_trial(out: &AsyncOutcome) -> TrialOutcome {
    TrialOutcome {
        value: out.time,
        completed: out.completed,
        steps: out.steps,
        topology_events: out.topology_events,
    }
}

/// Everything one trial contributes to report assembly: the outcome,
/// the trial's own telemetry slice, and — on metrics-enabled runs — its
/// spreading curve and censor ring dump.
struct TrialRecord {
    outcome: TrialOutcome,
    telemetry: Telemetry,
    curve: Option<SpreadingCurve>,
    dump: Option<Vec<(f64, ProbeEvent)>>,
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
        Self { outcome, telemetry, curve: None, dump: None }
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

    // Engine health: censor ring dumps, summary display only.
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

// ---------------------------------------------------------------------------
// Text serialization
// ---------------------------------------------------------------------------

const SPEC_VERSION: &str = "v1";

impl SimSpec {
    /// Serializes the spec to the line-based `key = value` text format.
    ///
    /// Every field is written explicitly (budgets and the horizon write
    /// `auto` when unset), so `parse(to_spec_string(spec)) == spec` for
    /// every serializable spec. Provided graphs and recorded traces have
    /// no text form and return [`SpecError::NotSerializable`].
    pub fn to_spec_string(&self) -> Result<String, SpecError> {
        let mut s = String::new();
        s.push_str("# rumor-spreading run spec\n");
        s.push_str(&format!("spec = {SPEC_VERSION}\n"));
        s.push_str(&format!("graph = {}\n", graph_to_text(&self.graph)?));
        s.push_str(&format!("source = {}\n", self.source));
        s.push_str(&format!("protocol = {}\n", protocol_to_text(&self.protocol)));
        s.push_str(&format!("topology = {}\n", topology_to_text(&self.topology)));
        // The engine follows from the other axes; the line stays so
        // that every committed artifact keeps its bytes.
        s.push_str("engine = sequential\n");
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
        s.push_str(&format!("rng_contract = {RNG_CONTRACT}\n"));
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
        let mut version_seen = false;
        // The line of an `engine = lazy`, checked against the plan once
        // every line is read.
        let mut lazy_line = None;
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
                "engine" => {
                    lazy_line = engine_from_text(value, lineno)?.then_some(lineno);
                }
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
                // The line names the stream the artifact was recorded
                // under; only the current one replays.
                "rng_contract" => match value {
                    RNG_CONTRACT => {}
                    "v1" => {
                        return Err(err(format!(
                            "rng contract v1 was retired; only `rng_contract = {RNG_CONTRACT}` \
                             replays (rerun the spec to regenerate its artifacts)"
                        )))
                    }
                    other => {
                        return Err(err(format!(
                            "unknown rng contract `{other}` (expected {RNG_CONTRACT})"
                        )))
                    }
                },
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
        if let (Some(line), false) = (lazy_line, spec.plan.coupled) {
            return Err(SpecError::Parse {
                line,
                message: "the lazy engine was removed; `engine = lazy` is read only on a \
                          coupled plan, whose replays run on the trace cursor (write \
                          `engine = sequential`)"
                    .to_owned(),
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
/// fails with a parse error naming missing/garbled fields. A field
/// given twice is an error, and so is one the value never reads
/// ([`done`](Self::done)).
struct Fields<'a> {
    kind: &'a str,
    /// Each field with whether [`get`](Self::get) has read it.
    pairs: Vec<(&'a str, &'a str, bool)>,
    line: usize,
}

impl<'a> Fields<'a> {
    fn split(value: &'a str, line: usize) -> Result<Self, SpecError> {
        let err = |message: String| SpecError::Parse { line, message };
        let mut tokens = value.split_whitespace();
        let kind = tokens.next().ok_or_else(|| err("empty value".to_owned()))?;
        let mut pairs: Vec<(&str, &str, bool)> = Vec::new();
        for tok in tokens {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| err(format!("expected `key=value` field, got `{tok}`")))?;
            if pairs.iter().any(|&(seen, ..)| seen == k) {
                return Err(err(format!("`{kind}` has field `{k}=` twice")));
            }
            pairs.push((k, v, false));
        }
        Ok(Self { kind, pairs, line })
    }

    fn get<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, SpecError> {
        let Some((_, raw, read)) = self.pairs.iter_mut().find(|(k, ..)| *k == key) else {
            return Err(SpecError::Parse {
                line: self.line,
                message: format!("`{}` needs a `{key}=` field", self.kind),
            });
        };
        *read = true;
        parse_num(raw, key, self.line)
    }

    /// Fails on the first field no [`get`](Self::get) read: a typo or
    /// a field this kind does not take.
    fn done(&self) -> Result<(), SpecError> {
        match self.pairs.iter().find(|&&(.., read)| !read) {
            None => Ok(()),
            Some((k, v, _)) => Err(SpecError::Parse {
                line: self.line,
                message: format!("unexpected field `{k}={v}` for `{}`", self.kind),
            }),
        }
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
        GraphSpec::Grid { rows, cols } => format!("grid rows={rows} cols={cols}"),
        GraphSpec::BinaryTree { n } => format!("binary-tree n={n}"),
        GraphSpec::Caterpillar { spine, legs } => format!("caterpillar spine={spine} legs={legs}"),
        GraphSpec::DoubleStar { left, right } => format!("double-star left={left} right={right}"),
        GraphSpec::Diamonds { k, m } => format!("diamonds k={k} m={m}"),
        GraphSpec::ChungLu { n, beta, avg, seed } => {
            format!("chung-lu n={n} beta={} avg={} seed={seed}", fmt_f64(*beta), fmt_f64(*avg))
        }
        GraphSpec::PreferentialAttachment { n, m, seed } => format!("pa n={n} m={m} seed={seed}"),
    })
}

/// Parses a `graph =` value, such as `gnp n=64 p=0.1 seed=1 attempts=200`
/// (the arguments of `rumor gen`). A malformed value is a
/// [`SpecError::InvalidGraph`]: it has no spec line to name.
impl std::str::FromStr for GraphSpec {
    type Err = SpecError;

    fn from_str(value: &str) -> Result<Self, SpecError> {
        graph_from_text(value.trim(), 0).map_err(|e| match e {
            SpecError::Parse { message, .. } => SpecError::InvalidGraph(message),
            other => other,
        })
    }
}

fn graph_from_text(value: &str, line: usize) -> Result<GraphSpec, SpecError> {
    if let Some(path) = value.strip_prefix("file ") {
        return Ok(GraphSpec::File(path.trim().to_owned()));
    }
    let mut f = Fields::split(value, line)?;
    let graph = match f.kind {
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
        "grid" => GraphSpec::Grid { rows: f.get("rows")?, cols: f.get("cols")? },
        "binary-tree" => GraphSpec::BinaryTree { n: f.get("n")? },
        "caterpillar" => GraphSpec::Caterpillar { spine: f.get("spine")?, legs: f.get("legs")? },
        "double-star" => GraphSpec::DoubleStar { left: f.get("left")?, right: f.get("right")? },
        "diamonds" => GraphSpec::Diamonds { k: f.get("k")?, m: f.get("m")? },
        "chung-lu" => GraphSpec::ChungLu {
            n: f.get("n")?,
            beta: f.get("beta")?,
            avg: f.get("avg")?,
            seed: f.get("seed")?,
        },
        "pa" => GraphSpec::PreferentialAttachment {
            n: f.get("n")?,
            m: f.get("m")?,
            seed: f.get("seed")?,
        },
        other => {
            return Err(SpecError::Parse {
                line,
                message: format!("unknown graph family `{other}`"),
            })
        }
    };
    f.done()?;
    Ok(graph)
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
    let mut f = Fields::split(value, line)?;
    let mode = mode_from_text(&f.get::<String>("mode")?, line)?;
    let protocol = match f.kind {
        "sync" => Protocol::Sync { mode },
        "async" => {
            let view = view_from_text(&f.get::<String>("view")?, line)?;
            Protocol::Async { mode, view }
        }
        other => {
            return Err(SpecError::Parse { line, message: format!("unknown protocol `{other}`") })
        }
    };
    f.done()?;
    Ok(protocol)
}

fn family_to_text(family: &SnapshotFamily) -> String {
    match family {
        SnapshotFamily::Gnp { p } => format!("family=gnp p={}", fmt_f64(*p)),
        SnapshotFamily::RandomRegular { d } => format!("family=random-regular d={d}"),
    }
}

fn topology_to_text(topology: &Topology) -> String {
    match topology {
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
    }
}

fn topology_from_text(value: &str, line: usize) -> Result<Topology, SpecError> {
    let mut f = Fields::split(value, line)?;
    let model = match f.kind {
        "static" => return f.done().map(|()| Topology::Static),
        "static-model" => DynamicModel::Static,
        "markov" => {
            DynamicModel::EdgeMarkov(EdgeMarkov { off_rate: f.get("off")?, on_rate: f.get("on")? })
        }
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
            DynamicModel::Rewire(Rewire { period: f.get("period")?, family })
        }
        "node-churn" => DynamicModel::NodeChurn(NodeChurn {
            leave_rate: f.get("leave")?,
            join_rate: f.get("join")?,
            attach_degree: f.get("attach")?,
        }),
        "walk" => DynamicModel::RandomWalk(RandomWalk { rate: f.get("rate")? }),
        "mobility" => DynamicModel::Mobility(Mobility {
            move_rate: f.get("move")?,
            radius: f.get("radius")?,
            step: f.get("step")?,
        }),
        "adversary" => DynamicModel::Adversary(Adversary {
            rate: f.get("rate")?,
            budget: f.get("budget")?,
            heal_after: f.get("heal")?,
        }),
        other => {
            return Err(SpecError::Parse { line, message: format!("unknown topology `{other}`") })
        }
    };
    f.done()?;
    model.check().map_err(|message| SpecError::Parse { line, message })?;
    Ok(Topology::Model(model))
}

/// Reads an `engine =` line: `sequential`, or `lazy`, which artifacts
/// written before the lazy engine's removal carry on coupled plans,
/// where it named the trace cursor. Returns whether the line was `lazy`.
fn engine_from_text(value: &str, line: usize) -> Result<bool, SpecError> {
    let f = Fields::split(value, line)?;
    let lazy = match f.kind {
        "sequential" => false,
        "lazy" => true,
        other => {
            return Err(SpecError::Parse { line, message: format!("unknown engine `{other}`") })
        }
    };
    f.done()?;
    Ok(lazy)
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
    fn node_counts_beyond_node_labels_are_rejected_before_generation() {
        let big = MAX_NODES + 1;
        for spec in [
            GraphSpec::Complete { n: big },
            GraphSpec::Path { n: big },
            GraphSpec::Cycle { n: big },
            GraphSpec::Star { n: big },
            GraphSpec::Torus { rows: 1 << 16, cols: 1 << 16 },
            GraphSpec::Torus { rows: usize::MAX, cols: 3 },
            GraphSpec::Necklace { cliques: 1 << 17, size: 1 << 15 },
            GraphSpec::Necklace { cliques: 3, size: usize::MAX },
            GraphSpec::Grid { rows: usize::MAX, cols: 2 },
            GraphSpec::BinaryTree { n: big },
            GraphSpec::Caterpillar { spine: 2, legs: usize::MAX },
            GraphSpec::DoubleStar { left: usize::MAX - 1, right: 1 },
            GraphSpec::Diamonds { k: usize::MAX, m: 1 },
            GraphSpec::Diamonds { k: MAX_NODES / 2 + 1, m: 1 },
            GraphSpec::ChungLu { n: big, beta: 2.5, avg: 2.0, seed: 1 },
            GraphSpec::PreferentialAttachment { n: big, m: 1, seed: 1 },
        ] {
            let err = spec.resolve().unwrap_err();
            assert!(
                matches!(&err, SpecError::InvalidGraph(msg) if msg.contains("more than")),
                "{spec:?}: {err}"
            );
        }
    }

    #[test]
    fn uncoupled_runs_need_a_graph_without_isolated_nodes() {
        // Node 3 has no neighbor for the static engines or the
        // sequential dynamic engine to contact.
        let g = io::from_edge_list("4 2\n0 1\n1 2\n").unwrap();
        let markov = Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0)));
        let spec = SimSpec::new(GraphSpec::Provided(g.clone()))
            .protocol(Protocol::push_pull_async())
            .trials(2);
        for rejected in [
            spec.clone(),
            spec.clone().topology(markov.clone()),
            spec.clone().protocol(Protocol::push_pull_sync()),
        ] {
            let err = rejected.build().unwrap_err();
            assert!(matches!(&err, SpecError::InvalidGraph(m) if m.contains("isolated")), "{err}");
        }
        // Trace replays skip an isolated node's turn: coupled runs and
        // synchronous runs on a model build and run (censored).
        for allowed in [
            spec.clone().topology(markov.clone()).coupled(true),
            spec.protocol(Protocol::push_pull_sync()).topology(markov).max_rounds(50),
        ] {
            allowed.build().unwrap().run();
        }
    }

    #[test]
    fn threads_do_not_change_the_report() {
        let spec = base_spec().protocol(Protocol::push_pull_async()).trials(12);
        let serial = spec.clone().build().unwrap().run();
        let parallel = spec.threads(4).build().unwrap().run();
        assert_eq!(serial, parallel);
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
            // Same trace per trial (same trace seed draw order), and the
            // antithetic trial's first pair is the plain trial, so its
            // replays read at least as far …
            assert!(y.trace_steps >= x.trace_steps);
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
    fn telemetry_merge_sums_counters() {
        let mut a = Telemetry { steps: 10, topology_events: 2, trace_steps: 7 };
        let b = Telemetry { steps: 1, topology_events: 1, trace_steps: 1 };
        a.merge(&b);
        assert_eq!(a, Telemetry { steps: 11, topology_events: 3, trace_steps: 8 });
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
