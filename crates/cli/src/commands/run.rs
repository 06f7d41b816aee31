//! `rumor run` — Monte-Carlo spreading-time measurement on a graph file.
//!
//! Every run is composed as one [`SimSpec`] (protocol × topology ×
//! trial plan) and executed through [`SimSpec::build`] /
//! `Simulation::run` — the CLI only translates flags into the builder
//! and renders the [`RunReport`]. Two spec-file hooks make committed
//! experiment lines reproducible from one artifact:
//!
//! * `run <file> [flags…] --emit-spec true` prints the run's spec text
//!   instead of running it;
//! * `run --spec file.spec` replays a saved spec (no other run flags).

use rumor_analysis::PairedSamples;
use rumor_core::dynamic::{
    Adversary, DynamicModel, EdgeMarkov, Mobility, NodeChurn, RandomWalk, Rewire, SnapshotFamily,
};
use rumor_core::spec::{
    GraphSpec, Protocol, RunReport, SimSpec, Simulation, Topology, DEFAULT_COUPLED_MAX_ROUNDS,
};
use rumor_core::{AsyncView, MetricsLevel, Mode};
use rumor_graph::{props, Graph};
use rumor_sim::stats::{quantile, Summary};

use crate::args::Args;
use crate::commands::read_graph;
use crate::error::CliError;

/// Runs the `run` subcommand.
pub fn run(tokens: &[String]) -> Result<String, CliError> {
    let args = Args::parse(tokens)?;
    let q: f64 = args.opt_parsed("quantile", 0.9)?;
    if !(0.0..=1.0).contains(&q) {
        return Err(CliError::Usage("--quantile must be in [0, 1]".into()));
    }

    // `--spec file.spec` replays a saved artifact; it composes with no
    // other run flags (the spec is the whole run — silently ignoring a
    // `--seed` or `--trials` here would look like a sweep that never
    // sweeps). Only the presentation-side `--quantile` and the
    // observability flags (`--metrics`, `--metrics-out`) combine.
    let spec_path = args.opt_str("spec", "");
    if !spec_path.is_empty() {
        if !args.positional().is_empty() {
            return Err(CliError::Usage("run --spec takes no <file> argument".into()));
        }
        let extra = args.keys_outside(&["spec", "quantile", "metrics", "metrics-out"]);
        if !extra.is_empty() {
            return Err(CliError::Usage(format!(
                "run --spec takes no other run flags (the spec file is the whole run); \
                 remove --{}",
                extra.join(", --")
            )));
        }
        let text = std::fs::read_to_string(&spec_path)?;
        let mut spec = SimSpec::parse(&text)?;
        if let Some(level) = opt_metrics(&args)? {
            spec = spec.metrics(level);
        }
        let artifact = metrics_artifact_path(&args, Some(&spec_path), spec.metrics)?;
        let sim = build_connected(&spec)?;
        return finish(&spec, &sim, &sim.run(), q, artifact);
    }

    let spec = spec_from_args(&args)?;
    let artifact = metrics_artifact_path(&args, None, spec.metrics)?;
    if args.opt_parsed("emit-spec", false)? {
        // Validate before emitting, so a saved artifact always builds.
        build_connected(&spec)?;
        return Ok(spec.to_spec_string()?);
    }
    let sim = build_connected(&spec)?;
    finish(&spec, &sim, &sim.run(), q, artifact)
}

/// Renders the report, appends the metrics summary, and writes the
/// `.metrics.json` artifact for `--metrics json` runs.
fn finish(
    spec: &SimSpec,
    sim: &Simulation,
    report: &RunReport,
    q: f64,
    artifact: Option<std::path::PathBuf>,
) -> Result<String, CliError> {
    let mut out = render(spec, sim, report, q);
    if let Some(m) = &report.metrics {
        for line in m.summary_lines() {
            out.push_str(&line);
            out.push('\n');
        }
        if spec.metrics == MetricsLevel::Json {
            let path = artifact.expect("json level always resolves an artifact path");
            std::fs::write(&path, m.render_json())?;
            out.push_str(&format!("metrics artifact: {}\n", path.display()));
        }
    }
    Ok(out)
}

/// The `--metrics` flag, when present.
fn opt_metrics(args: &Args) -> Result<Option<MetricsLevel>, CliError> {
    let raw = args.opt_str("metrics", "");
    if raw.is_empty() {
        return Ok(None);
    }
    raw.parse().map(Some).map_err(|e| CliError::Usage(format!("--metrics: {e}")))
}

/// Where the `.metrics.json` artifact goes: `--metrics-out` wins, a
/// `--spec` run defaults to the spec path with a `.metrics.json`
/// extension, and a flag-composed run falls back to `run.metrics.json`
/// in the working directory. `None` unless the level writes JSON.
fn metrics_artifact_path(
    args: &Args,
    spec_path: Option<&str>,
    level: MetricsLevel,
) -> Result<Option<std::path::PathBuf>, CliError> {
    let out_flag = args.opt_str("metrics-out", "");
    if level != MetricsLevel::Json {
        if !out_flag.is_empty() {
            return Err(CliError::Usage("--metrics-out requires --metrics json".into()));
        }
        return Ok(None);
    }
    if !out_flag.is_empty() {
        return Ok(Some(out_flag.into()));
    }
    Ok(Some(match spec_path {
        Some(p) => std::path::Path::new(p).with_extension("metrics.json"),
        None => "run.metrics.json".into(),
    }))
}

/// Builds the spec and rejects disconnected graphs (the rumor could
/// never reach every node).
fn build_connected(spec: &SimSpec) -> Result<Simulation, CliError> {
    let sim = spec.build()?;
    if !props::is_connected(sim.graph()) {
        return Err(CliError::Usage(
            "graph is disconnected; the rumor cannot reach every node".into(),
        ));
    }
    Ok(sim)
}

/// Every flag a flag-composed run reads.
const RUN_FLAGS: &[&str] = &[
    "antithetic",
    "attach",
    "churn",
    "coupled",
    "cut-budget",
    "cut-rate",
    "dynamic-model",
    "emit-spec",
    "heal",
    "horizon",
    "join",
    "leave",
    "loss",
    "metrics",
    "metrics-out",
    "mode",
    "model",
    "move-rate",
    "period",
    "quantile",
    "radius",
    "seed",
    "source",
    "step",
    "threads",
    "trials",
];

/// Translates the flag set into a [`SimSpec`].
fn spec_from_args(args: &Args) -> Result<SimSpec, CliError> {
    let path = args.require(0, "file")?;
    if args.positional().len() > 1 {
        return Err(CliError::Usage("run takes exactly one <file> argument".into()));
    }
    // An unknown flag is a typo, not a default: rejecting it keeps a
    // misspelled `--dynamic-model` from silently running static.
    let unknown = args.keys_outside(RUN_FLAGS);
    if !unknown.is_empty() {
        return Err(CliError::Usage(format!("unknown run flag --{}", unknown.join(", --"))));
    }
    // Stdin graphs cannot be re-read at build time; files become a
    // serializable `GraphSpec::File` so `--emit-spec` round-trips.
    let graph_spec = if path == "-" {
        GraphSpec::Provided(read_graph(path)?)
    } else {
        GraphSpec::File(path.to_owned())
    };
    let g = graph_spec.resolve()?;

    let model = args.opt_str("model", "sync");
    let mode = match args.opt_str("mode", "pushpull").as_str() {
        "push" => Mode::Push,
        "pull" => Mode::Pull,
        "pushpull" | "push-pull" => Mode::PushPull,
        other => return Err(CliError::Usage(format!("unknown --mode `{other}`"))),
    };
    let source: u32 = args.opt_parsed("source", 0)?;
    let trials: usize = args.opt_parsed("trials", 100)?;
    let seed: u64 = args.opt_parsed("seed", 42)?;
    let loss: f64 = args.opt_parsed("loss", 0.0)?;
    let threads: usize = args.opt_parsed("threads", 1)?;
    let coupled: bool = args.opt_parsed("coupled", false)?;
    if model != "sync" && model != "async" {
        return Err(CliError::Usage(format!("unknown --model `{model}`")));
    }

    let topology = match args.opt_str("dynamic-model", "none").as_str() {
        "none" => Topology::Static,
        name => Topology::Model(parse_dynamic_model(args, name, &g)?),
    };
    let topology_is_static = matches!(topology, Topology::Static);

    let protocol = if model == "sync" && !coupled {
        Protocol::Sync { mode }
    } else {
        Protocol::Async { mode, view: AsyncView::GlobalClock }
    };

    let mut spec = SimSpec::new(graph_spec)
        .source(source)
        .protocol(protocol)
        .topology(topology)
        .trials(trials)
        .seed(seed)
        .threads(threads)
        .loss(loss)
        .coupled(coupled);
    if let Some(level) = opt_metrics(args)? {
        spec = spec.metrics(level);
    }
    if protocol.is_sync() && !topology_is_static {
        // A synchronous run on a model records the realization up to
        // its round budget, which a spec must state; the flag path uses
        // the budget of a coupled run's synchronous half.
        spec = spec.max_rounds(DEFAULT_COUPLED_MAX_ROUNDS);
    }
    if coupled {
        if let Some(h) = opt_f64(args, "horizon")? {
            spec = spec.horizon(h);
        }
        spec = spec.antithetic(args.opt_parsed("antithetic", false)?);
    }
    Ok(spec)
}

/// An optional f64 flag: `None` when absent.
fn opt_f64(args: &Args, key: &str) -> Result<Option<f64>, CliError> {
    let raw = args.opt_str(key, "");
    if raw.is_empty() {
        return Ok(None);
    }
    raw.parse().map(Some).map_err(|_| CliError::Usage(format!("cannot parse --{key} from `{raw}`")))
}

/// Builds the `--dynamic-model` model; [`SimSpec::build`] checks its parameters.
fn parse_dynamic_model(args: &Args, dynamic: &str, g: &Graph) -> Result<DynamicModel, CliError> {
    Ok(match dynamic {
        "markov" => {
            let nu = args.opt_parsed("churn", 1.0)?;
            DynamicModel::EdgeMarkov(EdgeMarkov { off_rate: nu, on_rate: nu })
        }
        "rewire" => DynamicModel::Rewire(Rewire {
            period: args.opt_parsed("period", 4.0)?,
            family: SnapshotFamily::matching_density(g),
        }),
        "node-churn" => DynamicModel::NodeChurn(NodeChurn {
            leave_rate: args.opt_parsed("leave", 0.1)?,
            join_rate: args.opt_parsed("join", 1.0)?,
            attach_degree: args.opt_parsed("attach", 2)?,
        }),
        "walk" => DynamicModel::RandomWalk(RandomWalk { rate: args.opt_parsed("churn", 1.0)? }),
        "mobility" => DynamicModel::Mobility(Mobility {
            move_rate: args.opt_parsed("move-rate", 1.0)?,
            // Default radius matches the base graph's edge density, so
            // mobility runs are comparable with the other models.
            radius: args.opt_parsed("radius", Mobility::matching_density(g, 1.0, 0.1).radius)?,
            step: args.opt_parsed("step", 0.1)?,
        }),
        "adversary" => DynamicModel::Adversary(Adversary {
            rate: args.opt_parsed("cut-rate", 1.0)?,
            budget: args.opt_parsed("cut-budget", 4)?,
            heal_after: args.opt_parsed("heal", 1.0)?,
        }),
        other => {
            return Err(CliError::Usage(format!(
                "unknown --dynamic-model `{other}`; supported: markov, rewire, node-churn, walk, \
                 mobility, adversary"
            )))
        }
    })
}

/// Renders a report: the paired block for coupled runs, the statistics
/// block otherwise. Deterministic for a given spec (no wall-clock), so
/// a committed spec's output can be diffed byte-for-byte.
fn render(spec: &SimSpec, sim: &Simulation, report: &RunReport, q: f64) -> String {
    if spec.plan.coupled {
        render_coupled(spec, sim, report)
    } else {
        render_stats(spec, sim, report, q)
    }
}

/// The `, threads T` header suffix.
fn header_suffix(spec: &SimSpec, out: &mut String) {
    if spec.plan.threads > 1 {
        out.push_str(&format!(", threads {}", spec.plan.threads));
    }
}

fn render_stats(spec: &SimSpec, sim: &Simulation, report: &RunReport, q: f64) -> String {
    let model = if spec.protocol.is_sync() { "sync" } else { "async" };
    let mode = spec.protocol.mode();
    let samples = report.values();
    let incomplete = report.censored();
    let trials = report.trials();
    let s = Summary::from_slice(&samples);
    let mut out = String::new();
    out.push_str(&format!(
        "{model} {mode} from node {} on {} nodes, {trials} trials (seed {}",
        spec.source,
        sim.graph().node_count(),
        spec.plan.master_seed
    ));
    if spec.loss > 0.0 {
        out.push_str(&format!(", loss {}", spec.loss));
    }
    if !spec.topology.is_static() {
        out.push_str(&format!(", dynamic {}", spec.topology.label()));
    }
    header_suffix(spec, &mut out);
    out.push_str(")\n");
    out.push_str(&format!("  mean:   {:>10.3} {}\n", s.mean, report.unit));
    out.push_str(&format!("  median: {:>10.3}\n", s.median));
    out.push_str(&format!("  stddev: {:>10.3}\n", s.stddev));
    out.push_str(&format!("  min:    {:>10.3}\n", s.min));
    out.push_str(&format!("  q{:<5}: {:>10.3}\n", q, quantile(&samples, q)));
    out.push_str(&format!("  max:    {:>10.3}\n", s.max));
    if incomplete > 0 {
        out.push_str(&format!(
            "  warning: {incomplete}/{trials} trials hit the step budget before informing every \
             node;\n  the statistics above understate the true spreading time\n"
        ));
    }
    out
}

fn render_coupled(spec: &SimSpec, sim: &Simulation, report: &RunReport) -> String {
    let outcomes = report.coupled_outcomes().expect("coupled plan reports coupled outcomes");
    let samples = PairedSamples::from_coupled(outcomes);
    let trials = report.trials();
    let mut out = String::new();
    out.push_str(&format!(
        "coupled sync/async {} from node {} on {} nodes, {trials} trials (seed {}, \
         dynamic {}, horizon {:.1}",
        spec.protocol.mode(),
        spec.source,
        sim.graph().node_count(),
        spec.plan.master_seed,
        spec.topology.label(),
        sim.horizon()
    ));
    if spec.plan.antithetic {
        out.push_str(", antithetic");
    }
    header_suffix(spec, &mut out);
    out.push_str(")\n");
    let cell = |v: Option<f64>| match v {
        Some(x) => format!("{x:>10.3}"),
        None => format!("{:>10}", "-"),
    };
    out.push_str(&format!("  E[rounds_sync]:   {}\n", cell(samples.mean_sync())));
    out.push_str(&format!("  E[T_async]:       {}\n", cell(samples.mean_async())));
    out.push_str(&format!("  async/sync:       {}\n", cell(samples.ratio_of_means())));
    out.push_str(&format!("  corr(sync,async): {}\n", cell(samples.correlation())));
    out.push_str(&format!("  ci95 paired:      {}\n", cell(samples.paired_ci_half_width())));
    out.push_str(&format!("  ci95 independent: {}\n", cell(samples.unpaired_ci_half_width())));
    out.push_str(&format!("  ci shrink:        {}\n", cell(samples.ci_shrink_factor())));
    if samples.censored > 0 {
        out.push_str(&format!(
            "  warning: {}/{} trials censored (budget exhausted on either side) and excluded \
             from the pairing\n",
            samples.censored, trials
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_graph(edge_list: &str, extra: &[&str]) -> Result<String, CliError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "rumor_run_test_{}_{}.txt",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, edge_list).unwrap();
        let mut tokens = vec![path.to_str().unwrap().to_string()];
        tokens.extend(extra.iter().map(|s| (*s).to_string()));
        let out = run(&tokens);
        std::fs::remove_file(&path).ok();
        out
    }

    const TRIANGLE: &str = "3 3\n0 1\n1 2\n0 2\n";

    #[test]
    fn sync_run_reports_statistics() {
        let out = with_graph(TRIANGLE, &["--trials", "30"]).unwrap();
        assert!(out.contains("sync push-pull"));
        assert!(out.contains("mean"));
        assert!(out.contains("rounds"));
    }

    #[test]
    fn async_run_reports_time_units() {
        let out = with_graph(TRIANGLE, &["--model", "async", "--trials", "30"]).unwrap();
        assert!(out.contains("time units"));
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let a = with_graph(TRIANGLE, &["--trials", "20", "--seed", "5"]).unwrap();
        let b = with_graph(TRIANGLE, &["--trials", "20", "--seed", "5"]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn validates_options() {
        assert!(with_graph(TRIANGLE, &["--mode", "zigzag"]).is_err());
        assert!(with_graph(TRIANGLE, &["--model", "psychic"]).is_err());
        assert!(with_graph(TRIANGLE, &["--source", "9"]).is_err());
        assert!(with_graph(TRIANGLE, &["--loss", "1.0"]).is_err());
        assert!(with_graph(TRIANGLE, &["--trials", "0"]).is_err());
        assert!(with_graph(TRIANGLE, &["--quantile", "1.5"]).is_err());
    }

    #[test]
    fn rejects_disconnected_graphs() {
        let err = with_graph("4 2\n0 1\n2 3\n", &[]).unwrap_err();
        assert!(err.to_string().contains("disconnected"));
    }

    #[test]
    fn loss_flag_is_reflected_in_output() {
        let out = with_graph(TRIANGLE, &["--loss", "0.5", "--trials", "20"]).unwrap();
        assert!(out.contains("loss 0.5"));
    }

    #[test]
    fn dynamic_models_run_under_async() {
        for (flag, printed) in
            [("markov", "edge-markov"), ("rewire", "rewire"), ("node-churn", "node-churn")]
        {
            let out = with_graph(
                TRIANGLE,
                &["--model", "async", "--dynamic-model", flag, "--trials", "20"],
            )
            .unwrap();
            assert!(out.contains(&format!("dynamic {printed}")), "{out}");
            assert!(out.contains("time units"));
        }
    }

    #[test]
    fn dynamic_model_flag_selects_the_new_models() {
        for (flag, printed) in [
            ("markov", "edge-markov"),
            ("rewire", "rewire"),
            ("walk", "walk"),
            ("mobility", "mobility"),
            ("adversary", "adversary"),
        ] {
            let out = with_graph(
                TRIANGLE,
                &["--model", "async", "--dynamic-model", flag, "--trials", "10"],
            )
            .unwrap();
            assert!(out.contains(&format!("dynamic {printed}")), "{flag}: {out}");
            assert!(out.contains("time units"), "{flag}: {out}");
        }
    }

    #[test]
    fn dynamic_model_flag_validates() {
        // Unknown models.
        assert!(with_graph(TRIANGLE, &["--model", "async", "--dynamic-model", "psychic"]).is_err());
        assert!(
            with_graph(TRIANGLE, &["--model", "async", "--dynamic-model", "edge-markov"]).is_err()
        );
        // Model-specific parameter validation.
        assert!(with_graph(
            TRIANGLE,
            &["--model", "async", "--dynamic-model", "adversary", "--cut-budget", "0"]
        )
        .is_err());
        assert!(with_graph(
            TRIANGLE,
            &["--model", "async", "--dynamic-model", "mobility", "--radius", "0"]
        )
        .is_err());
        assert!(with_graph(
            TRIANGLE,
            &["--model", "async", "--dynamic-model", "walk", "--churn", "-2"]
        )
        .is_err());
        // `--heal inf` is the permanent-removal adversary and is legal.
        let out = with_graph(
            TRIANGLE,
            &["--model", "async", "--dynamic-model", "adversary", "--heal", "inf", "--trials", "5"],
        )
        .unwrap();
        assert!(out.contains("dynamic adversary"), "{out}");
    }

    #[test]
    fn dynamic_models_run_synchronously() {
        for (flags, printed) in [
            (&["--dynamic-model", "rewire", "--period", "2"][..], "rewire"),
            (&["--dynamic-model", "rewire", "--period", "2.5"], "rewire"),
            (&["--dynamic-model", "markov"], "edge-markov"),
            (&["--dynamic-model", "walk"], "walk"),
        ] {
            let out = with_graph(TRIANGLE, &[flags, &["--trials", "20"]].concat()).unwrap();
            assert!(out.contains(&format!("dynamic {printed}")), "{out}");
            assert!(out.contains("rounds"), "{out}");
        }
    }

    #[test]
    fn validates_dynamic_options() {
        assert!(with_graph(TRIANGLE, &["--dynamic-model", "warp"]).is_err());
        assert!(with_graph(
            TRIANGLE,
            &["--model", "async", "--dynamic-model", "markov", "--churn", "-1"]
        )
        .is_err());
        // Loss runs on every topology model.
        assert!(with_graph(
            TRIANGLE,
            &["--model", "async", "--dynamic-model", "rewire", "--loss", "0.5"]
        )
        .is_ok());
        assert!(with_graph(
            TRIANGLE,
            &["--model", "async", "--dynamic-model", "node-churn", "--attach", "0"]
        )
        .is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // A misspelled flag must not silently fall back to a default —
        // here, a static run.
        let err =
            with_graph(TRIANGLE, &["--model", "async", "--trials", "3", "--dynamc", "rewire"])
                .unwrap_err();
        assert!(err.to_string().contains("unknown run flag --dynamc"), "{err}");
        // The retired `--dynamic` spelling is just another unknown flag.
        let err = with_graph(TRIANGLE, &["--model", "async", "--dynamic", "rewire"]).unwrap_err();
        assert!(err.to_string().contains("unknown run flag --dynamic"), "{err}");
        // `--emit-spec` mode checks its flags too.
        assert!(with_graph(TRIANGLE, &["--emit-spec", "true", "--seeed", "3"]).is_err());
    }

    #[test]
    fn incomplete_dynamic_trials_warn() {
        // All three nodes leave almost immediately and never rejoin, so
        // the rumor cannot finish; the CLI must say so.
        let out = with_graph(
            TRIANGLE,
            &[
                "--model",
                "async",
                "--dynamic-model",
                "node-churn",
                "--leave",
                "50",
                "--join",
                "0",
                "--trials",
                "3",
            ],
        )
        .unwrap();
        assert!(out.contains("warning: 3/3 trials"), "{out}");
    }

    #[test]
    fn threads_do_not_change_results() {
        let a = with_graph(TRIANGLE, &["--trials", "24", "--seed", "9"]).unwrap();
        let b = with_graph(TRIANGLE, &["--trials", "24", "--seed", "9", "--threads", "4"]).unwrap();
        // Identical statistics; the header differs by the threads note.
        assert_eq!(a.lines().skip(1).collect::<Vec<_>>(), b.lines().skip(1).collect::<Vec<_>>());
        assert!(b.contains("threads 4"));
        assert!(with_graph(TRIANGLE, &["--threads", "0"]).is_err());
    }

    #[test]
    fn coupled_runs_report_paired_statistics() {
        let out = with_graph(
            TRIANGLE,
            &["--coupled", "true", "--dynamic-model", "markov", "--trials", "12"],
        )
        .unwrap();
        assert!(out.contains("coupled sync/async"), "{out}");
        assert!(out.contains("ci95 paired"), "{out}");
        assert!(out.contains("ci95 independent"), "{out}");
        assert!(out.contains("dynamic edge-markov"), "{out}");
        // The trace cursor replays every model, the frontier adversary
        // included.
        let out = with_graph(
            TRIANGLE,
            &["--coupled", "true", "--dynamic-model", "adversary", "--trials", "8"],
        )
        .unwrap();
        assert!(out.contains("dynamic adversary"), "{out}");
        // Validation.
        assert!(with_graph(TRIANGLE, &["--coupled", "true", "--loss", "0.2"]).is_err());
        assert!(
            with_graph(TRIANGLE, &["--coupled", "true", "--model", "psychic"]).is_err(),
            "unknown --model must be rejected on coupled runs too"
        );
        assert!(with_graph(
            TRIANGLE,
            &["--coupled", "true", "--horizon", "-1", "--dynamic-model", "markov"]
        )
        .is_err());
    }

    #[test]
    fn antithetic_coupled_runs_report_and_validate() {
        let base =
            ["--coupled", "true", "--dynamic-model", "markov", "--trials", "10", "--seed", "5"];
        let plain = with_graph(TRIANGLE, &base).unwrap();
        let mut anti = base.to_vec();
        anti.extend(["--antithetic", "true"]);
        let anti = with_graph(TRIANGLE, &anti).unwrap();
        assert!(anti.contains("antithetic"), "{anti}");
        assert_ne!(plain, anti, "antithetic pair averages differ from single runs");
        // Antithetic pairing without coupling is rejected (the spec
        // ignores the flag unless coupled; direct spec runs reject it —
        // see SpecError::AntitheticNeedsCoupling tests).
    }

    #[test]
    fn dynamic_run_is_deterministic_per_seed() {
        let flags =
            ["--model", "async", "--dynamic-model", "markov", "--trials", "15", "--seed", "3"];
        let a = with_graph(TRIANGLE, &flags).unwrap();
        let b = with_graph(TRIANGLE, &flags).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn metrics_summary_appends_lines_and_json_writes_artifact() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let stamp = format!("{}_{}", std::process::id(), COUNTER.fetch_add(1, Ordering::Relaxed));

        let summary = with_graph(TRIANGLE, &["--trials", "10", "--metrics", "summary"]).unwrap();
        assert!(summary.contains("metrics: 10 trials, 0 censored (rounds)"), "{summary}");
        assert!(summary.contains("spreading_time: mean"), "{summary}");
        assert!(summary.contains("curve informed:"), "{summary}");
        assert!(!summary.contains("metrics artifact:"), "{summary}");

        let artifact = std::env::temp_dir().join(format!("rumor_metrics_{stamp}.json"));
        let json_out = with_graph(
            TRIANGLE,
            &["--trials", "10", "--metrics", "json", "--metrics-out", artifact.to_str().unwrap()],
        )
        .unwrap();
        assert!(json_out.contains("metrics artifact:"), "{json_out}");
        let text = std::fs::read_to_string(&artifact).unwrap();
        assert!(text.contains("\"schema\": \"rumor-metrics v1\""), "{text}");
        std::fs::remove_file(&artifact).ok();

        // Validation: level names and --metrics-out gating.
        assert!(with_graph(TRIANGLE, &["--metrics", "loud"]).is_err());
        assert!(with_graph(TRIANGLE, &["--metrics-out", "x.json"]).is_err());
        assert!(with_graph(TRIANGLE, &["--metrics", "summary", "--metrics-out", "x.json"]).is_err());
    }

    #[test]
    fn spec_replay_composes_with_metrics_flags() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let stamp = format!("{}_{}", std::process::id(), COUNTER.fetch_add(1, Ordering::Relaxed));
        let graph_path = std::env::temp_dir().join(format!("rumor_mspec_graph_{stamp}.txt"));
        std::fs::write(&graph_path, TRIANGLE).unwrap();
        let spec_text = run(&[
            graph_path.to_str().unwrap().to_string(),
            "--trials".into(),
            "10".into(),
            "--emit-spec".into(),
            "true".into(),
        ])
        .unwrap();
        let spec_path = std::env::temp_dir().join(format!("rumor_mspec_{stamp}.spec"));
        std::fs::write(&spec_path, &spec_text).unwrap();

        // --metrics json on replay writes next to the spec by default.
        let out = run(&[
            "--spec".to_string(),
            spec_path.to_str().unwrap().to_string(),
            "--metrics".into(),
            "json".into(),
        ])
        .unwrap();
        let artifact = spec_path.with_extension("metrics.json");
        assert!(out.contains("metrics artifact:"), "{out}");
        assert!(artifact.exists(), "artifact written next to the spec");
        std::fs::remove_file(&artifact).ok();
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&spec_path).ok();
    }

    #[test]
    fn emit_spec_round_trips_through_spec_file() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let stamp = format!("{}_{}", std::process::id(), COUNTER.fetch_add(1, Ordering::Relaxed));
        let graph_path = std::env::temp_dir().join(format!("rumor_spec_graph_{stamp}.txt"));
        std::fs::write(&graph_path, TRIANGLE).unwrap();
        let graph = graph_path.to_str().unwrap().to_string();

        // 1. Compose a run from flags and emit its spec.
        let flags = [
            "--model",
            "async",
            "--dynamic-model",
            "markov",
            "--trials",
            "15",
            "--seed",
            "3",
            "--emit-spec",
            "true",
        ];
        let mut tokens = vec![graph.clone()];
        tokens.extend(flags.iter().map(|s| (*s).to_string()));
        let spec_text = run(&tokens).unwrap();
        assert!(spec_text.contains("spec = v1"), "{spec_text}");
        assert!(spec_text.contains("topology = markov"), "{spec_text}");

        // 2. Replaying the artifact gives byte-identical output to the
        // flag run.
        let spec_path = std::env::temp_dir().join(format!("rumor_spec_{stamp}.spec"));
        std::fs::write(&spec_path, &spec_text).unwrap();
        let mut direct = vec![graph.clone()];
        direct.extend(flags[..flags.len() - 2].iter().map(|s| (*s).to_string()));
        let direct_out = run(&direct).unwrap();
        let replayed =
            run(&["--spec".to_string(), spec_path.to_str().unwrap().to_string()]).unwrap();
        assert_eq!(direct_out, replayed);

        // 3. --spec composes with nothing else: positional graphs and
        // other run flags are rejected, not silently ignored.
        let spec_flag = ["--spec".to_string(), spec_path.to_str().unwrap().to_string()];
        assert!(run(&[graph, spec_flag[0].clone(), spec_flag[1].clone()]).is_err());
        for extra in [["--seed", "9"], ["--trials", "50"], ["--emit-spec", "true"]] {
            let mut tokens = spec_flag.to_vec();
            tokens.extend(extra.iter().map(|s| (*s).to_string()));
            let err = run(&tokens).unwrap_err().to_string();
            assert!(err.contains("no other run flags"), "{extra:?}: {err}");
            assert!(err.contains(extra[0].trim_start_matches('-')), "{extra:?}: {err}");
        }
        // …while the presentation-side --quantile still combines.
        let mut tokens = spec_flag.to_vec();
        tokens.extend(["--quantile".to_string(), "0.5".to_string()]);
        assert!(run(&tokens).is_ok());
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&spec_path).ok();
    }
}
