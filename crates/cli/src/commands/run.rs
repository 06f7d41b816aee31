//! `rumor run` — Monte-Carlo spreading-time measurement on a graph file.
//!
//! A run is one [`SimSpec`], and its flags speak the `.spec` grammar:
//! `rumor run <file|-> [--KEY VALUE]…` writes `spec = v1`,
//! `graph = file <file>` and one `KEY = VALUE` line per flag, and hands
//! the text to [`SimSpec::parse`]. `KEY` is any spec key except `spec`,
//! `graph`, `engine` and `rng_contract`; `VALUE` is that key's spec
//! value, for example
//! `--protocol "async mode=push-pull view=global-clock" --topology "walk rate=1"`.
//! Four flags are the CLI's own:
//!
//! * `--quantile Q` picks the quantile row of the report;
//! * `--metrics-out PATH` places the `--metrics json` artifact;
//! * `--emit-spec true` prints the run's spec text instead of running it;
//! * `--spec file.spec` replays a saved spec (only `--quantile`,
//!   `--metrics` and `--metrics-out` combine with it).

use rumor_analysis::PairedSamples;
use rumor_core::spec::{GraphSpec, RunReport, SimSpec, Simulation, SpecError};
use rumor_core::MetricsLevel;
use rumor_graph::props;
use rumor_sim::stats::{quantile, Summary};

use crate::args::Args;
use crate::commands::read_graph;
use crate::error::CliError;

/// The flags that shape what the CLI prints or writes, not the run.
const CLI_FLAGS: &[&str] = &["quantile", "metrics-out", "emit-spec", "spec"];

/// Spec keys no flag sets: the CLI writes `spec` and `graph` itself,
/// and `engine` and `rng_contract` have one legal value each.
const FIXED_KEYS: &[&str] = &["spec", "graph", "engine", "rng_contract"];

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
    let spec = if spec_path.is_empty() {
        spec_from_args(&args)?
    } else {
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
        parse_with_flags(&std::fs::read_to_string(&spec_path)?, &args)?
    };
    let from_file = (!spec_path.is_empty()).then_some(spec_path.as_str());
    let artifact = metrics_artifact_path(&args, from_file, spec.metrics)?;
    // Built before `--emit-spec` prints it, so a saved artifact builds.
    let sim = build_connected(&spec)?;
    if args.opt_parsed("emit-spec", false)? {
        return Ok(spec.to_spec_string()?);
    }
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

/// Composes the spec of `rumor run <file> [--KEY VALUE]…`.
fn spec_from_args(args: &Args) -> Result<SimSpec, CliError> {
    let path = args.require(0, "file")?;
    if args.positional().len() > 1 {
        return Err(CliError::Usage("run takes exactly one <file> argument".into()));
    }
    // An unknown flag is a typo or a retired spelling, not a default:
    // rejecting it keeps a misspelled `--topology` from silently
    // running static.
    let keys = flag_keys();
    let unknown: Vec<&str> = args
        .options()
        .into_iter()
        .map(|(key, _)| key)
        .filter(|key| !CLI_FLAGS.contains(key) && !keys.iter().any(|k| k == key))
        .collect();
    if !unknown.is_empty() {
        return Err(CliError::Usage(format!("unknown run flag --{}", unknown.join(", --"))));
    }
    if path.contains(['\n', '\r']) {
        return Err(CliError::Usage("<file> cannot contain a line break".into()));
    }
    let mut spec = parse_with_flags(&format!("spec = v1\ngraph = file {path}\n"), args)?;
    // Stdin cannot be re-read at build time: its graph is read once
    // and provided (so `--emit-spec` has no text form for it).
    if path == "-" {
        spec.graph = GraphSpec::Provided(read_graph(path)?);
    }
    Ok(spec)
}

/// The spec keys a flag may set: every key of the canonical spec text
/// except [`FIXED_KEYS`].
fn flag_keys() -> Vec<String> {
    let canonical = SimSpec::new(GraphSpec::Complete { n: 2 })
        .to_spec_string()
        .expect("a generated graph has a text form");
    canonical
        .lines()
        .filter_map(|line| line.split_once(" = "))
        .map(|(key, _)| key)
        .filter(|key| !FIXED_KEYS.contains(key))
        .map(str::to_owned)
        .collect()
}

/// Parses `base` with one `KEY = VALUE` line appended per spec-key
/// flag. Flag values are outside input: a line break in one is refused
/// (it would write a second spec line), and a parse error in an
/// appended line names its flag.
fn parse_with_flags(base: &str, args: &Args) -> Result<SimSpec, CliError> {
    // Without a `spec = v1` line the base fails on its own; appended,
    // its error would land on a flag's line.
    if base.lines().all(|line| line.trim().is_empty() || line.trim().starts_with('#')) {
        return Ok(SimSpec::parse(base)?);
    }
    let flags: Vec<(&str, &str)> =
        args.options().into_iter().filter(|(key, _)| !CLI_FLAGS.contains(key)).collect();
    let mut text = base.to_owned();
    if !text.ends_with('\n') {
        text.push('\n');
    }
    let first = text.lines().count() + 1;
    for (key, value) in &flags {
        if value.contains(['\n', '\r']) {
            return Err(CliError::Usage(format!("--{key}: a value cannot contain a line break")));
        }
        text.push_str(&format!("{key} = {value}\n"));
    }
    SimSpec::parse(&text).map_err(|e| match e {
        SpecError::Parse { line, message } if line >= first => {
            CliError::Usage(format!("--{}: {message}", flags[line - first].0))
        }
        other => other.into(),
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
    const ASYNC: &str = "async mode=push-pull view=global-clock";

    /// One topology value per model.
    const MODELS: [(&str, &str); 6] = [
        ("markov off=1 on=1", "edge-markov"),
        ("rewire period=4 family=gnp p=1", "rewire"),
        ("node-churn leave=0.1 join=1 attach=2", "node-churn"),
        ("walk rate=1", "walk"),
        ("mobility move=1 radius=0.5 step=0.1", "mobility"),
        ("adversary rate=1 budget=4 heal=1", "adversary"),
    ];

    fn usage_error(out: Result<String, CliError>) -> String {
        match out {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn sync_run_reports_statistics() {
        let out = with_graph(TRIANGLE, &["--trials", "30"]).unwrap();
        assert!(out.contains("sync push-pull"));
        assert!(out.contains("mean"));
        assert!(out.contains("rounds"));
    }

    #[test]
    fn async_run_reports_time_units() {
        let out = with_graph(TRIANGLE, &["--protocol", ASYNC, "--trials", "30"]).unwrap();
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
        assert!(with_graph(TRIANGLE, &["--protocol", "sync mode=zigzag"]).is_err());
        assert!(with_graph(TRIANGLE, &["--protocol", "psychic mode=push"]).is_err());
        assert!(with_graph(TRIANGLE, &["--source", "9"]).is_err());
        assert!(with_graph(TRIANGLE, &["--loss", "1.0"]).is_err());
        assert!(with_graph(TRIANGLE, &["--trials", "0"]).is_err());
        assert!(with_graph(TRIANGLE, &["--quantile", "1.5"]).is_err());
    }

    #[test]
    fn flag_values_are_outside_input() {
        // A line break would smuggle a second spec line past the flag.
        let msg = usage_error(with_graph(TRIANGLE, &["--trials", "5\nloss = 0.5"]));
        assert!(msg.starts_with("--trials: "), "{msg}");
        assert!(msg.contains("line break"), "{msg}");
        // A bad value names its flag, not a spec line the user never
        // wrote.
        let msg = usage_error(with_graph(TRIANGLE, &["--seed", "1", "--trials", "x"]));
        assert_eq!(msg, "--trials: cannot parse trials `x`");
        let msg = usage_error(with_graph(TRIANGLE, &["--topology", "walk rate=-2"]));
        assert!(msg.starts_with("--topology: "), "{msg}");
        assert!(!msg.contains("spec line"), "{msg}");
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
    fn every_model_runs_under_async() {
        for (topology, printed) in MODELS {
            let out = with_graph(
                TRIANGLE,
                &["--protocol", ASYNC, "--topology", topology, "--trials", "10"],
            )
            .unwrap();
            assert!(out.contains(&format!("dynamic {printed}")), "{topology}: {out}");
            assert!(out.contains("time units"), "{topology}: {out}");
        }
    }

    #[test]
    fn topology_values_are_validated() {
        let bad =
            |topology: &str| with_graph(TRIANGLE, &["--protocol", ASYNC, "--topology", topology]);
        // Unknown models.
        assert!(bad("psychic").is_err());
        assert!(bad("edge-markov off=1 on=1").is_err());
        assert!(bad("warp").is_err());
        // Model-specific parameter validation.
        assert!(bad("adversary rate=1 budget=0 heal=1").is_err());
        assert!(bad("mobility move=1 radius=0 step=0.1").is_err());
        assert!(bad("walk rate=-2").is_err());
        assert!(bad("markov off=-1 on=1").is_err());
        assert!(bad("node-churn leave=0.1 join=1 attach=0").is_err());
        // `heal=inf` is the permanent-removal adversary and is legal.
        let out = with_graph(
            TRIANGLE,
            &[
                "--protocol",
                ASYNC,
                "--topology",
                "adversary rate=1 budget=4 heal=inf",
                "--trials",
                "5",
            ],
        )
        .unwrap();
        assert!(out.contains("dynamic adversary"), "{out}");
        // Loss runs on every topology model.
        assert!(with_graph(
            TRIANGLE,
            &["--protocol", ASYNC, "--topology", MODELS[1].0, "--loss", "0.5"]
        )
        .is_ok());
    }

    #[test]
    fn dynamic_models_run_synchronously_with_a_round_budget() {
        for (topology, printed) in [
            ("rewire period=2 family=gnp p=1", "rewire"),
            ("rewire period=2.5 family=gnp p=1", "rewire"),
            (MODELS[0].0, "edge-markov"),
            (MODELS[3].0, "walk"),
        ] {
            let flags = ["--topology", topology, "--trials", "20"];
            let out =
                with_graph(TRIANGLE, &[&flags[..], &["--max_rounds", "20000"]].concat()).unwrap();
            assert!(out.contains(&format!("dynamic {printed}")), "{out}");
            assert!(out.contains("rounds"), "{out}");
            // As in a spec file, the round budget must be stated.
            let err = with_graph(TRIANGLE, &flags).unwrap_err();
            assert!(matches!(err, CliError::Spec(SpecError::SyncNeedsRoundBudget { .. })), "{err}");
        }
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // A misspelled flag must not silently fall back to a default —
        // here, a static run.
        let err = with_graph(TRIANGLE, &["--trials", "3", "--topolgy", "walk rate=1"]).unwrap_err();
        assert!(err.to_string().contains("unknown run flag --topolgy"), "{err}");
        // The retired flags, the renamed spellings of spec fields, are
        // unknown flags, and so are the keys the CLI writes or fixes.
        for flag in [
            "model",
            "mode",
            "dynamic-model",
            "dynamic",
            "churn",
            "period",
            "leave",
            "join",
            "attach",
            "move-rate",
            "radius",
            "step",
            "cut-rate",
            "cut-budget",
            "heal",
            "graph",
            "engine",
            "rng_contract",
        ] {
            let msg = usage_error(with_graph(TRIANGLE, &[&format!("--{flag}"), "1"]));
            assert_eq!(msg, format!("unknown run flag --{flag}"));
        }
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
                "--protocol",
                ASYNC,
                "--topology",
                "node-churn leave=50 join=0 attach=2",
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
        let coupled = |topology: &str, trials: &str| {
            with_graph(TRIANGLE, &["--coupled", "true", "--topology", topology, "--trials", trials])
        };
        let out = coupled(MODELS[0].0, "12").unwrap();
        assert!(out.contains("coupled sync/async"), "{out}");
        assert!(out.contains("ci95 paired"), "{out}");
        assert!(out.contains("ci95 independent"), "{out}");
        assert!(out.contains("dynamic edge-markov"), "{out}");
        // The trace cursor replays every model, the frontier adversary
        // included.
        let out = coupled(MODELS[5].0, "8").unwrap();
        assert!(out.contains("dynamic adversary"), "{out}");
        // Validation.
        assert!(with_graph(TRIANGLE, &["--coupled", "true", "--loss", "0.2"]).is_err());
        assert!(
            with_graph(TRIANGLE, &["--coupled", "true", "--protocol", "psychic mode=push"])
                .is_err(),
            "an unknown protocol must be rejected on coupled runs too"
        );
        assert!(with_graph(
            TRIANGLE,
            &["--coupled", "true", "--horizon", "-1", "--topology", MODELS[0].0]
        )
        .is_err());
    }

    #[test]
    fn antithetic_coupled_runs_report_and_validate() {
        let base =
            ["--coupled", "true", "--topology", MODELS[0].0, "--trials", "10", "--seed", "5"];
        let plain = with_graph(TRIANGLE, &base).unwrap();
        let mut anti = base.to_vec();
        anti.extend(["--antithetic", "true"]);
        let anti = with_graph(TRIANGLE, &anti).unwrap();
        assert!(anti.contains("antithetic"), "{anti}");
        assert_ne!(plain, anti, "antithetic pair averages differ from single runs");
        // Antithetic pairing without coupling is rejected, as in a spec
        // file.
        let err = with_graph(TRIANGLE, &["--antithetic", "true"]).unwrap_err();
        assert!(matches!(err, CliError::Spec(SpecError::AntitheticNeedsCoupling)), "{err}");
    }

    #[test]
    fn dynamic_run_is_deterministic_per_seed() {
        let flags =
            ["--protocol", ASYNC, "--topology", MODELS[0].0, "--trials", "15", "--seed", "3"];
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

        // An empty spec is refused as a spec, not blamed on `--metrics`.
        std::fs::write(&spec_path, "# no directives\n").unwrap();
        let spec_flag = ["--spec".to_string(), spec_path.to_str().unwrap().to_string()];
        let err = run(&[&spec_flag[..], &["--metrics".into(), "summary".into()]].concat())
            .unwrap_err()
            .to_string();
        assert_eq!(err, "spec line 1: missing `spec = v1` directive");
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
            "--protocol",
            ASYNC,
            "--topology",
            "markov off=1 on=1",
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
