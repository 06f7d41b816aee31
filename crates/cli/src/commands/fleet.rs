//! `rumor sweep`, `rumor worker`, and `rumor serve` — the fleet
//! commands.
//!
//! * `sweep file.spec [--workers N] [--out PATH]` — expand the sweep,
//!   execute it (in-process, or across `N` worker processes), write the
//!   merged `FleetReport` artifact, and print a summary table. The
//!   artifact is byte-identical for every worker count; scheduling
//!   facts (jobs per worker, retries) go to stdout only.
//! * `worker [--exit-after N]` — the child-process end of the
//!   dispatcher protocol: length-prefixed JSON frames on stdin/stdout.
//!   Not for interactive use.
//! * `serve` — the long-running service: the same protocol on
//!   stdin/stdout, with graph and topology-trace caches shared across
//!   requests.

use std::sync::Arc;

use rumor_core::{RunCaches, SweepSpec};
use rumor_fleet::{dispatch, run_frames, DispatchOptions, ServiceConfig, ServiceExit};

use crate::args::Args;
use crate::error::CliError;

/// Parses `tokens` for `command`, refusing any flag outside `flags` and
/// any positional past the first `positionals`, so a mistyped flag or a
/// stray argument is a usage error instead of being silently ignored.
fn parse_only(
    tokens: &[String],
    command: &str,
    flags: &[&str],
    positionals: usize,
) -> Result<Args, CliError> {
    let args = Args::parse(tokens)?;
    let extra = args.keys_outside(flags);
    if !extra.is_empty() {
        return Err(CliError::Usage(format!("unknown {command} options: --{}", extra.join(" --"))));
    }
    if let Some(arg) = args.positional().get(positionals) {
        return Err(CliError::Usage(format!("unexpected {command} argument `{arg}`")));
    }
    Ok(args)
}

/// Runs the `sweep` subcommand.
pub fn sweep(tokens: &[String]) -> Result<String, CliError> {
    let args = parse_only(tokens, "sweep", &["workers", "out", "worker-cmd"], 1)?;
    let path = args.require(0, "sweep.spec")?;
    let options = DispatchOptions {
        workers: args.opt_parsed("workers", 0)?,
        worker_cmd: args.opt_str("worker-cmd", "").split_whitespace().map(str::to_owned).collect(),
    };
    let text = std::fs::read_to_string(path)?;
    let sweep = SweepSpec::parse(&text)?;
    let outcome = dispatch(&sweep, &options)?;

    let artifact = match args.opt_str("out", "").as_str() {
        "" => default_artifact_path(path),
        out => out.to_owned(),
    };
    std::fs::write(&artifact, outcome.doc.render())?;

    let table = rumor_analysis::fleet_summary_table(&outcome.doc).map_err(CliError::Usage)?;
    let mut out = table.to_text();
    out.push_str(&format!("\nwrote {artifact}\n"));
    out.push_str(&format!(
        "workers: {} (jobs per worker {:?}, retries {})\n",
        outcome.jobs_per_worker.len(),
        outcome.jobs_per_worker,
        outcome.retries
    ));
    Ok(out)
}

/// The artifact path beside the spec: `x.spec` → `x.fleet.json`.
fn default_artifact_path(spec_path: &str) -> String {
    let stem = spec_path.strip_suffix(".spec").unwrap_or(spec_path);
    format!("{stem}.fleet.json")
}

/// Runs the `worker` subcommand (frames on stdin/stdout until EOF).
pub fn worker(tokens: &[String]) -> Result<String, CliError> {
    let args = parse_only(tokens, "worker", &["exit-after"], 0)?;
    let exit_after = match args.opt_str("exit-after", "").as_str() {
        "" => None,
        raw => Some(
            raw.parse()
                .map_err(|_| CliError::Usage(format!("cannot parse --exit-after from `{raw}`")))?,
        ),
    };
    let config = ServiceConfig { caches: None, exit_after };
    let exit = run_frames(&mut std::io::stdin().lock(), &mut std::io::stdout().lock(), &config)?;
    match exit {
        ServiceExit::Eof(_) => Ok(String::new()),
        ServiceExit::Aborted(n) => Err(CliError::Io(std::io::Error::other(format!(
            "worker aborted after {n} requests (--exit-after)"
        )))),
    }
}

/// Runs the `serve` subcommand: frames on stdin/stdout, with one
/// [`RunCaches`] shared across every request served.
pub fn serve(tokens: &[String]) -> Result<String, CliError> {
    parse_only(tokens, "serve", &[], 0)?;
    let config = ServiceConfig { caches: Some(Arc::new(RunCaches::default())), exit_after: None };
    run_frames(&mut std::io::stdin().lock(), &mut std::io::stdout().lock(), &config)?;
    Ok(String::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_sweep(stamp: &str) -> std::path::PathBuf {
        let text = "\
spec = v1
graph = complete n=6
source = 0
protocol = async mode=push-pull view=global-clock
topology = static
engine = sequential
trials = 3
seed = 5
threads = 1
loss = 0
max_steps = auto
max_rounds = auto
coupled = false
horizon = auto
antithetic = false
rng_contract = v2
metrics = off
sweep.graph.n = [6, 8]
";
        let path = std::env::temp_dir()
            .join(format!("rumor_fleet_cli_{}_{stamp}.spec", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn sweep_writes_the_artifact_beside_the_spec() {
        let spec = write_sweep("beside");
        let out = sweep(&[spec.to_str().unwrap().to_owned()]).unwrap();
        assert!(out.contains("fleet summary"), "{out}");
        assert!(out.contains("graph.n=6"), "{out}");
        let artifact = default_artifact_path(spec.to_str().unwrap());
        let text = std::fs::read_to_string(&artifact).unwrap();
        assert!(text.contains("\"schema\": \"rumor-fleet v1\""), "{text}");
        std::fs::remove_file(&spec).ok();
        std::fs::remove_file(&artifact).ok();
    }

    fn tokens(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn unknown_sweep_flags_are_rejected() {
        let err = sweep(&tokens(&["x.spec", "--bogus", "1"])).unwrap_err();
        assert!(err.to_string().contains("--bogus"), "{err}");
        // The pilot pass is gone: its flag is refused, not ignored.
        let err = sweep(&tokens(&["x.spec", "--pilot", "true"])).unwrap_err();
        assert!(err.to_string().contains("--pilot"), "{err}");
        let err = sweep(&tokens(&["x.spec", "y.spec"])).unwrap_err();
        assert!(err.to_string().contains("`y.spec`"), "{err}");
    }

    #[test]
    fn serve_refuses_flags_and_arguments_before_reading_input() {
        // `--socket` once bound a unix socket at its path, deleting any
        // file there; now no flag reaches `serve`.
        let path =
            std::env::temp_dir().join(format!("rumor_fleet_cli_{}_socket.txt", std::process::id()));
        std::fs::write(&path, b"keep these bytes").unwrap();
        let err = serve(&tokens(&["--socket", path.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("--socket"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"keep these bytes");
        std::fs::remove_file(&path).ok();
        let err = serve(&tokens(&["extra"])).unwrap_err();
        assert!(err.to_string().contains("`extra`"), "{err}");
    }

    #[test]
    fn worker_refuses_a_mistyped_flag() {
        let err = worker(&tokens(&["--exit-afterr", "1"])).unwrap_err();
        assert!(err.to_string().contains("--exit-afterr"), "{err}");
    }

    #[test]
    fn artifact_path_swaps_the_extension() {
        assert_eq!(default_artifact_path("a/b.spec"), "a/b.fleet.json");
        assert_eq!(default_artifact_path("noext"), "noext.fleet.json");
    }
}
