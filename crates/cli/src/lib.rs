//! Command-line front end for the rumor-spreading workspace.
//!
//! The CLI speaks one grammar, the `.spec` text format of
//! [`rumor_core::spec`]:
//!
//! ```text
//! rumor gen <graph value>                        # emit an edge list
//! rumor stats <file|->                           # structural properties
//! rumor run <file|-> [--KEY VALUE]…              # one flag per spec line
//!           [--quantile Q] [--metrics-out PATH] [--emit-spec true]
//! rumor run --spec file.spec                     # replay a saved run spec
//! ```
//!
//! `gen` takes what follows `graph =` in a spec (for example
//! `gnp n=256 p=0.05 seed=5 attempts=200`), and each `--KEY VALUE` of
//! `run` is the spec line `KEY = VALUE` (for example
//! `--topology "walk rate=1"`).
//!
//! Graphs are exchanged as plain edge-list text (`n m` header, one `u v`
//! pair per line, `#` comments), so the tool composes with shell
//! pipelines:
//!
//! ```text
//! rumor gen hypercube dim=8 \
//!     | rumor run - --protocol "async mode=push-pull view=global-clock" --trials 500
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;
mod error;

pub use error::CliError;

/// Executes a full command line (without the program name) and returns
/// the text to print on stdout.
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, malformed flags, unreadable
/// input, or invalid graphs.
pub fn execute(argv: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = argv.split_first() else {
        return Ok(usage());
    };
    match command.as_str() {
        "gen" => commands::gen::run(rest),
        "stats" => commands::stats::run(rest),
        "run" => commands::run::run(rest),
        "sweep" => commands::fleet::sweep(rest),
        "worker" => commands::fleet::worker(rest),
        "serve" => commands::fleet::serve(rest),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// The help text.
pub fn usage() -> String {
    "\
rumor — randomized rumor spreading toolkit (PODC 2016 reproduction)

USAGE:
    rumor gen <graph value>
    rumor stats <file|->
    rumor run <file|-> [--KEY VALUE]…
    rumor run --spec FILE
    rumor sweep <file.spec> [--workers N] [--pilot true] [--out PATH]
    rumor serve [--socket PATH] [--max-conn N]
    rumor help

GRAPHS (rumor gen, and the `graph =` line of a spec):
    star n= | path n= | cycle n= | complete n= | hypercube dim=
    grid rows= cols= | torus rows= cols= | binary-tree n=
    caterpillar spine= legs= | double-star left= right=
    diamonds k= m= | necklace cliques= size=
    gnp n= p= seed= attempts= | random-regular n= d= seed= attempts=
    chung-lu n= beta= avg= seed= | pa n= m= seed=
    gnp and random-regular return the first connected draw within
    `attempts`; e.g. `rumor gen gnp n=256 p=0.05 seed=5 attempts=200`.

RUN (rumor run <file|-> [--KEY VALUE]…):
    each flag is the spec line `KEY = VALUE`; KEY is one of source,
    protocol, topology, trials, seed, threads, loss, max_steps,
    max_rounds, coupled, horizon, antithetic, metrics. For example
    --protocol 'async mode=push-pull view=global-clock' (mode push |
    pull | push-pull; view global-clock | node-clocks | edge-clocks),
    --topology 'walk rate=1', --coupled true, --metrics summary.
    Defaults: sync mode=push-pull, static, 100 trials, seed 42;
    `--emit-spec true` prints every key of the run. A sync run on a
    topology model must state --max_rounds (e.g. 20000).
    --quantile Q        report the Q-quantile [default: 0.9]
    --metrics-out PATH  where `--metrics json` writes its artifact
    --emit-spec true    print the run's spec instead of running it
    --spec FILE         replay a saved spec (combines only with
                        --quantile, --metrics, --metrics-out)

DYNAMIC NETWORKS (--topology):
    markov off= on=                      per-edge on/off churn
    rewire period= family=gnp p=         periodic fresh snapshots
      (or family=random-regular d=)
    node-churn leave= join= attach=      node leave/join
    walk rate=                           random-walk edge dynamics
    mobility move= radius= step=         geometric mobility
    adversary rate= budget= heal=        frontier cuts
    static-model                         the dynamic engine on a static graph
    every model runs under both protocols (a sync run records the
    model's realization and replays it in rounds, up to max_rounds).

FLEET (rumor sweep / worker / serve):
    sweep expands `sweep.<key> = [v1, v2, …]` axis lines in the spec
    into a parameter grid, executes every grid point (in-process by
    default, across N worker processes with --workers N), and writes
    the merged FleetReport artifact next to the spec (or to --out).
    --pilot true        shrink `auto` budgets with a short pilot pass
    --pilot-trials K    trials per child in the pilot pass [default: 4]
    --worker-cmd CMD    override the worker command line (testing)
    worker and serve speak length-prefixed JSON frames; serve keeps
    graph/topology-trace caches warm across requests (--socket binds a
    unix socket instead of stdin/stdout).
    `rumor stats x.fleet.json [y.fleet.json]` summarizes or diffs
    fleet artifacts.

Graphs are edge-list text: a `n m` header line, then one `u v` edge per
line; `#` starts a comment. `-` reads from stdin.
"
    .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(tokens: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = tokens.iter().map(|s| (*s).to_string()).collect();
        execute(&argv)
    }

    #[test]
    fn no_args_prints_usage() {
        let out = exec(&[]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(exec(&["help"]).unwrap().contains("GRAPHS"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = exec(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn gen_stats_run_pipeline() {
        // gen → write to temp file → stats → run.
        let edge_list = exec(&["gen", "hypercube", "dim=4"]).unwrap();
        let path = std::env::temp_dir().join("rumor_cli_test_q4.txt");
        std::fs::write(&path, &edge_list).unwrap();
        let path_str = path.to_str().unwrap();

        let stats = exec(&["stats", path_str]).unwrap();
        assert!(stats.contains("nodes: 16"));
        assert!(stats.contains("regular: 4"));

        let async_pp = "async mode=push-pull view=global-clock";
        let run = exec(&["run", path_str, "--trials", "50", "--protocol", async_pp]).unwrap();
        assert!(run.contains("mean"), "{run}");
        std::fs::remove_file(&path).ok();
    }
}
