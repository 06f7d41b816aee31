//! Command-line front end for the rumor-spreading workspace.
//!
//! Three subcommands:
//!
//! ```text
//! rumor gen <family> <params…> [--seed S]        # emit an edge list
//! rumor stats <file|->                           # structural properties
//! rumor run <file|-> [--model sync|async] [--mode push|pull|pushpull]
//!           [--source U] [--trials N] [--seed S] [--loss P] [--quantile Q]
//!           [--dynamic-model markov|rewire|node-churn|walk|mobility|adversary]
//!           [--churn NU] [--period T] [--leave R] [--join R] [--attach K]
//!           [--emit-spec true]
//! rumor run --spec file.spec                     # replay a saved run spec
//! ```
//!
//! Graphs are exchanged as plain edge-list text (`n m` header, one `u v`
//! pair per line, `#` comments), so the tool composes with shell
//! pipelines:
//!
//! ```text
//! rumor gen hypercube 8 | rumor run - --model async --trials 500
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
    rumor gen <family> <params…> [--seed S]
    rumor stats <file|->
    rumor run <file|-> [options]
    rumor sweep <file.spec> [--workers N] [--pilot true] [--out PATH]
    rumor serve [--socket PATH] [--max-conn N]
    rumor help

FAMILIES (rumor gen):
    star N | path N | cycle N | complete N | hypercube D
    grid R C | torus R C | tree N | caterpillar SPINE LEGS
    doublestar LEFT RIGHT | diamonds K M | necklace K S
    gnp N P | regular N D | chunglu N BETA AVG | pa N M

RUN OPTIONS:
    --model sync|async      protocol model            [default: sync]
    --mode push|pull|pushpull                         [default: pushpull]
    --source U              rumor source vertex       [default: 0]
    --trials N              Monte-Carlo trials        [default: 100]
    --seed S                master seed               [default: 42]
    --loss P                per-contact loss in [0,1) [default: 0]
    --quantile Q            report the Q-quantile     [default: 0.9]
    --threads T             trial fan-out threads     [default: 1]
    --coupled true          paired sync/async runs on shared topology traces
    --horizon H             coupled trace horizon     [default: 24 ln n]
    --antithetic true       two protocol seeds per trace, averaged (coupled)
    --emit-spec true        print the run's spec artifact instead of running
    --spec FILE             replay a saved spec artifact (no other run flags)

DYNAMIC NETWORKS (rumor run --dynamic-model …):
    markov        per-edge on/off churn      (--churn NU, default 1)
    rewire        periodic fresh snapshots   (--period T, default 4)
    node-churn    node leave/join            (--leave R --join R --attach K)
    walk          random-walk edge dynamics  (--churn RATE, default 1)
    mobility      geometric mobility         (--move-rate R --radius R --step S)
    adversary     frontier cuts              (--cut-rate R --cut-budget B --heal T)
    every model runs under both --model sync and --model async (a sync
    run records the model's realization and replays it in rounds, up to
    20000 rounds); rewire snapshots are drawn at matching edge density.

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
        assert!(exec(&["help"]).unwrap().contains("FAMILIES"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = exec(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn gen_stats_run_pipeline() {
        // gen → write to temp file → stats → run.
        let edge_list = exec(&["gen", "hypercube", "4"]).unwrap();
        let path = std::env::temp_dir().join("rumor_cli_test_q4.txt");
        std::fs::write(&path, &edge_list).unwrap();
        let path_str = path.to_str().unwrap();

        let stats = exec(&["stats", path_str]).unwrap();
        assert!(stats.contains("nodes: 16"));
        assert!(stats.contains("regular: 4"));

        let run = exec(&["run", path_str, "--trials", "50", "--model", "async"]).unwrap();
        assert!(run.contains("mean"), "{run}");
        std::fs::remove_file(&path).ok();
    }
}
