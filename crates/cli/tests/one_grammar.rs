//! The CLI speaks one grammar, the `.spec` one. `one_grammar.expected`
//! records what `rumor gen` and `rumor run` printed for a set of
//! commands in the grammars the CLI had before (positional `gen`
//! families, renamed `run` flags such as `--dynamic-model` and
//! `--churn`); each `###` header names the old command. Every case below
//! is that command's twin in the spec grammar and must print the same
//! bytes. A `run` twin's flags are the spec lines the old command's
//! `--emit-spec true` printed, less `spec`, `graph`, `engine` and
//! `rng_contract`. The boundary table checks that every graph family
//! refuses its bad parameters as a usage error, never a panic.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const EXPECTED: &str = include_str!("one_grammar.expected");

/// `rumor gen` twins: the case name and the `graph =` value.
const GEN: [(&str, &str); 17] = [
    ("gen-star", "star n=5"),
    ("gen-path", "path n=5"),
    ("gen-cycle", "cycle n=6"),
    ("gen-complete", "complete n=5"),
    ("gen-hypercube", "hypercube dim=3"),
    ("gen-grid", "grid rows=2 cols=3"),
    ("gen-torus", "torus rows=3 cols=4"),
    ("gen-binary-tree", "binary-tree n=7"),
    ("gen-caterpillar", "caterpillar spine=3 legs=2"),
    ("gen-double-star", "double-star left=2 right=3"),
    ("gen-diamonds", "diamonds k=2 m=3"),
    ("gen-necklace", "necklace cliques=3 size=3"),
    ("gen-gnp", "gnp n=20 p=0.3 seed=4 attempts=1"),
    ("gen-random-regular", "random-regular n=12 d=3 seed=3 attempts=200"),
    ("gen-chung-lu", "chung-lu n=30 beta=2.5 avg=4 seed=1"),
    ("gen-pa", "pa n=20 m=2 seed=6"),
    ("gen-run-graph", "gnp n=48 p=0.15 seed=2701 attempts=1"),
];

/// The graph every `run` twin runs on (`gen-run-graph` above).
const RUN_GRAPH: &str = "gnp n=48 p=0.15 seed=2701 attempts=1";

/// `rumor run` twins: the case name, whether the graph comes on stdin,
/// the spec lines the flags spell, and the CLI's own flags.
const RUN: [(&str, bool, &str, &[&str]); 14] = [
    (
        "sync-static",
        false,
        "source = 0\n\
         protocol = sync mode=push-pull\n\
         topology = static\n\
         trials = 50\n\
         seed = 3\n\
         threads = 1\n\
         loss = 0\n\
         max_steps = auto\n\
         max_rounds = auto\n\
         coupled = false\n\
         horizon = auto\n\
         antithetic = false\n\
         metrics = off",
        &[],
    ),
    (
        "async-push-quantile",
        false,
        "source = 0\n\
         protocol = async mode=push view=global-clock\n\
         topology = static\n\
         trials = 50\n\
         seed = 4\n\
         threads = 1\n\
         loss = 0\n\
         max_steps = auto\n\
         max_rounds = auto\n\
         coupled = false\n\
         horizon = auto\n\
         antithetic = false\n\
         metrics = off",
        &["--quantile", "0.5"],
    ),
    (
        "async-markov",
        false,
        "source = 0\n\
         protocol = async mode=push-pull view=global-clock\n\
         topology = markov off=2 on=2\n\
         trials = 30\n\
         seed = 5\n\
         threads = 1\n\
         loss = 0\n\
         max_steps = auto\n\
         max_rounds = auto\n\
         coupled = false\n\
         horizon = auto\n\
         antithetic = false\n\
         metrics = off",
        &[],
    ),
    (
        "sync-rewire",
        false,
        "source = 0\n\
         protocol = sync mode=push-pull\n\
         topology = rewire period=2 family=gnp p=0.15159574468085107\n\
         trials = 30\n\
         seed = 6\n\
         threads = 1\n\
         loss = 0\n\
         max_steps = auto\n\
         max_rounds = 20000\n\
         coupled = false\n\
         horizon = auto\n\
         antithetic = false\n\
         metrics = off",
        &[],
    ),
    (
        "async-node-churn",
        false,
        "source = 0\n\
         protocol = async mode=push-pull view=global-clock\n\
         topology = node-churn leave=0.2 join=1 attach=2\n\
         trials = 30\n\
         seed = 7\n\
         threads = 1\n\
         loss = 0\n\
         max_steps = auto\n\
         max_rounds = auto\n\
         coupled = false\n\
         horizon = auto\n\
         antithetic = false\n\
         metrics = off",
        &[],
    ),
    (
        "async-walk-loss",
        false,
        "source = 0\n\
         protocol = async mode=push-pull view=global-clock\n\
         topology = walk rate=1\n\
         trials = 30\n\
         seed = 8\n\
         threads = 1\n\
         loss = 0.2\n\
         max_steps = auto\n\
         max_rounds = auto\n\
         coupled = false\n\
         horizon = auto\n\
         antithetic = false\n\
         metrics = off",
        &[],
    ),
    (
        "async-mobility",
        false,
        "source = 0\n\
         protocol = async mode=push-pull view=global-clock\n\
         topology = mobility move=1 radius=0.217368635571939 step=0.2\n\
         trials = 30\n\
         seed = 9\n\
         threads = 1\n\
         loss = 0\n\
         max_steps = auto\n\
         max_rounds = auto\n\
         coupled = false\n\
         horizon = auto\n\
         antithetic = false\n\
         metrics = off",
        &[],
    ),
    (
        "async-adversary",
        false,
        "source = 0\n\
         protocol = async mode=push-pull view=global-clock\n\
         topology = adversary rate=1 budget=3 heal=1\n\
         trials = 30\n\
         seed = 10\n\
         threads = 1\n\
         loss = 0\n\
         max_steps = auto\n\
         max_rounds = auto\n\
         coupled = false\n\
         horizon = auto\n\
         antithetic = false\n\
         metrics = off",
        &[],
    ),
    (
        "sync-mobility",
        false,
        "source = 0\n\
         protocol = sync mode=push-pull\n\
         topology = mobility move=1 radius=0.217368635571939 step=0.1\n\
         trials = 20\n\
         seed = 16\n\
         threads = 1\n\
         loss = 0\n\
         max_steps = auto\n\
         max_rounds = 20000\n\
         coupled = false\n\
         horizon = auto\n\
         antithetic = false\n\
         metrics = off",
        &[],
    ),
    (
        "coupled-markov",
        false,
        "source = 0\n\
         protocol = async mode=push-pull view=global-clock\n\
         topology = markov off=1 on=1\n\
         trials = 20\n\
         seed = 11\n\
         threads = 1\n\
         loss = 0\n\
         max_steps = auto\n\
         max_rounds = auto\n\
         coupled = true\n\
         horizon = auto\n\
         antithetic = false\n\
         metrics = off",
        &[],
    ),
    (
        "coupled-walk-antithetic",
        false,
        "source = 0\n\
         protocol = async mode=push-pull view=global-clock\n\
         topology = walk rate=1\n\
         trials = 20\n\
         seed = 12\n\
         threads = 1\n\
         loss = 0\n\
         max_steps = auto\n\
         max_rounds = auto\n\
         coupled = true\n\
         horizon = 50\n\
         antithetic = true\n\
         metrics = off",
        &[],
    ),
    (
        "sync-threads-loss",
        false,
        "source = 0\n\
         protocol = sync mode=push-pull\n\
         topology = static\n\
         trials = 40\n\
         seed = 13\n\
         threads = 2\n\
         loss = 0.1\n\
         max_steps = auto\n\
         max_rounds = auto\n\
         coupled = false\n\
         horizon = auto\n\
         antithetic = false\n\
         metrics = off",
        &[],
    ),
    (
        "async-metrics-summary",
        false,
        "source = 0\n\
         protocol = async mode=push-pull view=global-clock\n\
         topology = static\n\
         trials = 40\n\
         seed = 14\n\
         threads = 1\n\
         loss = 0\n\
         max_steps = auto\n\
         max_rounds = auto\n\
         coupled = false\n\
         horizon = auto\n\
         antithetic = false\n\
         metrics = summary",
        &[],
    ),
    (
        "stdin-pull",
        true,
        "source = 0\n\
         protocol = sync mode=pull\n\
         topology = static\n\
         trials = 30\n\
         seed = 15\n\
         threads = 1\n\
         loss = 0\n\
         max_steps = auto\n\
         max_rounds = auto\n\
         coupled = false\n\
         horizon = auto\n\
         antithetic = false\n\
         metrics = off",
        &[],
    ),
];

fn rumor(args: &[&str], stdin: Option<&str>) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rumor"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("rumor runs");
    let mut pipe = child.stdin.take().expect("stdin is piped");
    pipe.write_all(stdin.unwrap_or("").as_bytes()).expect("stdin accepts the graph");
    drop(pipe);
    child.wait_with_output().expect("rumor exits")
}

fn stdout_of(args: &[&str], stdin: Option<&str>) -> String {
    let out = rumor(args, stdin);
    assert!(out.status.success(), "rumor {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The recorded stdout of each case, by name.
fn expected() -> Vec<(&'static str, String)> {
    let mut blocks: Vec<(&str, String)> = Vec::new();
    for line in EXPECTED.lines() {
        if let Some(header) = line.strip_prefix("### ") {
            let name = header.split(':').next().expect("a header names its case");
            blocks.push((name, String::new()));
        } else if let Some((_, body)) = blocks.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    blocks
}

fn gen_args(value: &str) -> Vec<&str> {
    std::iter::once("gen").chain(value.split_whitespace()).collect()
}

#[test]
fn spec_grammar_twins_print_the_recorded_bytes() {
    let expected = expected();
    let mut names: Vec<&str> = GEN.iter().map(|c| c.0).chain(RUN.iter().map(|c| c.0)).collect();
    let mut recorded: Vec<&str> = expected.iter().map(|(name, _)| *name).collect();
    names.sort_unstable();
    recorded.sort_unstable();
    assert_eq!(names, recorded, "every recorded case has a twin");
    let want = |name: &str| &expected.iter().find(|(n, _)| *n == name).expect("recorded").1;

    let mut diverged = Vec::new();
    for (name, value) in GEN {
        if stdout_of(&gen_args(value), None) != *want(name) {
            diverged.push(name);
        }
    }

    let graph = stdout_of(&gen_args(RUN_GRAPH), None);
    let path: PathBuf =
        std::env::temp_dir().join(format!("rumor_one_grammar_{}.txt", std::process::id()));
    std::fs::write(&path, &graph).unwrap();
    for (name, stdin, lines, cli_flags) in RUN {
        let graph_arg = if stdin { "-" } else { path.to_str().unwrap() };
        let mut args = vec!["run".to_owned(), graph_arg.to_owned()];
        for line in lines.lines() {
            let (key, value) = line.split_once(" = ").expect("a `key = value` line");
            args.extend([format!("--{key}"), value.to_owned()]);
        }
        args.extend(cli_flags.iter().map(|f| (*f).to_owned()));
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        if stdout_of(&args, stdin.then_some(graph.as_str())) != *want(name) {
            diverged.push(name);
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(diverged.is_empty(), "twins that print other bytes: {diverged:?}");
}

#[test]
fn bad_graph_parameters_are_usage_errors() {
    for value in [
        "cycle n=2",
        "gnp n=10 p=1.5 seed=1 attempts=1",
        "gnp n=10 p=1e-300 seed=1 attempts=5",
        "hypercube dim=0",
        "pa n=5 m=10 seed=1",
        "grid rows=0 cols=1",
        "double-star left=0 right=3",
        "chung-lu n=10 beta=1.5 avg=2 seed=1",
        "caterpillar spine=1 legs=2",
        "diamonds k=0 m=1",
        "binary-tree n=1",
        // A field the family does not read, or one given twice.
        "star n=3 m=7 sede=4",
        "complete n=4 n=5",
        // Node counts past a node label, refused before anything is
        // allocated.
        "grid rows=4294967296 cols=2",
        "binary-tree n=4294967296",
        "caterpillar spine=2 legs=18446744073709551615",
        "double-star left=18446744073709551615 right=1",
        "diamonds k=4294967296 m=4294967296",
        "chung-lu n=4294967296 beta=2.5 avg=2 seed=1",
        "pa n=4294967296 m=1 seed=1",
    ] {
        let out = rumor(&gen_args(value), None);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{value}: {stderr}");
        assert!(out.stdout.is_empty(), "{value}");
        assert!(stderr.starts_with("error: invalid graph spec: "), "{value}: {stderr}");
        assert!(!stderr.contains("panicked") && !stderr.contains("backtrace"), "{value}: {stderr}");
    }
}
