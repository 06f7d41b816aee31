//! The sharded and lazy engines are gone, and every way of asking for
//! them fails with rc=2 instead of quietly running another engine: the
//! `--shards`, `--lazy` and `--engine` flags, an `engine = sharded` line or an
//! uncoupled `engine = lazy` line in a replayed spec, and the same lines
//! in a sweep base. On a coupled plan `engine = lazy` named the trace
//! cursor, which every trace replay now runs on, so such a spec still
//! runs and prints what its `engine = sequential` twin prints.

use std::path::PathBuf;
use std::process::{Command, Output};

fn rumor(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rumor")).args(args).output().expect("rumor runs")
}

fn temp_file(stamp: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("rumor_removed_{}_{stamp}", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

fn assert_usage_error(out: &Output, needle: &str) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(needle), "{stderr}");
}

/// Writes a complete 8-node graph and runs `rumor run` on it with
/// `flags`.
fn run_on_graph(stamp: &str, flags: &[&str]) -> Output {
    let graph = rumor(&["gen", "complete", "n=8"]);
    assert!(graph.status.success(), "{graph:?}");
    let path = temp_file(stamp, &String::from_utf8(graph.stdout).unwrap());
    let mut args = vec!["run", path.to_str().unwrap()];
    args.extend(flags);
    let out = rumor(&args);
    std::fs::remove_file(&path).ok();
    out
}

/// Runs `spec_text` with `rumor run --spec` and as the base of a
/// two-point sweep, asserting both exit rc=2 naming `needle` and that
/// the rejected sweep writes no report.
fn assert_spec_and_sweep_refused(stamp: &str, spec_text: &str, needle: &str) {
    let spec = temp_file(&format!("{stamp}.spec"), spec_text);
    let out = rumor(&["run", "--spec", spec.to_str().unwrap()]);
    assert_usage_error(&out, needle);

    let sweep =
        temp_file(&format!("{stamp}_sweep.spec"), &format!("{spec_text}sweep.trials = [2, 3]\n"));
    let report = sweep.with_extension("json");
    let out = rumor(&["sweep", sweep.to_str().unwrap(), "--out", report.to_str().unwrap()]);
    assert_usage_error(&out, needle);
    assert!(!report.exists(), "a rejected sweep writes no report");

    for p in [spec, sweep] {
        std::fs::remove_file(&p).ok();
    }
}

const ASYNC: &str = "async mode=push-pull view=global-clock";

const SHARDED_SPEC: &str = "\
spec = v1
graph = complete n=8
protocol = async mode=push-pull view=global-clock
engine = sharded shards=2
trials = 4
";

const LAZY_SPEC: &str = "\
spec = v1
graph = complete n=8
protocol = async mode=push-pull view=global-clock
engine = lazy
trials = 4
";

#[test]
fn shards_flag_exits_rc2_as_an_unknown_flag() {
    let out = run_on_graph("shards_graph.txt", &["--protocol", ASYNC, "--shards", "2"]);
    assert_usage_error(&out, "unknown run flag --shards");
    // The spec key that named the engine is no flag.
    let out =
        run_on_graph("engine_graph.txt", &["--protocol", ASYNC, "--engine", "sharded shards=2"]);
    assert_usage_error(&out, "unknown run flag --engine");
}

#[test]
fn sharded_spec_and_sweep_base_exit_rc2_as_an_unknown_engine() {
    assert_spec_and_sweep_refused("sharded", SHARDED_SPEC, "unknown engine `sharded`");
}

#[test]
fn lazy_flag_exits_rc2_as_an_unknown_flag() {
    let out = run_on_graph("lazy_graph.txt", &["--protocol", ASYNC, "--lazy", "true"]);
    assert_usage_error(&out, "unknown run flag --lazy");
}

#[test]
fn uncoupled_lazy_spec_and_sweep_base_exit_rc2_naming_the_removed_engine() {
    assert_spec_and_sweep_refused("lazy", LAZY_SPEC, "the lazy engine was removed");
}

#[test]
fn coupled_lazy_spec_prints_what_its_sequential_twin_prints() {
    let sequential = format!(
        "{}topology = markov off=1 on=1\ncoupled = true\nseed = 9\n",
        LAZY_SPEC.replace("engine = lazy", "engine = sequential")
    );
    let lazy = sequential.replace("engine = sequential", "engine = lazy");
    let paths = [temp_file("coupled_seq.spec", &sequential), temp_file("coupled_lazy.spec", &lazy)];
    let outs: Vec<Output> =
        paths.iter().map(|p| rumor(&["run", "--spec", p.to_str().unwrap()])).collect();
    for out in &outs {
        assert!(out.status.success(), "{out:?}");
    }
    assert!(String::from_utf8_lossy(&outs[0].stdout).contains("coupled sync/async"));
    assert_eq!(outs[0].stdout, outs[1].stdout, "the engine line changed the report");
    for p in paths {
        std::fs::remove_file(&p).ok();
    }
}
