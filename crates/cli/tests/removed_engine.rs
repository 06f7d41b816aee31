//! The sharded engine is gone, and every way of asking for it fails
//! with rc=2 instead of quietly running another engine: the `--shards`
//! flag, an `engine = sharded` line in a replayed spec, and the same
//! line in a sweep base.

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

const SHARDED_SPEC: &str = "\
spec = v1
graph = complete n=8
protocol = async mode=push-pull view=global-clock
engine = sharded shards=2
trials = 4
";

#[test]
fn shards_flag_exits_rc2_as_an_unknown_flag() {
    let graph = rumor(&["gen", "complete", "8"]);
    assert!(graph.status.success(), "{graph:?}");
    let path = temp_file("graph.txt", &String::from_utf8(graph.stdout).unwrap());
    let out = rumor(&["run", path.to_str().unwrap(), "--model", "async", "--shards", "2"]);
    assert_usage_error(&out, "unknown run flag --shards");
    std::fs::remove_file(&path).ok();
}

#[test]
fn sharded_spec_and_sweep_base_exit_rc2_as_an_unknown_engine() {
    let spec = temp_file("run.spec", SHARDED_SPEC);
    let out = rumor(&["run", "--spec", spec.to_str().unwrap()]);
    assert_usage_error(&out, "unknown engine `sharded`");

    let sweep = temp_file("sweep.spec", &format!("{SHARDED_SPEC}sweep.trials = [2, 3]\n"));
    let report = sweep.with_extension("json");
    let out = rumor(&["sweep", sweep.to_str().unwrap(), "--out", report.to_str().unwrap()]);
    assert_usage_error(&out, "unknown engine `sharded`");
    assert!(!report.exists(), "a rejected sweep writes no report");

    for p in [spec, sweep] {
        std::fs::remove_file(&p).ok();
    }
}
