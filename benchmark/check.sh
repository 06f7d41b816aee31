#!/usr/bin/env bash
# Lints, tests and smoke-runs the benchmark workspace, which the root
# workspace's CI does not see: rustfmt, clippy with warnings denied, the
# runner's tests, then every workload at 1/20 of its size.
#
#   benchmark/check.sh
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/benchmark/target}"
[[ "$target" == /* ]] || target="$PWD/$target"
export CARGO_TARGET_DIR="$target"
cd "$root"
manifest=benchmark/Cargo.toml

cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --release --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --release --manifest-path "$manifest"

start=$SECONDS
bash benchmark/run.sh --smoke
echo "smoke run: $((SECONDS - start)) s" >&2
