#!/usr/bin/env bash
# The benchmark's one command. Builds the `rumor` binary and the runner
# from source, then drives one workload (or, without --workload, all
# five) and prints `<workload> <metric> <value> <unit>` lines followed by
# one JSON result line per workload. Exits nonzero if a correctness check
# fails.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds T]
#                    [--trace | --trace 0|1] [--smoke]
#
# --seconds caps each workload's run (default 22); it never changes the
# requests sent.
#
# Builds go to $CARGO_TARGET_DIR, or benchmark/target when it is unset,
# so the root workspace's target directory is left alone.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/Cargo.toml" || ! -f "$root/crates/cli/Cargo.toml" ]]; then
    echo "error: $root holds no rumor source tree to build (Cargo.toml, crates/cli)" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-$root/benchmark/target}"
[[ "$target" == /* ]] || target="$PWD/$target"
export CARGO_TARGET_DIR="$target"
cd "$root"
cargo build --release --offline --quiet -p rumor-cli >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

workload=""
args=(--rumor "$target/release/rumor" --out "$root/benchmark/out")
while (($#)); do
    case "$1" in
        --workload)
            workload="${2:?--workload needs a name}"
            shift 2
            ;;
        --trace)
            if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then
                args+=(--trace "$2")
                shift 2
            else
                args+=(--trace 1)
                shift
            fi
            ;;
        *)
            args+=("$1")
            shift
            ;;
    esac
done

# The runner, and through it every `rumor` process it starts, is pinned
# to one vCPU: the host slows its vCPUs at different times, and the
# runner's speed probe must run where the program runs. sweep_fanout's
# two sweep workers therefore share that vCPU, and worker parallelism
# is not measured.
runner=("$target/release/rumor-benchmark")
if command -v taskset >/dev/null 2>&1; then
    runner=(taskset -c "$(($(nproc) - 1))" "${runner[@]}")
fi
# The runner runs as a child, not through `exec`: the peak memory of
# reaped children that it reports for sweeps would otherwise include the
# builds above.
status=0
for w in ${workload:-paper_static dynamic_models coupled_traces serve_mixed sweep_fanout}; do
    "${runner[@]}" --workload "$w" "${args[@]}" || status=$?
done
exit "$status"
