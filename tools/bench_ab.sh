#!/usr/bin/env bash
# A/B comparison of two commits on the end-to-end benchmark
# (BENCHMARK.json, benchmark/run.sh).
#
#   tools/bench_ab.sh <parent> <change> [--workload W] [--pairs N]
#                     [--seed S] [--smoke]
#
# Each commit's committed files are exported (git archive) into their
# own directory under ${TMPDIR:-/tmp}/rumor-bench-ab/<sha>/ and built
# there once, with their own target directory; a directory left by an
# earlier call is reused. Then, for each workload (default: all five),
# N pairs of runs (default 10; 1 with --smoke, which runs each
# workload at 1/20 size) alternate which commit goes first.
#
# For each (workload, end-to-end metric) it prints both commits'
# medians and quartiles, how many pairs the change won, and a verdict
# read against the metric's BENCHMARK.json bound:
#
#   regression    the change's median is worse than the parent's by
#                 more than the bound;
#   gain          the change won at least 9 in 10 pairs and the medians
#                 are further apart than the parent's interquartile range;
#   unresolved    either commit's interquartile range exceeds the bound
#                 (as a share of its median), unless every run of the
#                 change reads better than every run of the parent:
#                 too noisy to tell;
#   within-bound  anything else.
#
# It also prints each commit's failed requests per workload. The exit
# status reports failures of the script alone (bad arguments, a build
# that fails, a run that prints no result), never a verdict.
set -euo pipefail

usage() {
    echo "usage: tools/bench_ab.sh <parent> <change> [--workload W] [--pairs N] [--seed S] [--smoke]" >&2
    exit 2
}

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
(($# >= 2)) || usage
parent_ref="$1"
change_ref="$2"
shift 2
workloads=""
pairs=""
seed=1
smoke=()
while (($#)); do
    case "$1" in
        --workload) workloads="${2:?--workload needs a name}"; shift 2 ;;
        --pairs) pairs="${2:?--pairs needs a count}"; shift 2 ;;
        --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
        --smoke) smoke=(--smoke); shift ;;
        *) usage ;;
    esac
done
[[ -n "$pairs" ]] || pairs=$((${#smoke[@]} ? 1 : 10))
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
[[ "$seed" =~ ^[0-9]+$ ]] || usage
if [[ -z "$workloads" ]]; then
    workloads="$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(sys.stdin)["workloads"]))' \
        <"$root/BENCHMARK.json")"
fi

scratch="${TMPDIR:-/tmp}/rumor-bench-ab"
mkdir -p "$scratch"
runs="$(mktemp -d "$scratch/runs.XXXXXX")"

# Exports and builds one commit; prints its directory.
prepare() {
    local sha dir
    sha="$(git -C "$root" rev-parse --verify "$1^{commit}")" || {
        echo "error: $1 is not a commit" >&2
        return 1
    }
    dir="$scratch/$sha"
    if [[ ! -f "$dir/src/BENCHMARK.json" ]]; then
        rm -rf "$dir"
        mkdir -p "$dir/src"
        git -C "$root" archive "$sha" | tar -x -C "$dir/src"
    fi
    echo "building $1 ($sha) in $dir" >&2
    (
        cd "$dir/src"
        export CARGO_TARGET_DIR="$dir/target"
        cargo build --release --offline --quiet -p rumor-cli
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
    ) >&2
    echo "$dir"
}

parent_dir="$(prepare "$parent_ref")"
change_dir="$(prepare "$change_ref")"

# One benchmark run; its output is kept in $runs/<side>.<workload>.<pair>.
run_one() {
    local side="$1" dir="$2" workload="$3" pair="$4" out
    out="$runs/$side.$workload.$pair"
    CARGO_TARGET_DIR="$dir/target" bash "$dir/src/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" "${smoke[@]}" >"$out" 2>"$out.err" || true
    if ! grep -q '^{"correct"' "$out"; then
        echo "error: $side run of $workload (pair $pair) printed no result:" >&2
        tail -n 5 "$out.err" >&2
        return 1
    fi
}

for workload in $workloads; do
    for ((pair = 0; pair < pairs; pair++)); do
        echo "$workload: pair $((pair + 1))/$pairs" >&2
        if ((pair % 2 == 0)); then
            run_one parent "$parent_dir" "$workload" "$pair"
            run_one change "$change_dir" "$workload" "$pair"
        else
            run_one change "$change_dir" "$workload" "$pair"
            run_one parent "$parent_dir" "$workload" "$pair"
        fi
    done
done

echo "parent $parent_ref, change $change_ref, seed $seed, $pairs pair(s); runs kept in $runs"
python3 - "$root/BENCHMARK.json" "$runs" "$pairs" $workloads <<'EOF'
import json
import math
import statistics
import sys

bench_file, runs, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
metrics = json.load(open(bench_file))["end_to_end"]


def result(side, workload, pair):
    lines = open(f"{runs}/{side}.{workload}.{pair}").read().splitlines()
    return json.loads([line for line in lines if line.startswith('{"correct"')][-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


print(f"{'workload':<16}{'metric':<14}{'parent median [q1, q3]':>34}"
      f"{'change median [q1, q3]':>34}{'delta':>9}{'wins':>7}  verdict")
for workload in workloads:
    res = {side: [result(side, workload, p) for p in range(pairs)] for side in ("parent", "change")}
    for m in metrics:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        vals = {
            side: [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
            for side, rs in res.items()
        }
        p, c = vals["parent"], vals["change"]
        if len(p) != pairs or len(c) != pairs:
            print(f"{workload:<16}{name:<14}{'not reported':>34}")
            continue
        mp, mc = statistics.median(p), statistics.median(c)
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        worse = ((mp - mc) if higher else (mc - mp)) / mp if mp else 0.0
        if worse > bound:
            verdict = "regression"
        elif worse < 0 and wins >= math.ceil(0.9 * pairs) and abs(mc - mp) > p3 - p1:
            verdict = "gain"
        elif ((p3 - p1) > bound * abs(mp) or (c3 - c1) > bound * abs(mc)) and not (
            min(c) > max(p) if higher else max(c) < min(p)
        ):
            verdict = "unresolved"
        else:
            verdict = "within-bound"
        delta = (mc - mp) / mp if mp else 0.0
        print(f"{workload:<16}{name:<14}{f'{mp:.4g} [{p1:.4g}, {p3:.4g}]':>34}"
              f"{f'{mc:.4g} [{c1:.4g}, {c3:.4g}]':>34}{delta:>+9.1%}{f'{wins}/{pairs}':>7}  {verdict}")
    failed = {side: sum(r["failed"] for r in rs) for side, rs in res.items()}
    print(f"{workload:<16}{'failed':<14}{failed['parent']:>34}{failed['change']:>34}")
EOF
