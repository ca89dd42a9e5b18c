#!/usr/bin/env bash
# One command for the whole benchmark: build release, run the workloads
# untraced and then traced, print every metric as
# `name value unit n=<samples>`, append one JSON record per run to a
# results file, and fail if any correctness check failed.
#
#   benchmark/run.sh [--seed S] [--runs K] [--workload NAME] [--seconds N]
#                    [--trace | --untraced] [--out FILE]
#
#   --seed S      first seed (default 1)
#   --runs K      untraced runs per workload, seeds S..S+K-1 (default 1)
#   --workload W  one workload instead of all four
#   --seconds N   measured seconds per run (default: BENCHMARK.json run_seconds)
#   --trace       traced runs only;  --untraced  untraced runs only
#   --out FILE    results file, truncated first (default benchmark/out/results.jsonl)
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
seed=1 runs=1 only="" seconds="" modes="0 1" out="$here/out/results.jsonl"
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --runs) runs="$2"; shift 2 ;;
        --workload) only="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --trace) modes="1"; shift ;;
        --untraced) modes="0"; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
[ -n "$seconds" ] || seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")"
workloads="${only:-pipeline_dev read_hot read_cold replicated_mixed}"

# Share the repository's target directory unless the caller chose one,
# so the workspace crates are not compiled a second time.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml"
case "$CARGO_TARGET_DIR" in /*) bin="$CARGO_TARGET_DIR" ;; *) bin="$PWD/$CARGO_TARGET_DIR" ;; esac
bin="$bin/release/snorkel-benchmark"

mkdir -p "$(dirname "$out")"
: > "$out"
{
    echo "# nproc=$(nproc) kernel=$(uname -r)"
    echo "# $(rustc --version)"
} | tee "${out%.jsonl}.env"

status=0
for trace in $modes; do
    for workload in $workloads; do
        last=$((seed + runs - 1))
        [ "$trace" = 1 ] && last=$seed
        for s in $(seq "$seed" "$last"); do
            "$bin" --workload "$workload" --seed "$s" --seconds "$seconds" \
                --trace "$trace" --out "$out" || status=1
        done
    done
done

case "$modes" in "0 1") "$here/compare" --overhead "$out" ;; esac
echo "# results: $out"
exit "$status"
