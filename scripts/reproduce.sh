#!/usr/bin/env bash
# Reproduce everything: build, run the full test suite, regenerate every
# experiment table, and leave the outputs in test_output.txt /
# bench_output.txt at the repository root (the artifacts EXPERIMENTS.md
# quotes from).
#
# --baseline: instead of the full reproduction, run every bench with
# CAPSP_BENCH_JSON_DIR=bench/baselines to (re)generate the committed
# regression baselines that `tools/bench_diff` and the CI bench-smoke job
# gate against (docs/metrics.md).  Refresh deliberately — review the diff
# of bench/baselines/ like any other behaviour change.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="full"
if [ "${1:-}" = "--baseline" ]; then
  mode="baseline"
fi

cmake -B build -G Ninja
cmake --build build

run_benches() {
  for b in build/bench/*; do
    if [ -x "$b" ] && [ -f "$b" ]; then
      echo "##### $(basename "$b")"
      "$b"
    fi
  done
}

# Serving-layer records (docs/serving.md): solve once, tile the matrix,
# and run the deterministic closed-loop workloads that the CI serving
# smoke replays.  Keep the flags in lockstep with .github/workflows/ci.yml
# — bench_diff --require-all fails if either side is missing a record.
run_serve_benches() {
  local dir
  dir=$(mktemp -d)
  ./build/tools/apsp_tool --mode solve --graph grid --n 441 --height 2 \
    --save-distances "$dir/serve.snap" --tile 32
  ./build/tools/serve_tool --mode serve --snapshot "$dir/serve.snap" \
    --graph grid --n 441 --threads 4 --requests 4000 \
    --mix zipf --queries distance --cache-bytes 262144
  ./build/tools/serve_tool --mode serve --snapshot "$dir/serve.snap" \
    --graph grid --n 441 --threads 4 --requests 1500 \
    --mix bfs --queries path --cache-bytes 262144
  # Chaos pair (docs/robustness.md): a clean and a faulted pass from one
  # process.  The chaos_* record fields vary with scheduling and are
  # class-skipped by the CI gate (chaos_*=skip).
  ./build/tools/serve_tool --mode serve --snapshot "$dir/serve.snap" \
    --graph grid --n 441 --threads 4 --requests 4000 \
    --mix zipf --queries distance --clients 4 --cache-bytes 262144 --chaos
  # Approximate tier (docs/serving.md, "Tiered serving"): landmark sketch
  # from the ND hierarchy, auto-mode tiered run with every certified
  # interval checked against the exact matrix.  The tier split and
  # stretch distribution in the record are deterministic.
  ./build/tools/apsp_tool --mode solve --graph grid --n 144 --height 2 \
    --save-distances "$dir/approx.snap" --tile 16
  ./build/tools/serve_tool --mode sketch --graph grid --n 144 \
    --height 5 --top-levels 4 --landmarks 64 --out "$dir/approx.ax1"
  ./build/tools/serve_tool --mode serve --snapshot "$dir/approx.snap" \
    --sketch "$dir/approx.ax1" --graph grid --n 144 --threads 2 \
    --clients 4 --requests 2000 --mix zipf --queries distance \
    --cache-bytes 16777216 --tier auto --stretch-budget 0.25 \
    --verify-stretch
  rm -rf "$dir"
}

if [ "$mode" = "baseline" ]; then
  mkdir -p bench/baselines
  CAPSP_BENCH_JSON_DIR="$PWD/bench/baselines" run_benches > /dev/null
  CAPSP_BENCH_JSON_DIR="$PWD/bench/baselines" run_serve_benches > /dev/null
  ./build/tools/bench_diff --baseline bench/baselines \
    --candidate bench/baselines --require-all
  echo "done: refreshed bench/baselines/ ($(ls bench/baselines | wc -l) files)"
  exit 0
fi

ctest --test-dir build 2>&1 | tee test_output.txt

{
  run_benches
} 2>&1 | tee bench_output.txt

echo "done: see test_output.txt and bench_output.txt"
