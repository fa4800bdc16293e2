#!/usr/bin/env bash
# Runner for the end-to-end benchmark (README.md in this directory).
#
#   bench/e2e/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       One run of one workload.  The last stdout line is its JSON result.
#   bench/e2e/run.sh [--seed <n>] [--runs <k>] [--seconds <s>] [--out <dir>]
#       The full set: every workload untraced and then traced, one process
#       per run so peak_rss_mb belongs to that run alone, for seeds
#       n .. n+k-1.  Results documents and Chrome traces go to <dir>.
#   bench/e2e/run.sh --repeat-check [same options]
#       Two sets of untraced runs, seeds n .. n+k-1 and then n+k .. n+2k-1,
#       and compare.py on them against the bounds in BENCHMARK.json.
#
# Every mode first builds bench_e2e (Release) in build/bench-e2e; the build
# output goes to stderr.  Exits non-zero if any check in any run failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build/bench-e2e"
workloads=(solve_grid_p49 solve_grid_p3969 serve_hot_distance serve_cold_path)

workload="" seed=1 runs=1 seconds=20 trace=0 out="$build/results" repeat=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --repeat-check) repeat=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

# A configured tree re-runs cmake by itself when a CMakeLists.txt changes.
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" --target bench_e2e >&2
mkdir -p "$build/tmp" "$out"
bench=("$build/bench_e2e" --seconds "$seconds" --tmp-dir "$build/tmp")

if [[ -n "$workload" ]]; then
  exec "${bench[@]}" --workload "$workload" --seed "$seed" --trace "$trace" \
    --out "$out"
fi

# run_set <dir> <first seed> <trace modes...>: every workload of every seed.
run_set() {
  local dir="$1" first="$2" status=0 s w t
  shift 2
  for ((s = first; s < first + runs; ++s)); do
    mkdir -p "$dir/seed$s"
    for w in "${workloads[@]}"; do
      for t in "$@"; do
        echo "== $w seed $s trace $t"
        "${bench[@]}" --workload "$w" --seed "$s" --trace "$t" \
          --out "$dir/seed$s" || status=1
      done
    done
  done
  return "$status"
}

if ((repeat == 0)); then
  run_set "$out" "$seed" 0 1
  exit
fi
status=0
run_set "$out/set1" "$seed" 0 || status=1
run_set "$out/set2" "$((seed + runs))" 0 || status=1
python3 "$here/compare.py" "$out/set1" "$out/set2" \
  --bounds "$root/BENCHMARK.json" || status=$?
exit "$status"
