#!/usr/bin/env bash
# Builds and runs the repository benchmark; see benchmark/README.md.
#
#   benchmark/run.sh [--quick] [--seed N]
#       All four workloads, traced. Prints `workload metric value unit`
#       lines and writes one result JSON and one Chrome trace per workload
#       under build-benchmark/results/. Exits non-zero if any run is wrong
#       or invalid. --quick: 2 s windows and a 1 s traced pass (smoke test).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload measuring S seconds. The last line of
#       standard output is a JSON object with the end-to-end metrics
#       (--trace 0) or the per-layer metrics (--trace 1).
#
# Run from anywhere; the build goes to build-benchmark/ at the repository
# root (Release, incremental after the first build).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-benchmark"

workload="" seed=1 seconds="" trace=0 quick=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --quick) quick=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" --target ideval_bench >&2
bin="$build/ideval_bench"

if [ -n "$workload" ]; then
  out="$build/runs"
  mkdir -p "$out"
  name="$workload-seed$seed-trace$trace"
  exec "$bin" --workload="$workload" --seed="$seed" \
    --duration_s="${seconds:-30}" --warmup_s=3 --trace="$trace" \
    --traced_s=4 --json_out="$out/$name.json" \
    --trace_out="$out/$name.trace.json"
fi

if [ "$quick" = 1 ]; then
  flags=(--duration_s=2 --warmup_s=2 --traced_s=1 --probe_queries=200
         --setups=1)
else
  flags=(--duration_s=30 --warmup_s=5 --traced_s=10)
fi
out="$build/results/seed$seed"
mkdir -p "$out"
status=0
for w in crossfilter crossfilter_overload scroll explore_net; do
  if ! "$bin" --workload="$w" --seed="$seed" --trace=1 "${flags[@]}" \
      --json_out="$out/$w.json" --trace_out="$out/$w.trace.json" \
      > "$out/$w.txt"; then
    status=1
  fi
  grep -v '^{' "$out/$w.txt" || true
done
echo "results: $out" >&2
exit "$status"
