#!/usr/bin/env bash
# Builds the test suite with ThreadSanitizer (-DIDEVAL_SANITIZE=thread)
# into build-tsan/ and runs the concurrency-heavy tests. Any data race
# aborts the run with a nonzero exit code.
#
# Usage: tests/run_tsan.sh [extra gtest filter]
#   tests/run_tsan.sh                 # serve_test + sim/engine smoke
#   tests/run_tsan.sh 'ServeTest.*'   # narrower filter for serve_test
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-tsan"
filter="${1:-*}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DIDEVAL_SANITIZE=thread >/dev/null
cmake --build "${build_dir}" -j "$(nproc)" \
  --target serve_test obs_test sim_test engine_test net_test \
  kernels_test property_test

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
"${build_dir}/tests/serve_test" --gtest_filter="${filter}"
# The net front-end crosses three thread populations (event loop, server
# workers posting completions, client threads) including connection
# setup/teardown; every handoff claim lives or dies here.
"${build_dir}/tests/net_test" --gtest_brief=1
# The trace buffer is written from every worker and shard lane; its
# sharded-ring claims live or die under TSan.
"${build_dir}/tests/obs_test" --gtest_brief=1
# The simulated stack is single-threaded but links the same libraries;
# run it too so TSan sees the whole tier-1 surface it can reach quickly.
"${build_dir}/tests/sim_test" --gtest_brief=1
"${build_dir}/tests/engine_test" --gtest_brief=1
# The SIMD kernel tables are resolved through function-pointer statics
# and a cached CPUID probe; the property suite calls them from the
# engine paths TSan instruments.
"${build_dir}/tests/kernels_test" --gtest_brief=1
# Elastic morsels: participants claim morsels of one histogram scan off
# a shared atomic queue into private partials that the owner merges (the
# serve_test Morsel* cases above cross it with parked workers) — the
# order-independence claim lives or dies here. Drag answers build a
# column's sorted order once, under a once-guard, for every thread that
# first needs it at the same time.
"${build_dir}/tests/property_test" --gtest_brief=1 \
  --gtest_filter='*Morsel*:*Sharded*:*Drag*'

echo "tsan: all checked tests passed with no reported races"
