#!/usr/bin/env bash
# Builds the test suite with AddressSanitizer (-DIDEVAL_SANITIZE=address)
# into build-asan/ and runs the allocation-heavy tests. Any heap misuse
# (use-after-free, overflow, leak) aborts the run with a nonzero exit
# code. Sibling of run_tsan.sh: TSan finds races, ASan finds lifetime
# bugs — the shared result cache hands response copies across threads,
# so both matter.
#
# Usage: tests/run_asan.sh [extra gtest filter]
#   tests/run_asan.sh                 # serve_test + sim/engine smoke
#   tests/run_asan.sh 'ServeTest.*'   # narrower filter for serve_test
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-asan"
filter="${1:-*}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DIDEVAL_SANITIZE=address >/dev/null
cmake --build "${build_dir}" -j "$(nproc)" \
  --target serve_test obs_test sim_test engine_test property_test net_test \
  kernels_test

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1"
"${build_dir}/tests/serve_test" --gtest_filter="${filter}"
# The wire codecs decode hostile bytes (truncation/corruption sweeps) and
# the socket front-end shuttles buffers between threads: prime ASan prey.
"${build_dir}/tests/net_test" --gtest_brief=1
# Span move semantics and the exporter's buffered file writes are the
# lifetime-sensitive parts of the tracer.
"${build_dir}/tests/obs_test" --gtest_brief=1
"${build_dir}/tests/sim_test" --gtest_brief=1
"${build_dir}/tests/engine_test" --gtest_brief=1
# Property tests exercise the cache, zone-map, morsel and drag-answer
# paths against oracles.
"${build_dir}/tests/property_test" --gtest_brief=1 \
  --gtest_filter='*ZoneMap*:*ResultCache*:*Morsel*:*Drag*'
# The SIMD kernels do unaligned loads via the memcpy idiom and write
# per-lane sub-histogram scratch; ASan checks every tail length the
# property sweep generates.
"${build_dir}/tests/kernels_test" --gtest_brief=1

echo "asan: all checked tests passed with no reported errors"
