#!/usr/bin/env bash
# One command for the ewcd benchmark: build (Release, into build-bench/),
# then run ewc_bench from the repository root.
#
#   benchmark/run.sh [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --smoke
#
# Without --workload every workload runs. The measured window is
# BENCHMARK.json's run_seconds; --seconds, if given, must equal it. Build
# output goes to stderr; stdout carries only METRIC lines and, last, the
# JSON result line.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build=build-bench

# The benchmark builds the daemons from the repository around it.
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: no ewc sources (CMakeLists.txt, src/) in $root" >&2
  exit 2
fi
# Fault injection and SIMD selection come from the environment; measure the
# defaults.
unset EWC_FAULTS EWC_FAULTS_SEED EWC_SIMD

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target ewc_bench ewcsim -j "$(nproc)" >&2

exec "$build/ewc_bench" "$@"
