#!/usr/bin/env bash
# Builds the end-to-end benchmark (Release, into build-bench/) and runs it.
#
#   bench/e2e/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#
# With --workload, runs that one workload in one process; the last line of
# stdout is its JSON result. Without it, runs all four workloads in turn,
# each in its own process. Every metric is also printed as
# `workload metric value unit`; JSON artifacts (and spans.jsonl files for
# traced runs) land in build-bench/artifacts/. Exits non-zero if the build
# fails or any output is wrong.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/build-bench"
if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "run.sh: library sources not found under $root/src" >&2
  exit 1
fi

# Build output goes to stderr so stdout ends with the JSON result.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target proteus_bench -j "$(nproc)" >&2

PROTEUS_BENCH_COMMIT=unknown
if [[ -d "$root/.git" ]]; then
  PROTEUS_BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export PROTEUS_BENCH_COMMIT
cd "$root"
for arg in "$@"; do
  if [[ "$arg" == --workload* ]]; then
    exec "$build/proteus_bench" "$@"
  fi
done
for workload in hot-get write-4k resize-churn sim-diurnal; do
  "$build/proteus_bench" --workload "$workload" "$@"
done
