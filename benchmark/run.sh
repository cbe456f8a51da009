#!/usr/bin/env bash
# Build the benchmark from source into .bench_build (Release) at the
# repository root, then run socflow_bench with the given arguments:
#
#   bash benchmark/run.sh --workload harvest-1rack --seed 1 --seconds 30 --trace 0
#   bash benchmark/run.sh --seed 42 --repeats 5 --out bench.json
#
# Build output goes to stderr, so the last stdout line stays the
# benchmark's result. A failed build exits non-zero without a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"

if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j 4 >&2
exec "$build/socflow_bench" "$@"
