#!/usr/bin/env bash
# Configure, build and run the end-to-end benchmark.
#
#   bench/e2e/run.sh [--seed=N] [--traced] [--smoke] [--workload=NAME] [--seconds=S]
#
# Builds into build-e2e/ at the repository root, then runs every workload
# (or the one named). Build output goes to stderr, so the last line on
# stdout is always the benchmark's result. Any other flag is passed on to
# e2e_bench as is (see bench/e2e/main.cpp); --traced is --trace=1.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/build-e2e"

args=()
for arg in "$@"; do
  case "$arg" in
    --traced) args+=(--trace=1) ;;
    *) args+=("$arg") ;;
  esac
done

if [ ! -f "$build/Makefile" ] && [ ! -f "$build/build.ninja" ]; then
  cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" --target e2e_bench >&2

cd "$root"
exec "$build/e2e_bench" "${args[@]}"
