#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from the
# checkout's source with every build product under .bench_build/ in the
# checkout, then replaces itself with the binary, which gets the
# driver's arguments (--workload --seed --seconds --trace) unchanged.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
