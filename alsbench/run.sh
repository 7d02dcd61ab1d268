#!/usr/bin/env bash
# Builds the benchmark and alsd from source, then runs one workload:
#
#   bash alsbench/run.sh --workload flow_paper --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under the build directory ($CARGO_TARGET_DIR, default
# .bench_build): binaries, the Go build cache, scratch stores and span
# exports.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

# The Go toolchain's caches and its user config (telemetry counters, go
# env file) stay in the build directory too.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out XDG_CONFIG_HOME=$out/config
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# The benchmark is its own module; it builds against the repository one
# directory up, so it cannot build where only the benchmark is present.
(cd "$here" && go build -o "$out/alsbench" .) >&2
(cd "$here/.." && go build -o "$out/alsd" ./cmd/alsd) >&2

exec "$out/alsbench" -alsd "$out/alsd" -out "$out" "$@"
