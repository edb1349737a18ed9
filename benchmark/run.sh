#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark from source into the
# checkout's .bench_build, then run it from the checkout's root. Everything
# the Go toolchain writes (build cache, work directories, telemetry) stays
# inside the checkout too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
BENCH_DIR=benchmark exec "$build/benchmark" "$@"
