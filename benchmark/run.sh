#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from source and runs
# it with the arguments given, from the root of the checkout. Everything the
# build and the run write (Go's caches, the binary, the moving-objects WAL)
# goes under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" -scratch "$build/scratch" "$@"
