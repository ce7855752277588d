#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes — Go build cache, binary, the peers' datadirs —
# goes under .bench_build/ at the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go -C bench build -o "$build/e2e" ./e2e
exec "$build/e2e" "$@"
