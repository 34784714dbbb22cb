#!/usr/bin/env bash
# Builds secembd (the program under test) and the benchmark from source
# into .bench_build/ at the repository root, then runs the benchmark with
# the given arguments. Everything the Go toolchain writes stays inside
# .bench_build/, so a run touches nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$root" && go build -o "$build/secembd" ./cmd/secembd)
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" -secembd "$build/secembd" -root "$root" "$@"
