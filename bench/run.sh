#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build
# directory (Go build and module caches included, so nothing is written
# outside the checkout) and runs it from bench/, passing every argument
# through. BENCHMARK.json's command is `bash bench/run.sh`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/bglabench" . >&2
exec "$build/bglabench" "$@"
