#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run it from the root of a checkout: bash benchmark/run.sh --workload
# gates_stream_I --seed 1 --seconds 15 --trace 0. Everything the build and
# the run write (Go's caches, the binary, temporary session stores) stays
# under .bench_build/ in that checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOFLAGS="-modcacherw"
export GOTOOLCHAIN="local"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"

# Go's telemetry is switched off before the first go command: with a new
# configuration directory that command starts a background "go" process
# that outlives it, and a run may leave no process behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

if [[ ! -f go.mod ]]; then
  echo "benchmark/run.sh: no go.mod in $PWD: run it from the root of a checkout of the repo" >&2
  exit 1
fi

go build -o "$build/strix-benchmark" ./benchmark
exec "$build/strix-benchmark" "$@"
