#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it with
# the given arguments. Everything the Go toolchain writes (build cache,
# temporary files, its own configuration and counters, the binary) stays
# under .bench_build/ in the checkout — the directory the benchmark driver
# reserves for build output — and the run's own files under bench/out/.
set -euo pipefail

# Without the program there is nothing to build: say so and start nothing.
if [[ ! -f go.mod || ! -f bench/main.go ]]; then
	echo "bench/run.sh: no go.mod and bench/main.go in $PWD: run it from the root of a checkout" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local

# The go command, on finding a configuration directory it has not seen,
# starts a telemetry sidecar that outlives it. Mode "off", written where the
# go command reads it (XDG_CONFIG_HOME above), keeps it from starting one, so
# the only processes of a run are the compiler's, which `go build` waits for,
# and the benchmark itself.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"

go build -o "$build/seqd-bench" ./bench
exec "$build/seqd-bench" "$@"
