#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout as `bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1`
# (BENCHMARK.json's command). Everything the build and the run write — the Go
# build cache included — stays inside the checkout, under .bench_build/ and
# benchmark/out/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod
export GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$build/config"
go -C "$root/benchmark" build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
