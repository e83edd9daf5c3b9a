#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Run from the repository root.  Everything the build and the run write
# (Go build cache, binary, snapshots, spans, CPU profiles) stays under
# .bench_build/ in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off \
	XDG_CONFIG_HOME="$build/config"

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -workdir "$build" "$@"
