#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, e.g.
#
#   bash bench/run.sh --workload fleet-mix --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh compare -parent DIR -change DIR
#
# The Go build cache, temporary files and the binary stay under
# .bench_build in the working directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "bench: run from the repository root (go.mod and bench/go.mod not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
