#!/usr/bin/env bash
# Builds the benchmark and the sspcd daemon from this checkout's sources and
# runs one benchmark invocation, passing every argument through:
#
#   bash benchmark/run.sh --workload fit-paper --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Binaries and the Go build cache go to
# .bench_build/ so a run writes nothing outside the checkout; the first run
# in a fresh checkout compiles the standard library into that cache.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=

go -C benchmark build -o "$out/benchmark" .
go build -o "$out/sspcd" ./cmd/sspcd
exec "$out/benchmark" -sspcd "$out/sspcd" "$@"
