#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload grid-cipher --seed 1 --seconds 20 --trace 0
#
# The binary, Go's build cache and every other file the Go tool writes go
# to .bench_build/ in the current directory, so a run reads and writes
# nothing outside the checkout. perfbench/ is its own module that reaches
# the simulator through `replace repro => ../`; outside a full checkout
# the build fails and so does the run.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
