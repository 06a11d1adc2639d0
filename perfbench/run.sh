#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload radar --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, traces) stays under
# .bench_build in the checkout.
set -euo pipefail
if [ ! -f perfbench/go.mod ] || [ ! -f go.mod ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME keeps the go command's own telemetry counters in the
# checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
