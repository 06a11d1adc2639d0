#!/bin/sh
# check.sh — the full local gate: build, vet, lint (cmd/mealint), then the
# test suite under the race detector. CI and pre-commit both run exactly
# this; a clean exit here means the tree is submittable.
set -eu
cd "$(dirname "$0")"

# One cleanup handler for every temporary directory the gates below create:
# registering a second `trap ... EXIT` silently replaces the first, so each
# gate appends to this list instead of installing its own trap.
tmpdirs=""
cleanup() {
	# shellcheck disable=SC2086 # word-splitting the list is the point
	[ -n "$tmpdirs" ] && rm -rf $tmpdirs
}
trap cleanup EXIT

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go run ./cmd/mealint ./..."
go run ./cmd/mealint ./...

echo "==> scheduler differentials (serial vs wavefront, both paths, -race)"
go test -race -run 'Differential|Submit|ExplainPlan|PlanInterleaves' \
	./internal/accel ./internal/mealibrt

echo "==> go test -race ./..."
go test -race ./...

echo "==> mealibd wire-parser fuzz smoke (frames and descriptors from untrusted peers)"
go test -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime 5s ./internal/mealibd
go test -run '^$' -fuzz '^FuzzUnmarshalDescriptor$' -fuzztime 5s ./internal/mealibd

echo "==> mealint flag smoke (-analyzers filter, -json output)"
test "$(go run ./cmd/mealint -analyzers addrflow -json ./internal/phys)" = "[]"

echo "==> mealib-bench -micro smoke (AXPY, scheduler on/off)"
microdir=$(mktemp -d)
tmpdirs="$tmpdirs $microdir"
go run ./cmd/mealib-bench -micro "$microdir" -ops AXPY >/dev/null
test -s "$microdir/BENCH_AXPY.json"
grep -q speedup_vs_serial "$microdir/BENCH_AXPY.json"

echo "==> descriptor fusion gate (CHAIN micro, bytes moved must drop)"
go test -race -run 'TestFusionGate' -count=1 ./internal/exp

echo "==> mealib-bench fused columns smoke (CHAIN, fusion on/off)"
chaindir=$(mktemp -d)
tmpdirs="$tmpdirs $chaindir"
go run ./cmd/mealib-bench -micro "$chaindir" -ops CHAIN >/dev/null
grep -q fused_ns_per_op "$chaindir/BENCH_CHAIN.json"
grep -q dram_bytes_per_op "$chaindir/BENCH_CHAIN.json"

echo "==> mealib-trace e2e smoke (traced micro AXPY, validated export)"
tracedir=$(mktemp -d)
tmpdirs="$tmpdirs $tracedir"
# The CLI validates the trace itself (monotone timestamps, matched B/E
# spans) and exits non-zero on a bad one; here we additionally check both
# artifacts landed with content.
go run ./cmd/mealib-trace -workload micro -op AXPY -out "$tracedir" >/dev/null
grep -q traceEvents "$tracedir/trace.json"
grep -q 'accel.launches' "$tracedir/metrics.json"

echo "==> mealibd smoke gate (unix socket, 16 concurrent CHAIN tenants)"
go run ./cmd/mealibd -smoke 16 >/dev/null

echo "==> mealib-bench -serve smoke (loaded server, BENCH_SERVE.json)"
servedir=$(mktemp -d)
tmpdirs="$tmpdirs $servedir"
go run ./cmd/mealib-bench -serve "$servedir" -launches 16 >/dev/null
grep -q launches_per_sec "$servedir/BENCH_SERVE.json"
grep -q wait_p99_us "$servedir/BENCH_SERVE.json"

echo "==> out-of-core differential smoke (oversized AXPY staged through 512 KiB, prefetch on/off)"
oocdir=$(mktemp -d)
tmpdirs="$tmpdirs $oocdir"
# The benchmark itself verifies both runs bit for bit against the host
# reference and fails hard on a mismatch; here we additionally check the
# artifact recorded the differential and both timing columns.
go run ./cmd/mealib-bench -ooc "$oocdir" >/dev/null
grep -q '"bit_identical_to_host": true' "$oocdir/BENCH_OOC.json"
grep -q prefetch_speedup "$oocdir/BENCH_OOC.json"

echo "==> multi-stack graph gate (4-stack n=2^16 PageRank: bit-identity + per-link traffic conservation, -race)"
go test -race -run 'TestGraphGatePageRankSmoke' -count=1 ./internal/apps/graph

echo "==> mealib-bench -graph smoke (BENCH_GRAPH.json, verified stack sweep)"
gdir=$(mktemp -d)
tmpdirs="$tmpdirs $gdir"
# The benchmark verifies every (workload, stacks) configuration bit for
# bit against the serial reference and fails hard on divergence; here we
# additionally check the artifact recorded the differential and the
# multi-stack speedup column.
go run ./cmd/mealib-bench -graph "$gdir" >/dev/null
grep -q '"bit_identical_to_serial": true' "$gdir/BENCH_GRAPH.json"
grep -q speedup_vs_1stack "$gdir/BENCH_GRAPH.json"
grep -q inter_stack_bytes_per_iter "$gdir/BENCH_GRAPH.json"

echo "check.sh: all gates passed"
