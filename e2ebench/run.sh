#!/usr/bin/env bash
# Builds the tuning service's daemons and the benchmark from the checkout,
# then runs the benchmark with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload phased-dba --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binaries, daemon data, results) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/wfit-serve" ]]; then
	echo "e2ebench: run from the repository root (no go.mod or cmd/wfit-serve here)" >&2
	exit 1
fi
work="$root/.bench_build"
bin="$work/bin"
mkdir -p "$bin" "$work/tmp"

export GOCACHE="$work/gocache"
export GOTMPDIR="$work/tmp"
export TMPDIR="$work/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

go build -o "$bin/wfit-serve" ./cmd/wfit-serve >&2
go build -o "$bin/wfit-router" ./cmd/wfit-router >&2
(cd "$root/e2ebench" && go build -o "$bin/e2ebench" .) >&2

# Every result is stamped with the commit (when this is a git checkout)
# and a digest of the Go sources and module files; the digest also keys
# the total-work reference ledger, so edited sources never meet a stale
# reference.
E2EBENCH_COMMIT=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo none)
E2EBENCH_SOURCE=$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print \
	| LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)
export E2EBENCH_COMMIT E2EBENCH_SOURCE

exec "$bin/e2ebench" --work "$work" --bin "$bin" "$@"
