#!/usr/bin/env bash
# Builds sketchd and the benchmark from source, then runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload skimp-ingest --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes goes under .bench_build/ in the
# repository root, the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/sketchd || ! -f perfbench/go.mod ]]; then
    echo "perfbench: run from the repository root (need go.mod, cmd/sketchd and perfbench/)" >&2
    exit 2
fi
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/sketchd" ./cmd/sketchd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -sketchd "$out/sketchd" -workdir "$out" "$@"
