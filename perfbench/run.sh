#!/usr/bin/env bash
# Builds the benchmark harness and the dcrmd daemon from this checkout, then
# runs one workload:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write stays
# under .bench_build/ in the checkout (Go build cache, temp files, results).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/bin"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export PPROF_TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=-mod=readonly
export CGO_ENABLED=0

cd "$here"
go build -o "$build/bin/perfbench" .
go build -o "$build/bin/dcrmd" github.com/datacentric-gpu/dcrm/cmd/dcrmd
cd "$root"
exec "$build/bin/perfbench" -root "$root" -dcrmd "$build/bin/dcrmd" "$@"
