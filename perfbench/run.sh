#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through:
#
#   bash perfbench/run.sh --workload module-batch --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# trace files stay under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the root of a repository checkout (go.mod and perfbench/go.mod needed)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
