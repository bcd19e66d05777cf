#!/usr/bin/env bash
# Builds pandia-bench from this checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash cmd/pandia-bench/run.sh --workload advise --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build at
# the checkout root. The build fails, and so does this script, when the
# checkout's module sources are missing.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path"

export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$build/pandia-bench" .)
exec "$build/pandia-bench" "$@"
