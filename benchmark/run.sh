#!/usr/bin/env bash
# Builds the benchmark and the PIER packages it imports from this
# checkout's source, then runs it with the given flags:
#
#   bash benchmark/run.sh --workload tcp-scan --seed 3 --seconds 15 --trace 0
#
# Everything the build leaves behind (binary, Go build cache) goes under
# .bench_build/ at the root of the checkout; nothing outside the checkout
# is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/pier-benchmark" .)
cd "$root"
exec "$build/pier-benchmark" "$@"
