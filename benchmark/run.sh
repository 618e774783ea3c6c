#!/bin/bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build and the run write — the Go build cache,
# the binary, temporary snapshots — stays in .bench_build inside the
# checkout; nothing is downloaded (the module has no dependency outside
# the repo).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/pastas-benchmark" .)
cd "$root"
exec "$build/pastas-benchmark" "$@"
