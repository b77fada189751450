#!/usr/bin/env bash
# Builds the starperfd end-to-end benchmark from this checkout and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload predict-open --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, temp dirs and
# traced runs' spans. The benchmark is its own Go module (perfbench/go.mod)
# that uses the repository's packages through a replace directive, so
# it builds only inside a full checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOMODCACHE="$build/go-mod"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --root "$root" "$@"
