#!/usr/bin/env bash
# Builds the encore CLI and the e2ebench harness from this checkout's
# source, then runs the harness with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload fleet-disk --seed 1 --seconds 30 --trace 0
#   bash e2ebench/run.sh compare -parent ../parent -change . -pairs 10
#
# Everything it builds, generates and records stays under .bench_build/ in
# the checkout: the Go build cache, the binaries, the per-run work
# directories (removed after each run), results/*.jsonl and traces/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/encore" ]]; then
	echo "e2ebench: $root is not a full checkout (no go.mod or cmd/encore)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS="" GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root" && go build -o "$build/encore" ./cmd/encore)
(cd "$here" && go build -o "$build/e2ebench" .)

case "${1:-}" in
compare) exec "$build/e2ebench" "$@" ;;
*) exec "$build/e2ebench" -root "$root" -encore "$build/encore" "$@" ;;
esac
