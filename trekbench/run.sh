#!/usr/bin/env bash
# Builds graphtrek-gen, graphtrek-server and the trekbench binary from this
# checkout into .bench_build/trekbench, then runs trekbench from the
# checkout's root with the given arguments, e.g.
#
#   bash trekbench/run.sh --workload meta-audit --seed 1 --seconds 20 --trace 0
#
# The Go build cache and every temporary file stay under .bench_build.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/trekbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root" && go build -o "$out/bin/" ./cmd/graphtrek-gen ./cmd/graphtrek-server) >&2
(cd "$root/trekbench" && go build -o "$out/bin/trekbench" .) >&2
cd "$root"
exec "$out/bin/trekbench" --bin "$out/bin" --work "$out/run" "$@"
