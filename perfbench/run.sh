#!/usr/bin/env bash
# Builds and runs cloudgraph's end-to-end benchmark from the repository
# root:
#
#   bash perfbench/run.sh --workload ingest-only --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary, the
# scratch data directories and the span dumps of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false CGO_ENABLED=0

go build -C "$root/perfbench" -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
