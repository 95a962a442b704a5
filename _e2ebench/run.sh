#!/usr/bin/env bash
# Builds the repository benchmark from the checkout it sits in and runs
# one workload. Run from the root of the checkout:
#
#   bash _e2ebench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (compiler cache, temporaries, the binary, span dumps).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C _e2ebench -o "$out/e2ebench" . >&2
exec "$out/e2ebench" --trace-dir "$out" "$@"
