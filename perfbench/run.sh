#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload warm_repeat --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory, the Go build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# The module needs nothing but the repository itself: never fetch.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
