#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash bench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/ in the current directory. Module downloads are
# disabled and go.mod is read-only: the benchmark needs nothing beyond
# the standard library and this repository.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
  GOPATH="$build/gopath" GOPROXY=off GOSUMDB=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
mkdir -p "$GOCACHE" "$GOTMPDIR" "$XDG_CONFIG_HOME"
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
