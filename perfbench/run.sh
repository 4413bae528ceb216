#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload emulator --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes (build
# cache, module cache, config) and everything a run leaves behind stays
# under .bench_build/ in that directory; the last line of standard output
# is the JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
