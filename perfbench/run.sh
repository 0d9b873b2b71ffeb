#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments. Everything the build and the run
# write stays under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --workdir "$out" "$@"
