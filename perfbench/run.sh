#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Every build artefact (binary, build cache) stays under .bench_build at
# the checkout root; nothing is fetched from the network.
#
#   bash perfbench/run.sh --workload sim-paper --seed 1 --seconds 20 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
