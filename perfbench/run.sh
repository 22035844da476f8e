#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.:
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 20 --trace 0
# Everything the build and the run leave behind goes under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # the go command's own settings and counters
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
