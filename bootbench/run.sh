#!/usr/bin/env bash
# Builds the boot benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#
#   bash bootbench/run.sh --workload warm-boot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary, the run's temporary
# directory (removed when the run ends) and traced runs' span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

(cd "$root/bootbench" && go build -o "$out/bootbench" .)
exec "$out/bootbench" -workdir "$out" "$@"
