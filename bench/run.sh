#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash bench/run.sh --workload census --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# temporary files, profiles) stays under .bench_build/ in the current
# directory. The toolchain never downloads anything: the benchmark module
# needs only the repository it sits in.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export PPROF_TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/bench" && go build -o "$out/hbbench" .)
exec "$out/hbbench" "$@"
