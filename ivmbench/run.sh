#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from
# the root of the checkout. The build cache, the binary, scratch
# directories and span files all stay under .bench_build there.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/ivmbench" && go build -o "$build/ivmbench" .)
exec "$build/ivmbench" "$@"
