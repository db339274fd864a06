#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument is passed through. The Go build cache, module cache, temporary
# files and the go command's own state all live under .bench_build, so
# nothing is read or written outside the checkout.
#
#   bash bench/run.sh --workload wide_quiet --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/xatu-bench" .)
cd "$root"
exec "$build/xatu-bench" "$@"
