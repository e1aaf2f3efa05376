#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload cells --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the result files stay inside the
# checkout (.bench_build/ and .bench_out/). A failed build exits non-zero
# without printing a result.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath"
export XDG_CONFIG_HOME="${build}/config" XDG_CACHE_HOME="${build}/cache"

(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" --out "${root}/.bench_out" "$@"
