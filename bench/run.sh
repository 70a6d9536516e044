#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark (see bench/README.md):
#
#   bash bench/run.sh --workload integrate-mix --seed 1998 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build/
# under the repository root, and nothing is fetched over the network.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/config"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
