#!/usr/bin/env bash
# Builds the perfbench driver from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 42 --seconds 20 --trace 0
#   bash perfbench/run.sh compare runs-a.txt runs-b.txt
#
# Everything the build and the runs write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the binary, the Go build
# cache, and the run records, spans and profiles (in out/).
set -euo pipefail

if [[ ! -f perfbench/go.mod || ! -f go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
