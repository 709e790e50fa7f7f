#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash cmd/heraclesbench/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the harness from source and hands it the arguments. Every
# file the build and the run write — Go's build cache, its temporary
# files, the binaries, report.json and trace.json — stays under
# .bench_build in the checkout, and the toolchain is kept offline, so
# nothing outside the checkout is read or written.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/bin/heraclesbench" ./cmd/heraclesbench
exec "$build/bin/heraclesbench" "$@"
