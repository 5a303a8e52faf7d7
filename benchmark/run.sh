#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (compiler cache included, so nothing is written outside the
# checkout) and runs it with the given arguments. BENCHMARK.json names this
# script as the command.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go build -C "$here" -o "$out/aam-benchmark" .
exec "$out/aam-benchmark" "$@"
