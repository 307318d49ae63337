#!/usr/bin/env bash
# Builds the benchmark and cmd/sweepd from the checkout it is run in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload sweep-warm --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# temporary stores and the reports all go under .bench_build/, so the
# benchmark reads and writes nothing outside the checkout. Every
# argument is passed to the benchmark program (see main.go).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# Both builds fail (and so does this script, before printing a result)
# when the checkout lacks the module the benchmark measures.
go build -C perfbench -o "$out/bin/perfbench" .
go build -o "$out/bin/sweepd" ./cmd/sweepd

exec "$out/bin/perfbench" -sweepd "$out/bin/sweepd" -out "$out/perfbench" "$@"
