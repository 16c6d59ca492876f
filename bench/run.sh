#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash bench/run.sh --workload fresh --seed 7 --seconds 20 --trace 0
#   bash bench/run.sh compare parent.jsonl change.jsonl
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the benchmark
# binary, served-workload temp dirs and Chrome traces. No module is
# downloaded; the benchmark depends only on the repository itself.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
# Keeps the go command's telemetry and env files inside the checkout too.
export XDG_CONFIG_HOME="$out/config"

go -C bench build -o "$out/meecc-bench" .
exec "$out/meecc-bench" "$@"
