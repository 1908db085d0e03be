#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash fpvmbench/run.sh --workload paper-batch --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and every scratch file the run writes
# (snapshot directories, the span file) stay under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C fpvmbench build -o "$out/fpvmbench" .
exec "$out/fpvmbench" --workdir "$out" "$@"
