#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload, from the
# repository root:
#
#   bash sicbench/run.sh --workload figures --seed 1 --seconds 50 --trace 0
#
# The binary, the Go build cache and every scratch file live under
# .bench_build/ in the root, so a run reads and writes nothing outside the
# checkout. The measured process runs with one Go processor: on a small
# shared machine a second one adds more noise than speed.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
go -C "$root/sicbench" build -o "$out/sicbench" .
GOMAXPROCS=1 exec "$out/sicbench" --root "$root" "$@"
