#!/usr/bin/env bash
# Builds the end-to-end frame benchmark from this checkout's sources and
# runs it. Run it from the repository root; every argument passes
# through to the benchmark:
#
#   bash e2ebench/run.sh --workload render-lan --seed 1 --seconds 10 --trace 0
#   bash e2ebench/run.sh            # every workload, untraced and traced
#
# The Go build cache, the binary and the dataset files all stay under
# .bench_build/ in the current directory.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build/e2ebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$bench" build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" --dir "$out/work" "$@"
