#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload live-tiny --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, module cache and
# temporary files live under .bench_build/ in the checkout, so nothing is
# read or written outside it and no network is needed.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS= GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
