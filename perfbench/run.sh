#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload spider-dev --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, toolchain config, the binary)
# and everything the run writes (segment stores) stays under .bench_build.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
(
	export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" \
		XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
		GOPATH="$out/home/go" GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off
	go build -C perfbench -o "$out/perfbench" .
)
exec "$out/perfbench" --dir "$out" "$@"
