#!/usr/bin/env bash
# Builds hostbench from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash hostbench/run.sh --workload lemming --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build cache and binary live under
# .bench_build in the current directory, so nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "hostbench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's local telemetry counters here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off
(cd "$root/hostbench" && go build -o "$out/hostbench" .)
exec "$out/hostbench" "$@"
