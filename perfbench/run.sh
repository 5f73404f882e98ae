#!/usr/bin/env bash
# Builds the repository benchmark from the sources of this checkout and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload fanout-soap --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ]; then
	echo "perfbench: run from the repository root (no go.mod or internal/core here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# The go command's cache, temporary files and local telemetry all stay in
# the checkout; nothing is downloaded.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
XDG_CONFIG_HOME="$out/config" go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
