#!/usr/bin/env bash
# Builds rrqload from this checkout and runs it from the repository root,
# passing every argument through, e.g.
#
#   bash bench/run.sh --workload mixed-3d --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the benchmark's scratch files all live in
# .bench_build/ at the repository root; nothing is downloaded. Without the
# rrq module one directory up, the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/bench" build -o "$out/rrqload" ./rrqload
cd "$root"
exec "$out/rrqload" "$@"
