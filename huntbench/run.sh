#!/usr/bin/env bash
# Builds and runs the end-to-end hunt benchmark. Run it from the
# repository root:
#
#   bash huntbench/run.sh --workload model-hunt --seed 1 --seconds 50 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory, including the Go build cache.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/tmp"
(cd "$bench" && go build -o "$out/huntbench" . && go build -o "$out/crashy" afex/cmd/crashy) >&2
exec "$out/huntbench" -workdir "$out" -crashy "$out/crashy" "$@"
