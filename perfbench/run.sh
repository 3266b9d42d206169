#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it from the root of
# the checkout. Every build and run artefact stays under .bench_build/.
#
#   bash perfbench/run.sh --workload tpcc-10wh --seed 1 --seconds 35 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters here.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
# Fall back to the Go distribution's default install location.
command -v go >/dev/null || export PATH="/usr/local/go/bin:$PATH"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/data" "$@"
