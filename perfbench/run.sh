#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Everything the
# build and the run write stays under .bench_build/ at the repository
# root. Usage, from the repository root:
#
#   bash perfbench/run.sh --workload rw-mixed --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/perfbench"
# The go command's caches, temporary files and telemetry counters
# (under the user config directory) all go under .bench_build too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .)
cd "$root"
exec "$out/perfbench/perfbench" "$@"
