#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it lives in and runs
# it from the checkout root. Every build product, cache and result file goes
# under the checkout's build directory (CARGO_TARGET_DIR when set, else
# .bench_build), so nothing outside the checkout is written.
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh compare <results-dir-a> <results-dir-b>
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .)
export PERFBENCH_OUT="$out"
exec "$out/perfbench" "$@"
