#!/usr/bin/env bash
# Builds acic-bench, acic-serve, acic-trace and perfbench itself from
# the checkout it is run in, then runs perfbench with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 25 --trace 0
#
# Every build and scratch file stays under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout: Go's build cache, temporary files and
# telemetry counters included.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
# Telemetry off: in its default "local" mode the go command forks a
# detached upload process that outlives the build.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/bin/" ./cmd/acic-bench ./cmd/acic-serve ./cmd/acic-trace
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
