#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#	bash perfbench/run.sh --workload hot-jobs --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. Everything it writes (the Go build and
# telemetry caches, the binary, scratch stores and traces) goes under
# .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out/perfbench-work" "$@"
