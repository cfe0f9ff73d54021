#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#   bash mavrbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build outputs, the Go build cache and
# the go command's own config and telemetry files stay under
# .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
bench="$root/mavrbench"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$bench" && go build -o "$out/mavrbench" .)
exec "$out/mavrbench" "$@"
