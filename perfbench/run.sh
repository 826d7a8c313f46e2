#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Build outputs, the Go build cache and
# the traced run's spans all stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
# Everything the go command writes (build cache, temporary files, module
# cache, telemetry counters under the config dir) stays in the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .) >&2
exec "$build/perfbench-bin" "$@"
