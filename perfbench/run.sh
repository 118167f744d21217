#!/usr/bin/env bash
# Build the paper-regeneration benchmark from the checkout's sources and run
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig8-paper --seed 379 --seconds 40 --trace 0
#
# Every build and run artifact (Go build cache, binary, trace files) goes
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/config"
out="$(cd "$out" && pwd)"

# Keep the toolchain's caches and its telemetry (kept under the user config
# directory) inside the checkout too.
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
