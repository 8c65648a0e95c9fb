#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root with the given arguments. Build outputs and the Go build
# cache stay inside the checkout, under $CARGO_TARGET_DIR (default
# .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
