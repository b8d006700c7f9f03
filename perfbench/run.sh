#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
# Build outputs, the Go build cache and run scratch files stay in
# .bench_build at the checkout root. The build fails, and the script exits
# non-zero without printing a result, when the powerfail sources are absent.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# The module has no dependencies: never fetch a module or a toolchain, and
# keep the go command's cache and telemetry inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
