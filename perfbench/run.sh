#!/usr/bin/env bash
# Builds the benchmark from source in the checkout and runs it with
# the given arguments; see README.md. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload repro-quick --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# goes under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp"

# The toolchain must not fetch anything: no toolchain switch, no proxy.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"

(cd perfbench && go build -trimpath -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
