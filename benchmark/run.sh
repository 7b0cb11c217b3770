#!/usr/bin/env bash
# Builds soibench/v2 from source and runs it from the repository root.
# Everything the build writes (binary, Go build cache, toolchain state)
# stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/soibench" .)
cd "$root"
# Memory the Go scavenger returns to the OS stays mapped (MADV_FREE) so
# that touching it again is not a page fault: in the microVM the numbers
# were sized on a fault costs 12-17 us, and with the runtime's default
# (MADV_DONTNEED) the allocation-heavy workloads swing between 70 and
# 105 ms per transform depending on what the scavenger released last.
export GODEBUG=madvdontneed=0
exec "$build/soibench" "$@"
