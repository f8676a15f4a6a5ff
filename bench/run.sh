#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Everything the build and the run leave behind
# (build cache, binary, journals of the rados-wal workload) goes under
# .bench_build/ at the root of the checkout; traces go to bench/out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

# Keep the toolchain's own files inside the checkout as well.
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/malabench" .)

cd "$root"
TMPDIR="$build/tmp" exec "$build/malabench" "$@"
