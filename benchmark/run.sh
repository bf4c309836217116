#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments, from the repository root. Everything the build leaves behind
# (binary, Go build cache, module cache, toolchain counters, temporary files)
# stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$build/meshbench" . >&2
cd "$root"
exec "$build/meshbench" "$@"
