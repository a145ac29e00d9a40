#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given. Everything the build writes (binary, Go build cache,
# toolchain bookkeeping) stays under .bench_build/ in the checkout, and the
# build needs nothing from outside it but the Go toolchain: the benchmark's
# module has no dependency besides the repository it sits in.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$build/benchmark" .) >&2
exec "$build/benchmark" "$@"
