#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from source and runs
# it with the given arguments; everything it writes (Go build cache, binary,
# scratch databases, trace files) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -work "$build/work" -out "$here/out" "$@"
