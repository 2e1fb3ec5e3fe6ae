#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (.bench_build/ at the
# checkout's root holds the binary and Go's build cache, so nothing is
# written outside it) and runs it from this directory. Arguments go to the
# program unchanged; see README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$build/tcio-benchmark" .
exec "$build/tcio-benchmark" "$@"
