#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it is run in and runs it
# with the given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload explore_cold --seed 1 --seconds 32 --trace 0
#
# The Go build cache and the binary go to .bench_build/ and the run's
# files to .bench_out/, both under the working directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# No user Go configuration, workspace, toolchain download or module proxy:
# the build reads only the checkout and the installed toolchain.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/servebench" && go build -o "$build/servebench" .)
exec "$build/servebench" "$@"
