#!/bin/sh
# Builds the benchmark inside the checkout and runs it with the driver's
# arguments. Run from the repository root: sh bench/run.sh --workload ...
# Everything the go tool writes (build cache, module cache, telemetry,
# temporary files) is pointed into .bench_build, so nothing outside the
# checkout is touched.
set -e
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp" \
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local \
	go build -C "$root/bench" -o "$build/mantis-bench" .
exec "$build/mantis-bench" "$@"
