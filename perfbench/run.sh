#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload burst|flight|serve --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run write —
# the Go build cache, the binary and temporary journals — stays under
# .bench_build in the current directory.
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS="-mod=mod -buildvcs=false" GOTELEMETRY=off CGO_ENABLED=0
go build -C "$root/perfbench" -o "$out/perfbench" . 1>&2
exec "$out/perfbench" "$@"
