#!/usr/bin/env bash
# Builds jobbench from source and runs one benchmark run, from the root of a
# checkout of the repository:
#
#   bash jobbench/run.sh --workload bell_density --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, the binary and trace files.
set -euo pipefail
root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/jobbench" && go build -o "$out/jobbench" .)
exec "$out/jobbench" "$@"
