#!/usr/bin/env bash
# Builds the benchmark and the eotorad daemon from the checkout in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash bench/run.sh --workload paper-1k --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -repeat 5          # every workload, median and quartiles
#
# Every build output, cache and temporary file stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/bin/eotora-bench" .)
go build -o "$out/bin/eotorad" ./cmd/eotorad
exec "$out/bin/eotora-bench" -eotorad "$out/bin/eotorad" "$@"
