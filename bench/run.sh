#!/usr/bin/env bash
# Builds the benchmark, its reference server and cmd/dqserve from this
# checkout, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#	bash bench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, compiler temporaries and the
# toolchain's own state all go under $CARGO_TARGET_DIR (default
# .bench_build), so a run writes nothing outside the checkout and never
# reaches the network.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-mod=readonly

go build -C bench -o "$out/bench" .
go build -C bench -o "$out/refserve" ./refserve
go build -o "$out/dqserve" ./cmd/dqserve
exec "$out/bench" -dqserve "$out/dqserve" -refserve "$out/refserve" "$@"
