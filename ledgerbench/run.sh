#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Everything the build and the run write stays under the
# build directory inside the checkout ($CARGO_TARGET_DIR if set, else
# .bench_build).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go -C "$root/ledgerbench" build -o "$out/ledgerbench" .
exec "$out/ledgerbench" --out "$out" "$@"
