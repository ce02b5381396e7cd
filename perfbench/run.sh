#!/bin/sh
# run.sh builds the end-to-end benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload table2-oftec --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, binary, span dumps) stays under .bench_build/ in the current
# directory, so nothing is read from or written to the user's home.
set -eu

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= \
	GOWORK=off GOPROXY=off \
	go -C "$root/perfbench" build -o "$out/perfbench" . >&2

exec "$out/perfbench" -out "$out" -ref "$root/perfbench/reference.json" "$@"
