#!/bin/sh
# run.sh builds the benchmark from the checkout's sources and runs it
# with the given arguments, from the root of the checkout:
#
#	bash bench/run.sh --workload chess-dense --seed 1 --seconds 20 --trace 0
#	bash bench/run.sh compare 'runs/a-*.json' 'runs/b-*.json'
#
# Everything the Go toolchain writes (build cache, temp files, the
# binary) stays under .bench_build/ in the checkout, and the toolchain
# never reaches for the network. Without the parent module next to
# bench/ the build fails and the script exits non-zero with no result.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$out/dfpc-bench" .)
exec "$out/dfpc-bench" "$@"
