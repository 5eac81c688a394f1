#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload rodinia-sweep --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, the daemon's data
# directories and the trace output.  Outside a full checkout (no go.mod
# one level above bench/) the build fails and so does the script.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOWORK=off GOTOOLCHAIN=local

(cd bench && go build -o "$out/polybench" .)
exec "$out/polybench" --dir bench --out "$out" "$@"
