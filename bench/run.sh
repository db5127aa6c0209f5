#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source inside the checkout and run it with the given flags.
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ in the checkout; `go run ./bench` does the same
# job with the user's own Go cache.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
# Unix sockets of the unix/shm transports are minted under $TMPDIR; keep
# them in the checkout when its path is short enough for sun_path.
if [ "${#build}" -le 40 ]; then export TMPDIR="$build/tmp"; fi
go build -o "$build/skipper-bench" ./bench
exec "$build/skipper-bench" "$@"
