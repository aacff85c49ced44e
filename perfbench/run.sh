#!/usr/bin/env bash
# Builds the benchmark and the unfold-serve binary from the checkout it is
# run in, then runs one benchmark pass:
#
#   bash perfbench/run.sh --workload offline-dnn --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# stays under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"

go build -o "$out/bin/unfold-serve" ./cmd/unfold-serve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -work "$out" -serve-bin "$out/bin/unfold-serve" "$@"
