#!/usr/bin/env bash
# Builds strata-broker, strata-worker and the benchmark from the checkout's
# sources into .bench_build/, then runs the benchmark with the given flags.
# Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload fig7-saturate --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --compare --seed 1
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
# Everything the toolchain caches stays inside the checkout; the module has
# no dependencies outside the repository, so nothing is fetched.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -o "$out/bin/" ./cmd/strata-broker ./cmd/strata-worker >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" "$@"
