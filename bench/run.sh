#!/usr/bin/env bash
# Builds expfinder-server and the benchmark from this checkout, then runs
# the benchmark with the given flags. Everything built or written stays
# under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/expfinder-server" ./cmd/expfinder-server
(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" -server "$out/bin/expfinder-server" "$@"
