#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Every argument is passed through to the benchmark binary:
#
#   bash perfbench/run.sh --workload cold-report --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --regen-golden
#
# The Go build cache, temporary files, the binary and the span dumps
# live under .bench_build/ at the checkout root, so nothing is written
# elsewhere.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --dir "$here" --out "$out" "$@"
