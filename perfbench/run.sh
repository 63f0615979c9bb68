#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it
# with the given arguments. Everything the build and the run leave
# behind goes under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload paper-quick --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
state="$root/.bench_build"
mkdir -p "$state/gocache" "$state/home" "$state/tmp"
export GOCACHE="$state/gocache" GOPATH="$state/gopath" GOMODCACHE="$state/gopath/pkg/mod"
export HOME="$state/home" XDG_CONFIG_HOME="$state/home/.config" XDG_CACHE_HOME="$state/home/.cache"
export GOTOOLCHAIN=local GOFLAGS= TMPDIR="$state/tmp"
export PERFBENCH_ROOT="$root" PERFBENCH_STATE="$state"
bin="$state/perfbench"
(cd "$root/perfbench" && go build -o "$bin.$$" . && mv -f "$bin.$$" "$bin") >&2
exec "$bin" "$@"
