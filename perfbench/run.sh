#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and executes it with the
# given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload pgsk-build --seed 1 --seconds 20 --trace 0
#
# All build state (Go build cache, binary, traces, spill files) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod GOENV=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .)

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
exec "$out/bin/perfbench" --commit "$commit" "$@"
