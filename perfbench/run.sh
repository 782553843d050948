#!/usr/bin/env bash
# Builds the benchmark from the checkout that contains this script and runs
# it with the given arguments, from the checkout's root. Every file the
# build and the run write goes under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload movies-learn --seed 1 --seconds 35 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C "$root/perfbench" build -o "$out/perfbench" .

if [ -d "$root/.git" ]; then
	PERFBENCH_GIT_REV="$(git -C "$root" rev-parse HEAD)"
	export PERFBENCH_GIT_REV
fi
cd "$root"
exec "$out/perfbench" "$@"
