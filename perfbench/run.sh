#!/usr/bin/env bash
# Builds the benchmark and revcnnd from the checkout it is run in, then runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload clean-dataflows --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/perfbench.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod needed)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # the go command's env file and telemetry counters
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

commit=unknown
if [[ -d "$root/.git" ]]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/revcnnd" cnnrev/cmd/revcnnd) >&2

exec "$out/perfbench" -revcnnd "$out/revcnnd" -out "$out/results" -commit "$commit" "$@"
