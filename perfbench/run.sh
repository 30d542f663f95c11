#!/usr/bin/env bash
# Builds the benchmark and the dedcd daemon from the source tree around this
# directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload table2-repair --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ at
# the root of the tree. Build output goes to stderr, so the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# HOME and XDG_CONFIG_HOME point into the tree too, so the go command's
# user config (and its telemetry counters) stay inside it.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"

# Rebuild when a binary is missing or any Go source or module file is newer.
stale() {
	[ ! -x "$1" ] || [ -n "$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name 'go.mod' \) -newer "$1" -print -quit)" ]
}
if stale "$out/bin/perfbench" || stale "$out/bin/dedcd"; then
	(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/dedcd" dedc/cmd/dedcd) >&2
fi
exec "$out/bin/perfbench" -dedcd "$out/bin/dedcd" "$@"
