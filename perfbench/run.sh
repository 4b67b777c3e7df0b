#!/usr/bin/env bash
# Builds nemoeval, netqueryd and the benchmark from source into
# .bench_build/, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Every file it writes stays under
# .bench_build/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/netqueryd" ] || [ ! -d "$root/cmd/nemoeval" ]; then
	echo "perfbench: run from the repository root (go.mod and cmd/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local GOTELEMETRY=off
go build -o "$out/bin/" ./cmd/nemoeval ./cmd/netqueryd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -trace-out "$out/traces" "$@"
