#!/usr/bin/env bash
# Builds wcmd and the benchmark from this checkout, then runs one benchmark
# pass. Usage, from the repository root:
#
#	bash perfbench/run.sh --workload ingest_durable --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f go.mod ] || [ ! -d cmd/wcmd ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench/run.sh: run it from the root of a wcm checkout (go.mod, cmd/wcmd and perfbench/ not all found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/config/go/telemetry"
# Telemetry off: otherwise the go command forks a detached upload sidecar
# that outlives this script.
printf 'off' >"$out/config/go/telemetry/mode"
# Keep the toolchain's caches, config and telemetry inside the checkout, and
# off the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off CGO_ENABLED=0

go build -o "$out/bin/wcmd" ./cmd/wcmd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -wcmd "$out/bin/wcmd" -work "$out/work" "$@"
