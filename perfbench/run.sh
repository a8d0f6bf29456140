#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags, from the root of a checkout:
#
#   bash perfbench/run.sh --workload cpu-collected-cascade --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, run-store scratch directories
# and trace files. Without the module at the checkout root the build fails
# and the script exits non-zero before printing a result.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
(
	cd "$root/perfbench"
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
	export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local
	go build -buildvcs=false -o "$out/perfbench" .
)
cd "$root"
exec "$out/perfbench" "$@"
