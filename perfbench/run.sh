#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig9-paged --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the binary, the Go build cache, temporary files, scratch data
# directories and the traced run's spans.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ are needed)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS="-mod=readonly -buildvcs=false" GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
