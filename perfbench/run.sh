#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload session --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare parent.jsonl change.jsonl
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, traces, op logs and the
# campaign's temporary journal.
set -euo pipefail
root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
export GOCACHE="${build}/go-cache"
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export GOPATH="${build}/gopath"
export GOMODCACHE="${build}/gopath/pkg/mod"
export XDG_CONFIG_HOME="${build}/config"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
(cd "${root}/perfbench" && go build -o "${build}/bin/perfbench" .)
exec "${build}/bin/perfbench" "$@"
