#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload closed-steal --seed 5 --seconds 15 --trace 0
#	bash perfbench/run.sh --workload all
#
# Every build product stays under the build directory (CARGO_TARGET_DIR
# when set, else .bench_build), including the Go build cache, so the
# benchmark writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/go-cache
export GOPATH=$build/go-path
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
