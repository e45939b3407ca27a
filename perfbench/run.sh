#!/usr/bin/env bash
# Builds the benchmark and the treejoind server from the checkout's sources,
# then runs one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload join-batch --seed 1 --seconds 25 --trace 0
#
# Every build artifact and every scratch file stays under .bench_build/ in
# the current directory. Without the treejoin sources beside perfbench/ the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/treejoind" ]; then
	echo "perfbench: run from the repository root (treejoin sources not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/treejoind" treejoin/cmd/treejoind) >&2

exec "$out/bin/perfbench" -treejoind "$out/bin/treejoind" -workdir "$out/run" -root "$root" "$@"
