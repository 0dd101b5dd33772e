#!/usr/bin/env bash
# Builds the zbench harness from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash zbench/run.sh --workload cgc-corpus --seed 1 --seconds 15 --trace 0
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the checkout, so nothing is written outside it.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/zbench" ]]; then
	echo "zbench: run from the repository root (go.mod and zbench/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
if ! command -v go >/dev/null && [[ -x /usr/local/go/bin/go ]]; then
	PATH="$PATH:/usr/local/go/bin"
fi

(cd "$root/zbench" && go build -o "$out/zbench" .) >&2
exec "$out/zbench" "$@"
