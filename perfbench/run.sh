#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through
# (--workload NAME --seed N --seconds S --trace 0|1).
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root: the binary, the Go build cache, the sweep
# store and the traced run's profiles and spans. Without the impress
# module beside this directory the build fails and no result prints.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" GOPROXY=off \
	GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$here" && go build -o "$out/impressbench" .)
cd "$root"
exec "$out/impressbench" "$@"
