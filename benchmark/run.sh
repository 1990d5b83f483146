#!/usr/bin/env bash
# Builds the benchmark inside the checkout and then becomes it: one OS process
# measures, nothing is spawned and nothing is left behind. Everything the Go
# toolchain and the benchmark write (build cache, temp certs, telemetry) is
# redirected under <checkout>/.bench_build.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off > "$build/config/go/telemetry/mode" # no telemetry side process
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/fedroad-bench" .)
cd "$root"
exec "$build/fedroad-bench" "$@"
