#!/usr/bin/env bash
# Builds lsreport, lssim, lsnumad and the benchmark (lsbench) from this
# checkout into .bench_build/, then runs lsbench with the given
# arguments. Everything the build and the runs write stays inside the
# checkout.
#
#   bash bench/run.sh --workload daemon --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1 --out run.json        # all four workloads
#   bash bench/run.sh --base bench/baseline.json --new run.json
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# The Go tools keep their cache, module path and telemetry counters under
# the user's home by default; the binaries under test put temporary files
# in TMPDIR. Keep all of it in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/bin/" ./cmd/lsreport ./cmd/lssim ./cmd/lsnumad
(cd bench && go build -o "$out/bin/lsbench" .)
exec "$out/bin/lsbench" "$@"
