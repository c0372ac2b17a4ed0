#!/usr/bin/env bash
# Builds lls_bench (Release) from this checkout's sources and runs it with
# the given arguments, e.g.
#   bash lls_bench/run.sh --workload adders --seed 3 --seconds 15 --trace 0
#   bash lls_bench/run.sh --out bench-result.json --trace-dir bench-trace/
# The build goes to $CARGO_TARGET_DIR/lls_bench (default .bench_build/lls_bench);
# build output goes to stderr so stdout ends with the benchmark's result line.
set -euo pipefail

source_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build_dir="${CARGO_TARGET_DIR:-.bench_build}/lls_bench"

generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
cmake -S "$source_dir" -B "$build_dir" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build_dir" --target lls_bench -j 4 >&2
exec "$build_dir/lls_bench" "$@"
