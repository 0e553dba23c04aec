#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it. All arguments go
# to the binary:
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#   benchmark/run.sh [--seed <n>] [--smoke] [--trace-out <dir>]
#
# With --workload, the last line of standard output is that run's JSON
# result (the form BENCHMARK.json's driver reads). Without it, all five
# workloads run untraced and then traced. Fails before printing any
# result when the engine crates are not next to this directory.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/ocep-benchmark" "$@"
