#!/usr/bin/env bash
# Builds the benchmark once, then runs the built binary with the given
# arguments, so build time never lands in a measurement.
#
#   benchmark/run.sh                          # all workloads, 5 repeats each
#   benchmark/run.sh --trace                  # ... plus layer walk and probes
#   benchmark/run.sh --workload sim-cross --seed 7 --seconds 15 --trace 0
#   benchmark/run.sh --check                  # smoke run held against BENCHMARK.json
#   benchmark/run.sh compare a.json b.json
#
# Run from anywhere; the benchmark itself runs from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$target/release/tb-benchmark" "$@"
