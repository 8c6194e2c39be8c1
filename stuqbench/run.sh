#!/usr/bin/env bash
# Builds the program under test (`stuq`, from the repository workspace) and
# the benchmark (its own workspace), then runs one benchmark run. Build
# output goes to stderr; the last line of stdout is the run's JSON result.
# Run from the repository root:
#   bash stuqbench/run.sh --workload serve-unique --seed 1 --seconds 20 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --bin stuq >&2
cargo build --release --quiet --manifest-path stuqbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/stuqbench" --stuq "$CARGO_TARGET_DIR/release/stuq" "$@"
