#!/usr/bin/env bash
# Builds the `serve` daemon and the benchmark from source, then runs the
# benchmark. Run from the repository root:
#
#   bash benchmark/run.sh --workload serve_hit --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); Chrome
# traces of traced runs go to .bench_out/.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p mve-bench --bin serve >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/mve-e2e-bench" --serve-bin "$CARGO_TARGET_DIR/release/serve" "$@"
