#!/usr/bin/env bash
# Builds the collector and the benchmark from this checkout, then runs
# one benchmark pass. Run from the repository root:
#   bash perfbench/run.sh --workload ingest-sw --seed 1 --seconds 10 --trace 0
set -euo pipefail
: "${CARGO_TARGET_DIR:=.bench_build}"
export CARGO_TARGET_DIR
cargo build --release --offline --quiet -p ldp-collector --bin ldp-collector >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
  --collector "$CARGO_TARGET_DIR/release/ldp-collector" \
  --spec perfbench/spec.json \
  --benchmark BENCHMARK.json
