#!/usr/bin/env bash
# Builds the figure binaries and the benchmark from source, then runs
# the benchmark with the given arguments from the checkout's root.
#
#   bash perfbench/run.sh --workload fig6-grid --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p gvf-bench \
  --bin fig1b --bin table2 --bin fig6 --bin fig7 --bin fig8 --bin fig9 --bin validate_json >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
