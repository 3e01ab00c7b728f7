#!/usr/bin/env bash
# Builds `geobrowse` and the `loadbench` harness into one target directory,
# so the harness finds the server binary next to itself, then runs the
# harness with this script's arguments. Run it from the repository root:
#
#   bash loadbench/run.sh --workload browse-hot --seed 1 --seconds 10 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --bin geobrowse >&2
cargo build --release --quiet --manifest-path loadbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/loadbench" "$@"
