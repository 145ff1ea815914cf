#!/usr/bin/env bash
# Build the benchmark and the dpioa-serve binary it drives (release
# profile) into one target directory, then run the benchmark with this
# script's arguments. Run it from the repository root:
#
#   bash crates/bench/src/bin/benchmark/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# The build goes to $CARGO_TARGET_DIR, or .bench_build when it is unset.
# dpioa-serve is built by the repository workspace, unchanged; the
# benchmark finds it next to its own binary.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p dpioa-server --bin dpioa-serve >&2
cargo build --release --quiet --offline --manifest-path "$(dirname "$0")/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
