#!/usr/bin/env bash
# Build the benchmark and the `rcmc` binary it drives (`cargo run` would
# build only the first), then run the benchmark with the given arguments.
# Run from the repository root.
set -euo pipefail
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/rcmc-perfbench" "$@"
