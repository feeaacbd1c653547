#!/usr/bin/env bash
# Builds the benchmark (the `bench` crate's `divbench` bin) and the
# divexplorer-cli binary its serve workload drives from the workspace
# sources, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash crates/bench/src/bin/divbench/run.sh --workload fig6-wide --seed 1
#
# Build output goes to $CARGO_TARGET_DIR, or target by default.
set -euo pipefail
cargo build --release --offline --locked --quiet -p bench -p cli \
    --bin divbench --bin divexplorer-cli >&2
exec "${CARGO_TARGET_DIR:-target}/release/divbench" "$@"
