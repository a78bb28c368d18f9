#!/bin/sh
# Build the benchmark, then run every workload untraced and traced — one
# child process per workload and mode — and print the merged summary.
# Extra arguments are passed through, e.g.:  benchmark/run.sh --seed 2
set -eu
cd "$(dirname "$0")/.."
cargo build --release --manifest-path benchmark/Cargo.toml
exec cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --trace "$@"
