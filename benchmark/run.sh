#!/usr/bin/env bash
# The one command of the repo benchmark: build the benchmark package from
# source, run one workload, print every metric by name with its unit and, as
# the last line of standard output, the result as one JSON object.
#
#   bash benchmark/run.sh --workload read_mostly --seed 1 --seconds 24 --trace 0
#   bash benchmark/run.sh --workload durable_writes --seed 1 --seconds 24 --trace 1
#   bash benchmark/run.sh compare benchmark/out/A benchmark/out/B
#
# Run from the repository root.  Honours CARGO_TARGET_DIR (the driver sets it);
# otherwise builds into benchmark/target.  Writes only there and to
# benchmark/out (or --out).
set -euo pipefail

manifest=benchmark/Cargo.toml
[ -f "$manifest" ] || { echo "run.sh: run from the repository root ($manifest not found)" >&2; exit 2; }

# The build's chatter goes to stderr: stdout belongs to the result.
cargo build --release --offline --locked --quiet --manifest-path "$manifest" >&2

# What is needed to distrust a number later; not a git checkout in the driver.
SKH_BENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
SKH_BENCH_RUSTC=$(rustc -V 2>/dev/null || echo unknown)
export SKH_BENCH_COMMIT SKH_BENCH_RUSTC

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/skiphash-benchmark" "$@"
