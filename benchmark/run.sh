#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh [--seed N] [--workload W] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
#   benchmark/run.sh compare A.jsonl B.jsonl
#
# Without --workload, every workload runs, each in its own process.
# Every run prints its metrics by name with units and ends with one JSON
# line; --out FILE also appends that run to a result file for `compare`.
# Exit code is non-zero when the build fails or any correctness check does.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/sfbench"

if [ "${1:-}" = "compare" ]; then
    exec "$bin" "$@"
fi

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" --out-dir "$here/out" "$@"
    fi
done

status=0
for workload in $("$bin" list); do
    "$bin" --out-dir "$here/out" --workload "$workload" "$@" || status=1
done
exit "$status"
