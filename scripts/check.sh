#!/usr/bin/env bash
# Full local gate: formatting, lints, tests, and the workspace invariant
# linter. CI and pre-merge runs should match this exactly.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

if command -v cargo-clippy >/dev/null 2>&1; then
    echo "==> cargo clippy (warnings are errors)"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy unavailable; skipping"
fi

echo "==> cargo doc (rustdoc warnings are errors)"
# A deleted or private item must not leave a dangling [`link`] behind in
# some other module's docs. ~6 s.
RUSTDOCFLAGS="${RUSTDOCFLAGS:-} -D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo test (workspace, warnings are errors)"
# One unfiltered run gates every suite — chaos (multi-leg kill-resume
# equality, service kill-resume from the WAL), telemetry (golden schema, bounded sinks, monitor
# stream-vs-replay), service (byte-identical virtual replay, fair share,
# typed quotas, live drain) and store (stable keys, 100 % warm hits,
# identical cache counters on both executors) — so none is re-run by name.
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo test --workspace -q

echo "==> sfcheck"
# The one gate for the source invariants: wall-clock reads confined to
# the exempt executors, retired entry points staying deleted, and the
# single-source metric prefixes (cache/, fault/, recovery/, lineage/,
# dataflow/, service/live_). Those three are hard findings no allow
# directive covers, and the config lists they rest on are pinned by
# crates/analysis/src/config.rs unit tests.
cargo run -q --release -p summitfold-analysis --bin sfcheck

echo "==> sfcheck --json (archive + gate cross-check)"
# Archive the machine-readable report next to the bench-gate artifacts,
# fail on any non-suppressed finding, and fail if the binary and the
# tier-1 integration test disagree about the workspace state — a drift
# between the two means one of the gates has quietly stopped gating.
mkdir -p target/bench-gate
sfcheck_json_status=0
cargo run -q --release -p summitfold-analysis --bin sfcheck -- --json \
    > target/bench-gate/sfcheck_report.json || sfcheck_json_status=$?
if [ "$sfcheck_json_status" -ne 0 ]; then
    echo "sfcheck --json reported findings (see target/bench-gate/sfcheck_report.json):" >&2
    cat target/bench-gate/sfcheck_report.json >&2
    exit 1
fi
if ! grep -q '"total":0' target/bench-gate/sfcheck_report.json; then
    echo "sfcheck exited clean but the JSON report disagrees:" >&2
    cat target/bench-gate/sfcheck_report.json >&2
    exit 1
fi
test_status=0
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo test -q --test static_analysis \
    >/dev/null || test_status=$?
if [ "$test_status" -ne 0 ]; then
    echo "sfcheck binary reports a clean workspace but tests/static_analysis.rs fails:" >&2
    echo "the binary and the integration test disagree on finding counts" >&2
    exit 1
fi

echo "==> benchmark package (compiles against the public dataflow API)"
# benchmark/ is its own workspace, so `cargo test --workspace` never
# builds it: an API break only sfbench sees would otherwise surface in
# the driver, not here. Smoke size, ~10 s.
(cd benchmark && cargo test --release --offline -q)

echo "==> benchmark, every workload at full size (one pass each)"
# The smoke test above runs each workload at its smallest size, while
# BENCHMARK.json runs them at full size. One second per workload
# catches a workload that fails its correctness check or crashes at
# full size. 30-40 s on a 2-core VM; a non-zero exit fails the gate.
if ! bash benchmark/run.sh --seconds 1 > target/bench-gate/benchmark_full.txt; then
    cat target/bench-gate/benchmark_full.txt >&2
    exit 1
fi

echo "==> service health snapshot (archive next to bench-gate artifacts)"
# The folding-service example runs the three-tenant session on the
# virtual clock and emits per-tenant closing health snapshots; keep the
# artifact with the other gate outputs so a service regression has a
# baseline to diff against.
cargo run -q --release --example folding_service -- \
    --emit target/bench-gate/service_health.json >/dev/null
test -s target/bench-gate/service_health.json

echo "==> repro check (every committed results/ file regenerates byte-identically)"
# Runs every experiment at both sizes — results/ is `repro all`,
# results/quick/ is `repro all --quick` — and compares each file it
# writes with the committed copy; drift is printed with the command that
# regenerates it. The harnesses themselves abort on a broken contract
# (100 % warm-rerun hits, kill-resume trace match, the critical-path
# accounting identity). tier-1 runs the cheap slice of the same check
# (crates/bench/tests/regenerate.rs). ~4 min.
cargo run -q --release -p summitfold-bench --bin repro -- check

echo "All checks passed."
