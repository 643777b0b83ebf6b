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

echo "==> cargo test (workspace, warnings are errors)"
# One unfiltered run gates every suite — chaos (deadline-kill and
# kill-resume equality, identical speculation set, service kill-resume
# from the WAL), telemetry (golden schema, bounded sinks, monitor
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

echo "==> service health snapshot (archive next to bench-gate artifacts)"
# The folding-service example runs the three-tenant session on the
# virtual clock and emits per-tenant closing health snapshots; keep the
# artifact with the other gate outputs so a service regression has a
# baseline to diff against.
cargo run -q --release --example folding_service -- \
    --emit target/bench-gate/service_health.json >/dev/null
test -s target/bench-gate/service_health.json

echo "==> bench regression gate (fig2 quick vs committed baseline)"
# A fresh quick-mode fig2 run is fully deterministic (virtual clock), so
# its trace must diff clean (no metric >10% off) against the committed
# golden baseline, and its distilled BENCH_dataflow.json must match the
# committed copy byte-for-byte. A real scheduling or accounting
# regression shows up here before any reviewer reads a Gantt chart.
cargo run -q --release -p summitfold-bench --bin repro -- \
    fig2 --quick --emit-bench --out target/bench-gate >/dev/null
cargo run -q --release -p summitfold-bench --bin lens -- \
    --diff target/bench-gate/fig2_trace.jsonl tests/golden/fig2_quick_trace.jsonl
if ! cmp -s target/bench-gate/BENCH_dataflow.json BENCH_dataflow.json; then
    echo "BENCH_dataflow.json is stale; regenerate with:" >&2
    echo "  cargo run --release -p summitfold-bench --bin repro -- fig2 --quick --emit-bench" >&2
    exit 1
fi

echo "==> attribution gate (critical path + imbalance on the golden fig2 trace)"
# The critical-path fold must satisfy its accounting identity
# (critical_path ≤ makespan ≤ critical_path + Σ idle, "identity":1 in
# the report) on the committed golden trace, and both attribution
# reports are pure functions of the trace — archive them with the other
# gate artifacts so a scheduling regression has a baseline to diff.
cargo run -q --release -p summitfold-bench --bin lens -- \
    critical-path tests/golden/fig2_quick_trace.jsonl --json \
    > target/bench-gate/fig2_critical_path.json
if ! grep -q '"identity":1' target/bench-gate/fig2_critical_path.json; then
    echo "critical-path accounting identity violated on the golden fig2 trace:" >&2
    cat target/bench-gate/fig2_critical_path.json >&2
    exit 1
fi
cargo run -q --release -p summitfold-bench --bin lens -- \
    imbalance tests/golden/fig2_quick_trace.jsonl --json \
    > target/bench-gate/fig2_imbalance.json
test -s target/bench-gate/fig2_imbalance.json

echo "==> store regression gate (warm rerun vs committed baseline)"
# The store experiment resubmits an identical campaign through the
# folding service: the warm-rerun artifact must show a non-zero (in fact
# 100 %) hit rate and a warm makespan below the cold one, and the
# distilled BENCH_store.json must match the committed copy byte-for-byte
# (all numbers are virtual-clock, so quick mode is byte-stable).
cargo run -q --release -p summitfold-bench --bin repro -- \
    store --quick --emit-bench --out target/bench-gate >/dev/null
if ! grep -q '"hit_rate":1' target/bench-gate/BENCH_store.json; then
    echo "warm rerun no longer hits 100 %:" >&2
    cat target/bench-gate/BENCH_store.json >&2
    exit 1
fi
if ! cmp -s target/bench-gate/BENCH_store.json BENCH_store.json; then
    echo "BENCH_store.json is stale; regenerate with:" >&2
    echo "  cargo run --release -p summitfold-bench --bin repro -- store --quick --emit-bench" >&2
    exit 1
fi

echo "==> recovery regression gate (kill-resume vs committed baseline)"
# The recovery experiment kills a two-tenant service mid-settlement with
# an injected fault and resumes it from the WAL: the resumed settlement
# trace must stay byte-identical to the uninterrupted run's
# (traces_match stays 1), and the distilled BENCH_recovery.json must
# match the committed copy byte-for-byte (all numbers are virtual-clock,
# so quick mode is byte-stable).
cargo run -q --release -p summitfold-bench --bin repro -- \
    recovery --quick --emit-bench --out target/bench-gate >/dev/null
if ! grep -q '"traces_match":1' target/bench-gate/BENCH_recovery.json; then
    echo "kill-resume no longer converges to the uninterrupted settlement trace:" >&2
    cat target/bench-gate/BENCH_recovery.json >&2
    exit 1
fi
if ! cmp -s target/bench-gate/BENCH_recovery.json BENCH_recovery.json; then
    echo "BENCH_recovery.json is stale; regenerate with:" >&2
    echo "  cargo run --release -p summitfold-bench --bin repro -- recovery --quick --emit-bench" >&2
    exit 1
fi

echo "==> profile regression gate (attribution vs committed baseline)"
# The profile experiment re-runs the fig2 campaign and attributes its
# makespan: the accounting identity must hold (identity_holds stays 1)
# and the distilled BENCH_profile.json must match the committed copy
# byte-for-byte (the attribution is a pure function of a virtual-clock
# trace, so quick mode is byte-stable).
cargo run -q --release -p summitfold-bench --bin repro -- \
    profile --quick --emit-bench --out target/bench-gate >/dev/null
if ! grep -q '"identity_holds":1' target/bench-gate/BENCH_profile.json; then
    echo "critical-path accounting identity violated in the profile run:" >&2
    cat target/bench-gate/BENCH_profile.json >&2
    exit 1
fi
if ! cmp -s target/bench-gate/BENCH_profile.json BENCH_profile.json; then
    echo "BENCH_profile.json is stale; regenerate with:" >&2
    echo "  cargo run --release -p summitfold-bench --bin repro -- profile --quick --emit-bench" >&2
    exit 1
fi

echo "==> geometry byte-identity gate (fig3 + fig4 vs committed results)"
# fig3 (TM/SPECS of relaxed vs unrelaxed models) and fig4 (relaxation
# time vs size over geometric predictions) run the spatial grid under
# inference and the minimizer, whose visit order is bit-exact by
# contract: regenerated at full size (a few seconds each), their CSVs
# must match the committed copies byte-for-byte.
for fig in fig3 fig4; do
    cargo run -q --release -p summitfold-bench --bin repro -- \
        "$fig" --out target/bench-gate >/dev/null
    if ! cmp -s "target/bench-gate/$fig.csv" "results/$fig.csv"; then
        echo "results/$fig.csv drifted from a fresh run; if intended, regenerate with:" >&2
        echo "  cargo run --release -p summitfold-bench --bin repro -- $fig" >&2
        exit 1
    fi
done

echo "All checks passed."
