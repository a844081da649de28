#!/usr/bin/env bash
# Offline CI gate: release build, tests, and clippy for the whole
# workspace. No network access required — the workspace has no
# external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== tier-1 tests (root package) =="
cargo test -q

echo "== workspace tests =="
cargo test -q --workspace

echo "== slow-tier tests =="
# Full-budget integration tests (#[ignore]d from the fast tier, see
# DESIGN.md §10): SDP → legalization pipelines at publication budgets.
cargo test -q -- --ignored

echo "== fault-injection tests =="
# Deterministic fault-matrix + supervisor recovery tests; the hooks
# only compile under the opt-in `fault-inject` feature.
cargo test -q -p gfp-core --features fault-inject

echo "== no-default-features build =="
# The workspace must still build with every optional feature (telemetry
# sinks, fault hooks) disabled — guards against accidental hard deps.
cargo build --workspace --no-default-features

echo "== workspace tests (GFP_THREADS=2, spectral fast path on) =="
# Re-run the kernel-heavy crates with a 2-worker pool: exercises the
# parallel dispatch paths and the bitwise determinism contract.
GFP_THREADS=2 cargo test -q -p gfp-parallel -p gfp-linalg -p gfp-conic

echo "== workspace tests (GFP_THREADS=2, spectral fast path off) =="
# Same crates plus the core solver with the deflated eigensolver and
# partial PSD projection disabled: everything must pass on the dense
# routes too (the fast path is an optimization, never a dependency).
GFP_NO_SPECTRAL_FASTPATH=1 GFP_THREADS=2 \
    cargo test -q -p gfp-parallel -p gfp-linalg -p gfp-conic -p gfp-core

echo "== crash recovery + ingestion torture (GFP_THREADS=2) =="
# Process-level kill-and-resume matrix (the harness binary aborts
# itself mid-solve) and the seeded byte-mutation parser torture tests.
GFP_THREADS=2 cargo test -q -p gfp --test crash_resume
GFP_THREADS=2 cargo test -q -p gfp-netlist --test torture

echo "== traced checkpoint smoke run =="
# A checkpointing solve plus a resume, each with GFP_TRACE pointed at a
# JSONL file; the durable-store telemetry must actually reach the
# trace stream, not just the in-memory counters.
rm -rf target/ckpt-smoke target/ckpt_trace_solve.jsonl target/ckpt_trace_resume.jsonl
GFP_TRACE=target/ckpt_trace_solve.jsonl GFP_THREADS=2 \
    target/release/checkpoint_solve --dir target/ckpt-smoke --rounds 2 \
    --out target/ckpt-smoke-solve.txt
GFP_TRACE=target/ckpt_trace_resume.jsonl GFP_THREADS=2 \
    target/release/checkpoint_solve --dir target/ckpt-smoke --rounds 3 --resume \
    --out target/ckpt-smoke-resume.txt
if ! grep -q '"name":"store.snapshot_write"' target/ckpt_trace_solve.jsonl; then
    echo "FAIL: no store.snapshot_write event in the solve trace" >&2
    exit 1
fi
if ! grep -q '"name":"store.resume"' target/ckpt_trace_resume.jsonl; then
    echo "FAIL: no store.resume event in the resume trace" >&2
    exit 1
fi

echo "== observability smoke run (gfp-trace) =="
# A traced n50 supervised solve with both observability artifacts on:
# GFP_TRACE (JSONL span/event stream) and GFP_REPORT (structured
# gfp-solve-report-v1 JSON). The trace must carry the per-α-round
# round.summary events, the analyzer must render both views, a report
# self-diff must be clean, and a doctored report (inflated span wall
# time) must trip the regression gate with a nonzero exit.
rm -rf target/obs-smoke
mkdir -p target/obs-smoke
GFP_TRACE=target/obs-smoke/trace.jsonl GFP_REPORT=target/obs-smoke/report.json \
    GFP_THREADS=2 \
    target/release/checkpoint_solve --dir target/obs-smoke/ckpt --rounds 2 \
    --instance n50 --out target/obs-smoke/solve.txt
if ! grep -q '"name":"round.summary"' target/obs-smoke/trace.jsonl; then
    echo "FAIL: no round.summary events in target/obs-smoke/trace.jsonl" >&2
    exit 1
fi
if ! grep -q '"schema":"gfp-solve-report-v1"' target/obs-smoke/report.json; then
    echo "FAIL: target/obs-smoke/report.json is not a gfp-solve-report-v1" >&2
    exit 1
fi
target/release/gfp-trace tree target/obs-smoke/report.json
target/release/gfp-trace rounds target/obs-smoke/report.json
target/release/gfp-trace diff target/obs-smoke/report.json target/obs-smoke/report.json
# Doctor the candidate: multiply every span's total wall time by ~9x
# (the line-oriented report makes this a plain text substitution). The
# diff gate must catch it.
sed 's/"total_secs":/"total_secs":9/' target/obs-smoke/report.json \
    > target/obs-smoke/report.doctored.json
if target/release/gfp-trace diff target/obs-smoke/report.json \
    target/obs-smoke/report.doctored.json; then
    echo "FAIL: gfp-trace diff did not flag the doctored report" >&2
    exit 1
fi

echo "== service tests (GFP_THREADS=2) =="
# Wire-protocol torture, in-process daemon end-to-end, admission
# control + cache policy + GC, the service fault matrix (every
# service.* site x {retry-succeeds, budget-exhausted} at 1/2/8
# workers), the supervisor wall-budget edge cases, and the
# process-level SIGKILL-resume harness against the real gfpd binary.
GFP_THREADS=2 cargo test -q -p gfp-service
GFP_THREADS=2 cargo test -q -p gfp-service --features fault-inject --test fault_matrix
GFP_THREADS=2 cargo test -q -p gfp-core --features fault-inject --test wall_budget_edges
GFP_THREADS=2 cargo test -q -p gfp --test service_daemon

echo "== daemon smoke (gfpd: cache hit + kill -9 resume) =="
rm -rf target/gfpd-smoke
mkdir -p target/gfpd-smoke
GFPD=target/release/gfpd
STATE=target/gfpd-smoke/state
GFP_THREADS=2 "$GFPD" serve --root "$STATE" --workers 2 &
GFPD_PID=$!
for _ in $(seq 1 200); do [ -f "$STATE/gfpd.addr" ] && break; sleep 0.05; done
ADDR=$(cat "$STATE/gfpd.addr")
# A solved n10 must be served from the cache on identical resubmission.
"$GFPD" submit --addr "$ADDR" --suite n10 --max-iter 3 --max-rounds 2 --wait \
    > target/gfpd-smoke/first.txt
"$GFPD" submit --addr "$ADDR" --suite n10 --max-iter 3 --max-rounds 2 \
    > target/gfpd-smoke/second.txt
if ! grep -q "cache_hit=true" target/gfpd-smoke/second.txt; then
    echo "FAIL: identical resubmission was not served from the cache" >&2
    kill -9 "$GFPD_PID" 2>/dev/null; exit 1
fi
# Kill -9 the daemon the moment the big job's first checkpoint lands,
# restart over the same root, and the job must resume to completion.
"$GFPD" submit --addr "$ADDR" --suite n100 --max-iter 3 --max-rounds 3 \
    > target/gfpd-smoke/big.txt
JOB=$(sed -n 's/^job=\([0-9]*\).*/\1/p' target/gfpd-smoke/big.txt)
CKPT=$(printf '%s/jobs/%010d/ckpt' "$STATE" "$JOB")
for _ in $(seq 1 1200); do
    ls "$CKPT"/*.gfps >/dev/null 2>&1 && break
    sleep 0.05
done
if ! ls "$CKPT"/*.gfps >/dev/null 2>&1; then
    echo "FAIL: job $JOB never wrote a checkpoint" >&2
    kill -9 "$GFPD_PID" 2>/dev/null; exit 1
fi
kill -9 "$GFPD_PID"
wait "$GFPD_PID" 2>/dev/null || true
rm -f "$STATE/gfpd.addr"
GFP_THREADS=2 "$GFPD" serve --root "$STATE" --workers 2 &
GFPD_PID=$!
for _ in $(seq 1 200); do [ -f "$STATE/gfpd.addr" ] && break; sleep 0.05; done
ADDR=$(cat "$STATE/gfpd.addr")
for _ in $(seq 1 2400); do
    "$GFPD" status --addr "$ADDR" --job "$JOB" \
        > target/gfpd-smoke/status.txt 2>/dev/null || true
    grep -q "phase=done" target/gfpd-smoke/status.txt && break
    sleep 0.25
done
if ! grep -q "phase=done" target/gfpd-smoke/status.txt; then
    echo "FAIL: killed job $JOB did not resume to completion" >&2
    kill -9 "$GFPD_PID" 2>/dev/null; exit 1
fi
"$GFPD" fetch --addr "$ADDR" --job "$JOB" > target/gfpd-smoke/resumed.txt
"$GFPD" shutdown --addr "$ADDR"
wait "$GFPD_PID" 2>/dev/null || true

echo "== service bench (smoke) =="
"$GFPD" bench --smoke --out target/BENCH_service.smoke.json
if ! grep -q '"schema": "gfp-service-bench-v1"' target/BENCH_service.smoke.json; then
    echo "FAIL: target/BENCH_service.smoke.json is not a gfp-service-bench-v1" >&2
    exit 1
fi
if ! grep -q '"cache_hits": [1-9]' target/BENCH_service.smoke.json; then
    echo "FAIL: bench mix never hit the result cache" >&2
    exit 1
fi

echo "== kernel bench (smoke) =="
# Quick serial-vs-parallel run of the hot kernels; asserts bitwise
# identical outputs and writes target/BENCH_kernels.smoke.json. The
# JSON is then checked explicitly: any row recording a serial/parallel
# divergence fails the gate even if the binary's own assert changes.
scripts/bench_kernels.sh --smoke
if grep -q '"bitwise_match": false' target/BENCH_kernels.smoke.json; then
    echo "FAIL: bitwise mismatch recorded in target/BENCH_kernels.smoke.json" >&2
    exit 1
fi
# The scaling section must be present and carry at least one sparse
# and one hierarchical point (the smoke tier runs both on n50).
if ! grep -q '"scaling": \[' target/BENCH_kernels.smoke.json; then
    echo "FAIL: no scaling section in target/BENCH_kernels.smoke.json" >&2
    exit 1
fi
for mode in sparse hier; do
    if ! grep -q "\"mode\": \"$mode\"" target/BENCH_kernels.smoke.json; then
        echo "FAIL: no $mode scaling point in target/BENCH_kernels.smoke.json" >&2
        exit 1
    fi
done

echo "== scaling smoke run (sparsify + hierarchy) =="
# A budgeted hierarchical n500 solve with the spatial sparsifier
# forced on at the top stage: must finish inside the wall budget, must
# actually prune pairs (sparsify.pruned > 0), must run the pipeline
# stages (hier.stage > 0), and the captured solve report must
# self-diff clean through the gfp-trace regression gate.
rm -rf target/scale-smoke
mkdir -p target/scale-smoke
GFP_REPORT=target/scale-smoke/report.json GFP_THREADS=2 \
    target/release/scale_solve --instance n500 --wall-budget 600 \
    --out target/scale-smoke/summary.txt
if ! grep -Eq 'sparsify\.pruned=[1-9][0-9]*' target/scale-smoke/summary.txt; then
    echo "FAIL: sparsifier never pruned a pair (sparsify.pruned=0)" >&2
    exit 1
fi
if ! grep -Eq 'hier\.stage=[1-9][0-9]*' target/scale-smoke/summary.txt; then
    echo "FAIL: no hierarchical stages recorded (hier.stage=0)" >&2
    exit 1
fi
target/release/gfp-trace diff target/scale-smoke/report.json \
    target/scale-smoke/report.json

echo "== layered benchmark (smoke) =="
# Toy sizes of the four end-to-end workloads (src/bin/benchmark), run
# untraced and traced. The binary exits non-zero when a workload fails
# one of its output checks or cannot run, which fails this gate.
cargo run --release -q --bin benchmark -- --smoke

echo "== docs =="
# Rustdoc with broken and private intra-doc links as errors: a doc
# link to a renamed, deleted or private item fails the gate.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --workspace --no-deps

echo "== clippy =="
if cargo clippy --version >/dev/null 2>&1; then
    # Warnings are reported but only hard errors fail the gate (the
    # seed carries some style lints that are cleaned up gradually).
    cargo clippy --workspace --all-targets
else
    echo "clippy not installed; skipping"
fi

echo "CI gate passed."
