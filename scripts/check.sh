#!/usr/bin/env bash
# Tier-1 gate: the offline locked build, formatting, lints, and the full
# test suite. Referenced from ROADMAP.md; run before every PR.
set -euo pipefail

cd "$(dirname "$0")/.."

# No registry, no network: every cargo call below builds from the committed,
# registry-free Cargo.lock or not at all. The first one is also the
# dependency gate — a manifest that names a crates.io package fails here.
echo "== cargo build --release --offline --locked"
cargo build --release --offline --locked

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

echo "== cargo test -q"
cargo test -q --offline --locked

echo "== fault-injection suite (fixed seeds)"
cargo test -q --offline --locked -p puffer-dist --test fault_suite

echo "== puffer-lint (the four token rules, DESIGN.md §8)"
# What no type-resolved lint expresses: kernel scratch from the arena,
# gated SIMD, pinned accumulation owners, one quantile implementation.
# Everything else is clippy configuration, checked above. Findings print
# as file:line:col and fail the gate.
cargo run --release --offline --locked -q -p puffer-lint

echo "== puffer-lint self-test (seeded fixture violations must be caught)"
# Also pins the clippy deny lists the retired rules became.
cargo test -q --offline --locked -p puffer-lint

echo "== probe overhead guard (disabled-probe cost < 2% on a GEMM)"
cargo test -q --offline --locked --release -p puffer-tensor --test probe_overhead

echo "== tensor suite under the scalar GEMM fallback (PUFFER_SIMD=0)"
# The blocked engine promises bitwise-identical results with the SIMD
# micro-kernel disabled; prove the whole tensor suite agrees — the
# implicit-GEMM convolution suite (tests/conv_implicit.rs) and the direct
# kernels' (tests/conv_direct.rs) included — not just the dedicated A/B
# tests (which force both paths in-process anyway).
PUFFER_SIMD=0 cargo test -q --offline --locked -p puffer-tensor

echo "== worker-side codec suites under the scalar GEMM fallback (PUFFER_SIMD=0)"
# `cargo test -q` above ran them with SIMD on. PowerSGD's halves must equal
# the central round they replaced, and the threaded trainer its sequential
# re-enactment (parameters, compressor state, the parent commit's recorded
# digest), bit for bit on both GEMM paths.
PUFFER_SIMD=0 cargo test -q --offline --locked -p puffer-compress --test powersgd_worker_halves
PUFFER_SIMD=0 cargo test -q --offline --locked -p puffer-dist --test worker_codec_suite

echo "== allocation steady-state guard (warmed-up step must not miss the pool)"
cargo run --release --offline --locked -q -p puffer-bench --bin alloc_churn -- --check

echo "== allocation steady-state guard under the scalar GEMM fallback"
PUFFER_SIMD=0 cargo run --release --offline --locked -q -p puffer-bench --bin alloc_churn -- --check

echo "== elastic-membership soak, smoke length (seeded churn, DESIGN.md §11)"
# 24 steps, fixed seed, ≤30 s: joins/rejoins/crashes/leave plus corrupted,
# dropped, and non-finite messages; gates on schedule completion, zero
# steady-state allocation, bounded replay divergence, recovery within k
# rounds, and no leaked pool threads. Writes BENCH_soak.json.
# Keep the committed baseline aside first: the bench-diff gate below
# compares the fresh run against it.
SOAK_BASELINE="$(mktemp)"
trap 'rm -f "$SOAK_BASELINE"' EXIT
cp BENCH_soak.json "$SOAK_BASELINE"
cargo run --release --offline --locked -q -p puffer-bench --bin soak -- --smoke --check

echo "== bucketed overlap sweep (exposed-comm cut, bitwise params, alloc-free, DESIGN.md §13)"
# Sync vs bucketed epoch on the seeded 8-worker α–β profile; rewrites
# BENCH_dist.json, so keep the committed baseline aside for the diff gate.
# The exposure cut times eight threads side by side and gates only on a
# machine with at least eight hardware threads; the other three always do.
DIST_BASELINE="$(mktemp)"
trap 'rm -f "$DIST_BASELINE" "$SOAK_BASELINE"' EXIT
cp BENCH_dist.json "$DIST_BASELINE"
cargo run --release --offline --locked -q -p puffer-bench --bin overlap_sweep -- --check

echo "== insight pipeline (trace_demo → report + gates, DESIGN.md §12)"
# Re-export the demo trace, re-ingest it through puffer-insight, and gate
# on round reconstruction, straggler attribution, and α–β reconciliation.
# The trace must also still validate against the Chrome schema.
PUFFER_TRACE=results/trace_demo.json PUFFER_METRICS=results/trace_demo_metrics.jsonl \
    cargo run --release --offline --locked -q -p puffer-bench --bin trace_demo
cargo run --release --offline --locked -q -p puffer-bench --bin insight -- --check

echo "== bench-regression gate (noise-aware diff against committed baselines)"
# Each diff compares the baseline captured above, before this run
# regenerated the file, with the fresh one.
cargo run --release --offline --locked -q -p puffer-bench --bin bench_diff -- "$SOAK_BASELINE" BENCH_soak.json --check
cargo run --release --offline --locked -q -p puffer-bench --bin bench_diff -- "$DIST_BASELINE" BENCH_dist.json --check

echo "All checks passed."
