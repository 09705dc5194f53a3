#!/usr/bin/env bash
# Tier-1 gate: the offline locked build, formatting, lints, every crate's
# test suite, and the benchmark at quick size. Referenced from ROADMAP.md;
# run before every PR.
set -euo pipefail

cd "$(dirname "$0")/.."

# Nothing below may write into the source tree: compared again at the bottom.
TREE_BEFORE="$(git status --porcelain)"

# No registry, no network: every cargo call below builds from the committed,
# registry-free Cargo.lock or not at all. The first one is also the
# dependency gate — a manifest that names a crates.io package fails here.
echo "== cargo build --release --offline --locked"
cargo build --release --offline --locked

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

echo "== cargo test -q --workspace"
# Every crate's unit, integration and doc tests: the fault-injection suite,
# the puffer-lint self-test (seeded fixture violations must be caught) and
# the BatchNorm2d oracle among them.
cargo test -q --offline --locked --workspace

echo "== puffer-lint (the four token rules, DESIGN.md §8)"
# What no type-resolved lint expresses: kernel scratch from the arena,
# gated SIMD, pinned accumulation owners, one quantile implementation.
# Everything else is clippy configuration, checked above. Findings print
# as file:line:col and fail the gate.
cargo run --release --offline --locked -q -p puffer-lint

echo "== probe overhead guard (disabled-probe cost < 2% on a GEMM)"
cargo test -q --offline --locked --release -p puffer-tensor --test probe_overhead

echo "== BatchNorm2d against the loops it replaced, release"
# The layer runs its per-channel sums four chains abreast and pushes its
# outputs instead of filling them (DESIGN.md §2); the oracle is the previous
# commit's loops, verbatim. The workspace run above is the debug profile;
# the element-wise passes auto-vectorize differently in release and the
# bits must not. Scalar Rust only, so there is no PUFFER_SIMD=0 twin to run.
cargo test -q --release --offline --locked -p puffer-nn --test batchnorm_bitwise

echo "== GEMM operand packer against its per-element oracle, release"
# The tensor suite below runs it in debug (it switches SIMD on and off
# itself, whatever PUFFER_SIMD says). The vector packers (8×8 transposes,
# masked row copies) read through raw pointers behind bounds asserts, and
# codegen differs between the profiles: both must hold, on sources that end
# exactly at the last element a panel reads.
cargo test -q --release --offline --locked -p puffer-tensor --test pack_bitwise

echo "== tensor suite under the scalar GEMM fallback (PUFFER_SIMD=0)"
# The blocked engine promises bitwise-identical results with the SIMD
# micro-kernel disabled; prove the whole tensor suite agrees — the
# implicit-GEMM convolution suite (tests/conv_implicit.rs) and the direct
# kernels' (tests/conv_direct.rs) included — not just the dedicated A/B
# tests (which force both paths in-process anyway).
PUFFER_SIMD=0 cargo test -q --offline --locked -p puffer-tensor

echo "== worker-side codec suites under the scalar GEMM fallback (PUFFER_SIMD=0)"
# `cargo test -q` above ran them with SIMD on. PowerSGD's halves and the
# allgather methods' (ATOMO's SVD is GEMM-backed) must equal the central
# rounds they replaced, and the threaded trainer its sequential
# re-enactment (parameters, compressor state, the parent commits' recorded
# digests), bit for bit on both GEMM paths.
PUFFER_SIMD=0 cargo test -q --offline --locked -p puffer-compress --test powersgd_worker_halves
PUFFER_SIMD=0 cargo test -q --offline --locked -p puffer-compress --test gather_worker_halves
PUFFER_SIMD=0 cargo test -q --offline --locked -p puffer-dist --test worker_codec_suite

echo "== puffer-bench: system gates, insight pipeline, CLI and guarantee tests (release)"
# tests/gates.rs calls the experiment functions `puffer-bench soak --quick`,
# `overlap-sweep` and `alloc-churn --quick` run and asserts every gate on
# their records: the soak's five under 24 steps of seeded churn (DESIGN.md
# §11); the overlap sweep's four (§13 — the exposure cut times eight threads
# side by side and gates only on a machine with at least eight hardware
# threads; bitwise params, alloc-free reducer and insight reconcile always
# do); per Table 6 model, pooled == fresh bit for bit with zero steady-state
# pool misses (§9). trace_demo_pipeline.rs is the Chrome-trace schema, the
# insight gates, straggler attribution and byte-identical re-render on the
# trace-demo run (§12). cli.rs drives the binary: nothing written without
# --out, one parseable line with it, `diff` fails a lost gate. The lib tests
# pin the experiment tables against DESIGN.md §4 and run `breakdown_table` —
# the loop behind Fig. 4(a)/(b), 6, 7, atomo-overhead and end-to-end-speedup
# — end to end on two nodes (setups::tests::
# breakdown_table_trains_both_phases_on_the_trainer: warm-up run, timed SVD
# switch, hybrid run, the trained model rebuilt from params + buffers).
cargo test -q --release --offline --locked -p puffer-bench

echo "== allocation steady-state gate under the scalar GEMM fallback"
PUFFER_SIMD=0 cargo test -q --release --offline --locked -p puffer-bench --test gates alloc_churn

echo "== benchmark, quick: all four workloads correct"
# benchmark/ is a cargo workspace of its own, so a name it imports from the
# crates that is renamed or removed fails nowhere above. One set-up and one
# unit per workload through the real trainers: finite losses and
# parameters, the final loss within ±5 % of benchmark/golden.json, the SVD
# switch. Untraced: the traced run's driven-step band is a timing check.
# Cargo rewrites benchmark/Cargo.lock on every build; it is put back.
lock_copy="$(mktemp)"
cp benchmark/Cargo.lock "$lock_copy"
bench_log="$(mktemp)"
bench_status=0
bash benchmark/run.sh --quick | tee "$bench_log" || bench_status=$?
cp "$lock_copy" benchmark/Cargo.lock
correct="$(grep -c '"correct": *true' "$bench_log" || true)"
rm -f "$lock_copy" "$bench_log"
if [ "$bench_status" -ne 0 ] || [ "$correct" -ne 4 ]; then
    echo "benchmark/run.sh --quick: exit $bench_status, $correct of 4 workloads correct" >&2
    exit 1
fi

echo "== the run left the tree as it found it"
if [ "$(git status --porcelain)" != "$TREE_BEFORE" ]; then
    echo "scripts/check.sh changed the working tree:" >&2
    diff <(echo "$TREE_BEFORE") <(git status --porcelain) >&2 || true
    exit 1
fi

echo "All checks passed."
