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
# The code contracts (DESIGN.md §8): no panic site in puffer-dist or the
# worker codecs, kernel scratch from the arena, float sums only in the two
# pinned reducers, clocks in puffer-probe, no hash-order reductions, no
# locks in puffer-dist, and every unsafe operation in a documented block,
# so no SIMD intrinsic runs outside a feature gate.
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

echo "== cargo doc --workspace --no-deps, warnings denied"
# An intra-doc link to a deleted, renamed or private item, or an ambiguous
# one, is a warning rustdoc prints and nothing else would catch.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked

echo "== cargo test -q --workspace"
# Every crate's unit, integration and doc tests: the fault-injection suite,
# the BatchNorm2d oracle and tests/code_contracts.rs (one quantile
# definition; the deny lists the clippy step above relies on) among them.
cargo test -q --offline --locked --workspace

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
# The tensor suite below runs it in debug (it steps through every tier the
# host has itself, whatever PUFFER_SIMD says). The vector packers (16×16 and
# 8×8 transposes, masked row copies) read through raw pointers behind bounds
# asserts, and
# codegen differs between the profiles: both must hold, on sources that end
# exactly at the last element a panel reads.
cargo test -q --release --offline --locked -p puffer-tensor --test pack_bitwise

echo "== GEMM tiles and implicit-GEMM convolutions on every tier, release"
# The register tiles (12x32 zmm on the 512-bit tier, 6x16 ymm on AVX2) and
# the convolution sources' gathers and transposes address C and the
# activations through raw pointers, and the tiles only keep their
# accumulators in registers once the optimizer has unrolled them: the
# workspace run above is the debug profile, and the two compile differently.
# Both suites step through every tier the host has themselves.
cargo test -q --release --offline --locked -p puffer-tensor --test simd_bitwise
cargo test -q --release --offline --locked -p puffer-tensor --test conv_implicit

echo "== attention kernels against the loops they replaced, release"
# puffer_tensor::attention runs the Transformer's per-head scores, softmax
# and gradients as AVX2 lane kernels that must keep the bits of the scalar
# loops the layer ran before (the module docs carry the argument). The
# oracle suite keeps those loops verbatim and switches SIMD on and off
# itself; the workspace run above is the debug profile, and the kernels'
# raw-pointer tiles and their auto-vectorized scalar twins compile
# differently in release.
cargo test -q --release --offline --locked -p puffer-tensor --test attention_bitwise

echo "== direct convolutions against the engine and the explicit lowering, release"
# conv_direct.rs runs every stride-1/stride-2, k×k/1×1 thin layer through
# the 8-lane (AVX2) and 16-lane (AVX-512F) tiles, which read phase planes
# and dOut in place through raw pointers behind bounds asserts; the suite
# steps through every tier the host has (scalar, avx2, avx512) itself, and
# the tiles and their scalar twins compile differently in release.
cargo test -q --release --offline --locked -p puffer-tensor --test conv_direct

echo "== attention layer under the scalar fallback (PUFFER_SIMD=0)"
# The layer's own tests (the gradchecks, causal included) and its oracle
# against the previous layer (all four projections' gradients), with the
# kernels' scalar twins from process start, as a PUFFER_SIMD=0 run gets
# them; the oracle also flips SIMD in-process.
PUFFER_SIMD=0 cargo test -q --offline --locked -p puffer-nn --lib attention
PUFFER_SIMD=0 cargo test -q --offline --locked -p puffer-nn --test attention_bitwise

echo "== tensor suite under the scalar GEMM fallback (PUFFER_SIMD=0)"
# The blocked engine promises bitwise-identical results with the SIMD
# micro-kernel disabled; prove the whole tensor suite agrees — the
# implicit-GEMM convolution suite (tests/conv_implicit.rs) and the direct
# kernels' (tests/conv_direct.rs) included — not just the dedicated A/B
# tests. Those set every tier of the host in-process themselves, so the
# direct kernels' three tiers run here too, from a scalar start.
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
