//! Bitwise-equality and allocation-freedom tests for the blocked GEMM
//! engine — the two properties every dense product and convolution stands on:
//!
//! 1. the AVX2+FMA micro-kernel, the `mul_add` scalar fallback, and a
//!    naive fused-chain oracle all produce *identical bits*, for any
//!    blocking configuration and thread count;
//! 2. once warm, a steady-state GEMM of a fixed shape never touches the
//!    heap (`alloc.pool_misses` stays flat).
//!
//! The engine's SIMD switch, blocking parameters, pool width, and the
//! probe counters are process-global, so every test serializes on one
//! mutex and restores what it changed.

#![allow(
    clippy::disallowed_methods,
    reason = "the oracles build plain buffers; the arena rule binds the kernel modules"
)]

use std::sync::Mutex;

use puffer_tensor::gemm;
use puffer_tensor::matmul::{matmul, parallel_threshold, set_parallel_threshold};
use puffer_tensor::pool::{num_threads, set_num_threads};
use puffer_tensor::{workspace, Tensor};

/// Serializes tests that flip process-global engine state.
static GEMM_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GEMM_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The determinism oracle: one accumulator per output element, ascending-p
/// fused multiply-add chain. This is exactly the arithmetic the blocked
/// engine promises to reproduce bit-for-bit at every blocking, SIMD
/// setting, and thread count.
fn fma_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = a[i * k + p].mul_add(b[p * n + j], acc);
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Shapes straddling the MR=6 / NR=16 register tiles, the KC=256 depth
/// block, and the MC=96 row block.
const SHAPES: [(usize, usize, usize); 6] =
    [(1, 1, 1), (6, 16, 16), (7, 257, 18), (96, 96, 96), (101, 260, 130), (5, 300, 1)];

struct EngineState {
    threshold: usize,
    threads: usize,
    blocking: (usize, usize, usize),
}

fn save_state() -> EngineState {
    EngineState {
        threshold: parallel_threshold(),
        threads: num_threads(),
        blocking: gemm::blocking(),
    }
}

fn restore_state(s: &EngineState) {
    set_parallel_threshold(s.threshold);
    set_num_threads(s.threads);
    let (kc, mc, nc) = s.blocking;
    gemm::set_blocking(kc, mc, nc);
    gemm::set_simd_enabled(true);
}

#[test]
fn simd_and_scalar_fallback_are_bitwise_identical_to_the_fma_oracle() {
    let _g = lock();
    let saved = save_state();
    set_parallel_threshold(0);

    for &(m, k, n) in &SHAPES {
        let a = Tensor::randn(&[m, k], 1.0, 11);
        let b = Tensor::randn(&[k, n], 1.0, 12);
        let oracle = fma_reference(a.as_slice(), b.as_slice(), m, k, n);
        for threads in [1usize, 2, 4, 8] {
            set_num_threads(threads);
            for simd in [true, false] {
                gemm::set_simd_enabled(simd);
                let c = matmul(&a, &b).unwrap();
                assert_eq!(
                    c.as_slice(),
                    &oracle[..],
                    "bits diverged at {m}x{k}x{n}, simd={simd}, threads={threads} \
                     (simd_supported={})",
                    gemm::simd_supported()
                );
            }
        }
    }

    restore_state(&saved);
}

#[test]
fn results_are_bitwise_invariant_to_the_blocking_configuration() {
    let _g = lock();
    let saved = save_state();
    set_parallel_threshold(0);
    set_num_threads(4);

    // Tiny blockings force multi-KC/MC/NC paths even on small matrices;
    // set_blocking rounds MC/NC up to the register-tile multiples.
    let blockings = [(256, 96, 2048), (2, 6, 16), (3, 12, 32), (7, 17, 50)];
    for &(m, k, n) in &SHAPES {
        let a = Tensor::randn(&[m, k], 1.0, 21);
        let b = Tensor::randn(&[k, n], 1.0, 22);
        let oracle = fma_reference(a.as_slice(), b.as_slice(), m, k, n);
        for &(kc, mc, nc) in &blockings {
            gemm::set_blocking(kc, mc, nc);
            let c = matmul(&a, &b).unwrap();
            assert_eq!(
                c.as_slice(),
                &oracle[..],
                "bits diverged at {m}x{k}x{n} with blocking KC={kc} MC={mc} NC={nc}"
            );
        }
    }

    restore_state(&saved);
}

#[test]
fn steady_state_gemm_never_misses_the_workspace_pool() {
    let _g = lock();
    let saved = save_state();
    let ws_was_enabled = workspace::enabled();
    let probe_config = puffer_probe::current_config();
    // Counters only record while the probe collects.
    puffer_probe::configure(puffer_probe::ProbeConfig::in_memory());
    workspace::set_enabled(true);
    set_parallel_threshold(0);
    set_num_threads(4);

    let a = Tensor::randn(&[64, 96], 1.0, 31);
    let b = Tensor::randn(&[96, 48], 1.0, 32);
    // Warm-up: the first iterations are allowed to allocate the packed-A /
    // packed-B buffers (and the output) into the thread arena.
    for _ in 0..3 {
        let _ = matmul(&a, &b).unwrap();
    }

    let misses_before = puffer_probe::counter_value("alloc.pool_misses").unwrap_or(0.0);
    for _ in 0..10 {
        // The output Tensor and both packed-operand scratch buffers all
        // recycle into the thread arena on drop, so every take is a hit.
        let _ = matmul(&a, &b).unwrap();
    }
    let misses_after = puffer_probe::counter_value("alloc.pool_misses").unwrap_or(0.0);
    assert_eq!(
        misses_before,
        misses_after,
        "steady-state GEMM allocated: pool_misses grew by {}",
        misses_after - misses_before
    );

    puffer_probe::configure(probe_config);
    workspace::set_enabled(ws_was_enabled);
    restore_state(&saved);
}
