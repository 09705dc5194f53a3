//! GEMM sweep for the blocked SIMD `Optimized` engine: thread scaling,
//! SIMD-vs-scalar-fallback, and the paper's low-rank shapes.
//!
//! Times square matmuls at 128/512/1024 plus the Pufferfish factorized
//! shapes — for a batch of `m = 128` rows, the full layer GEMM
//! `m×n · n×n` against its two skinny low-rank factors `m×n · n×r` and
//! `m×r · r×n` with `r = n/4` (the paper's 0.25 rank ratio) — across a
//! thread grid, in both `simd` and `scalar-fallback` mode. This is the compute-side
//! companion to the communication benchmarks: the paper's claim that
//! factorization cuts *compute* (Table 6 vs Table 20), not just bytes, is
//! only credible if the skinny GEMMs actually run near hardware peak, so
//! this sweep documents exactly how fast the local engine is on the
//! machine that produced any given set of results.
//!
//! Usage: `puffer-bench gemm-scaling`. The thread grid is the powers of
//! two up to the hardware parallelism, plus the hardware parallelism
//! itself.
//!
//! Reading the numbers: an AVX2+FMA core peaks at 32 SP FLOP/cycle (two
//! 8-lane FMA ports); at a 2.1 GHz nominal clock that is ~67 GFLOPS/core.
//! The scalar-fallback rows route every multiply-add through
//! `f32::mul_add` to stay bitwise-identical to the vector path; without
//! native FMA codegen that is a libm `fmaf` call per element — it is a
//! determinism fallback, not a performance path. `speedup` (against the
//! same mode at 1 thread) is bounded by the hardware threads; on a
//! single-core host the threaded rows measure dispatch overhead, not
//! scaling.

use crate::table::Table;
use crate::{Args, Record};
use puffer_probe::Stopwatch;
use puffer_tensor::gemm;
use puffer_tensor::matmul::{matmul_with_profile, MatmulProfile};
use puffer_tensor::{pool, Tensor};

/// Median-of-`reps` wall time for one `m×k · k×n` matmul, in seconds.
fn time_matmul(a: &Tensor, b: &Tensor, reps: usize) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Stopwatch::start();
        let c = matmul_with_profile(a, b, MatmulProfile::Optimized).unwrap();
        samples.push(t0.elapsed().as_secs_f64());
        // Keep the result observable so the multiply cannot be elided.
        assert!(c.as_slice()[0].is_finite());
    }
    samples.sort_by(|x, y| x.partial_cmp(y).unwrap());
    samples[samples.len() / 2]
}

fn thread_grid() -> Vec<usize> {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut grid = vec![1];
    let mut t = 2;
    while t <= hw {
        grid.push(t);
        t *= 2;
    }
    if *grid.last().unwrap() != hw {
        grid.push(hw);
    }
    grid
}

/// The swept shapes: `(m, k, n, kind)`.
fn shapes() -> Vec<(usize, usize, usize, &'static str)> {
    let mut out = Vec::new();
    for n in [128usize, 512, 1024] {
        out.push((n, n, n, "square"));
    }
    // Pufferfish low-rank shapes at rank ratio 0.25: the full layer GEMM
    // and the two skinny factor GEMMs that replace it.
    let m = 128;
    for n in [512usize, 1024] {
        let r = n / 4;
        out.push((m, n, n, "lowrank-full"));
        out.push((m, n, r, "lowrank-u"));
        out.push((m, r, n, "lowrank-v"));
    }
    out
}

/// Sweeps every shape × mode × thread count and prints one row each.
pub fn run(_args: &Args) -> Record {
    let mut rec = Record::new("gemm-scaling");
    let grid = thread_grid();
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let prev_threads = pool::num_threads();
    let simd_detected = gemm::simd_supported();
    let (kc, mc, nc) = gemm::blocking();
    let kernel = format!(
        "BLIS-blocked MR={} NR={} KC={kc} MC={mc} NC={nc}, (jc,ic)-tile-partitioned, \
         AVX2+FMA micro-kernel with bitwise-identical mul_add fallback",
        gemm::MR,
        gemm::NR
    );
    let modes: &[(&str, bool)] = if simd_detected {
        &[("simd", true), ("scalar-fallback", false)]
    } else {
        &[("scalar-fallback", false)]
    };

    println!("GEMM sweep ({kernel}), {hw} hardware thread(s), simd_detected={simd_detected}");
    let mut t =
        Table::new(vec!["shape", "kind", "mode", "threads", "median_s", "gflops", "speedup"]);
    for &(m, k, n, kind) in &shapes() {
        let a = Tensor::randn(&[m, k], 1.0, 1);
        let b = Tensor::randn(&[k, n], 1.0, 2);
        let macs = 2 * m * k * n;
        let reps = (5_000_000_000 / macs).clamp(3, 25);
        let flops = macs as f64;
        for &(mode, simd_on) in modes {
            gemm::set_simd_enabled(simd_on);
            let mut base = None;
            for &threads in &grid {
                pool::set_num_threads(threads);
                // Warm the pool and caches outside the timed region.
                let _ = matmul_with_profile(&a, &b, MatmulProfile::Optimized).unwrap();
                let secs = time_matmul(&a, &b, reps);
                let base_secs = *base.get_or_insert(secs);
                t.row(vec![
                    format!("{m}x{k}x{n}"),
                    kind.to_string(),
                    mode.to_string(),
                    threads.to_string(),
                    format!("{secs:.6}"),
                    format!("{:.2}", flops / secs / 1e9),
                    format!("{:.2}x", base_secs / secs),
                ]);
            }
        }
    }
    gemm::set_simd_enabled(true);
    pool::set_num_threads(prev_threads);
    rec.table(t);
    rec
}
