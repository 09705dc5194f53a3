//! GEMM sweep for the blocked engine: thread scaling, every kernel tier
//! the host has, and the paper's low-rank shapes, each read against that
//! tier's measured FMA peak.
//!
//! Times square matmuls at 128/512/1024 plus the Pufferfish factorized
//! shapes — for a batch of `m = 128` rows, the full layer GEMM
//! `m×n · n×n` against its two skinny low-rank factors `m×n · n×r` and
//! `m×r · r×n` with `r = n/4` (the paper's 0.25 rank ratio) — across a
//! thread grid, on every tier of `gemm::host_tiers()` (`avx512`, `avx2`,
//! `scalar`). This is the compute-side companion to the communication
//! benchmarks: the paper's claim that factorization cuts *compute* (Table 6
//! vs Table 20), not just bytes, is only credible if the skinny GEMMs
//! actually run near hardware peak, so this sweep documents exactly how
//! fast the local engine is on the machine that produced any given set of
//! results.
//!
//! Usage: `puffer-bench gemm-scaling`. The thread grid is the powers of
//! two up to the hardware parallelism, plus the hardware parallelism
//! itself.
//!
//! Reading the numbers: each tier first gets a `fma-peak` row, the GFLOP/s
//! of a register-only FMA loop on one thread (`gemm::fma_peak_loop`: twelve
//! independent accumulators, no memory traffic) — the bound of that tier on
//! this core, measured rather than assumed from a nominal clock, since a
//! core's FMA ports and its clock under 256- and 512-bit load differ from
//! part to part. `of_peak` sets every GEMM row against that bound times the
//! threads it ran on (capped at the hardware threads). The scalar rows
//! route every multiply-add through `f32::mul_add` to stay bitwise-identical
//! to the vector tiers; without native FMA codegen that is a libm `fmaf`
//! call per element — a determinism fallback, not a performance path.
//! `speedup` (against the same tier at 1 thread) is bounded by the hardware
//! threads; on a single-core host the threaded rows measure dispatch
//! overhead, not scaling. The sweep leaves the tier and the pool width as it
//! found them.

use crate::table::Table;
use crate::{Args, Record};
use puffer_probe::Stopwatch;
use puffer_tensor::gemm::{self, Tier};
use puffer_tensor::matmul::matmul;
use puffer_tensor::{pool, Tensor};

/// Median-of-`reps` wall time for one `m×k · k×n` matmul, in seconds.
fn time_matmul(a: &Tensor, b: &Tensor, reps: usize) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Stopwatch::start();
        let c = matmul(a, b).unwrap();
        samples.push(t0.elapsed().as_secs_f64());
        // Keep the result observable so the multiply cannot be elided.
        assert!(c.as_slice()[0].is_finite());
    }
    samples.sort_by(|x, y| x.partial_cmp(y).unwrap());
    samples[samples.len() / 2]
}

/// One core's FMA peak on `tier`, in GFLOP/s: the fastest of seven timed
/// runs of the register-only loop (a peak is the best the core does), each
/// long enough (~0.1 s on a vector tier) to settle the core's clock.
pub(crate) fn fma_peak(tier: Tier) -> f64 {
    let iters = if tier == Tier::Scalar { 1 << 20 } else { 1 << 22 };
    let mut best = f64::INFINITY;
    let mut flops = 0.0;
    for _ in 0..7 {
        let t0 = Stopwatch::start();
        let (f, sink) = gemm::fma_peak_loop(tier, iters);
        best = best.min(t0.elapsed().as_secs_f64());
        flops = f;
        assert!(sink.is_finite());
    }
    flops / best / 1e9
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

/// Measures every tier's FMA peak, then sweeps every shape × tier × thread
/// count, one row each.
pub fn run(_args: &Args) -> Record {
    let mut rec = Record::new("gemm-scaling");
    let grid = thread_grid();
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (prev_threads, prev_tier) = (pool::num_threads(), gemm::tier());
    let tiers: Vec<Tier> = gemm::host_tiers().collect();
    let (kc, mc, nc) = gemm::blocking();
    let kernel = format!(
        "BLIS-blocked KC={kc} MC={mc} NC={nc} over MR={}×NR={} panels, \
         (jc,ic)-tile-partitioned; tiles: avx512 12x32 zmm, avx2 6x16 ymm, \
         bitwise-identical mul_add scalar",
        gemm::MR,
        gemm::NR
    );

    println!(
        "GEMM sweep ({kernel}), {hw} hardware thread(s), host tier {}",
        gemm::host_tier().name()
    );
    let mut t = Table::new(vec![
        "shape", "kind", "mode", "threads", "median_s", "gflops", "speedup", "of_peak",
    ]);
    let mut peaks = Vec::new();
    for &tier in &tiers {
        pool::set_num_threads(1);
        let gflops = fma_peak(tier);
        peaks.push(gflops);
        t.row(vec![
            "fma-peak".into(),
            "register-only".into(),
            tier.name().into(),
            "1".into(),
            "-".into(),
            format!("{gflops:.2}"),
            "-".into(),
            "1.00".into(),
        ]);
    }
    for &(m, k, n, kind) in &shapes() {
        let a = Tensor::randn(&[m, k], 1.0, 1);
        let b = Tensor::randn(&[k, n], 1.0, 2);
        let macs = 2 * m * k * n;
        let reps = (5_000_000_000 / macs).clamp(3, 25);
        let flops = macs as f64;
        for (&tier, &peak) in tiers.iter().zip(&peaks).rev() {
            gemm::set_tier(tier);
            let mut base = None;
            for &threads in &grid {
                pool::set_num_threads(threads);
                // Warm the pool and caches outside the timed region.
                let _ = matmul(&a, &b).unwrap();
                let secs = time_matmul(&a, &b, reps);
                let base_secs = *base.get_or_insert(secs);
                let gflops = flops / secs / 1e9;
                t.row(vec![
                    format!("{m}x{k}x{n}"),
                    kind.to_string(),
                    tier.name().to_string(),
                    threads.to_string(),
                    format!("{secs:.6}"),
                    format!("{gflops:.2}"),
                    format!("{:.2}x", base_secs / secs),
                    format!("{:.2}", gflops / (peak * threads.min(hw) as f64)),
                ]);
            }
        }
    }
    gemm::set_tier(prev_tier);
    pool::set_num_threads(prev_threads);
    rec.table(t);
    rec
}
