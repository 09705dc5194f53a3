//! The direct (pack-free) kernels behind `conv2d_forward`,
//! `conv2d_grad_weight` and `conv2d_grad_input` against the implicit-GEMM
//! engine and the explicit `im2col` / `col2im` lowering.
//!
//! Contract (DESIGN.md §10): for stride-1 and stride-2 layers of at most
//! `DIRECT_MAX_C_OUT` output channels (`DIRECT_MAX_C_OUT_1X1` for 1×1
//! kernels) the three primitives run direct kernels whose every output
//! element has the engine's bits — `to_bits` equal to `matmul(W, im2col(x))`,
//! `matmul_nt(dOut, im2col(x))` and `col2im(matmul_tn(W, dOut))`, non-finite
//! operands included — for every thread count and with SIMD on or off.

mod common;

use common::{assert_bits, engine, operands, oracle_of, Case, Oracle, Results};
use puffer_tensor::conv::{
    conv2d_forward, conv2d_grad_input, conv2d_grad_weight, ConvGeometry, DIRECT_MAX_C_OUT,
    DIRECT_MAX_C_OUT_1X1,
};
use puffer_tensor::gemm;
use puffer_tensor::matmul::{parallel_threshold, set_parallel_threshold};
use puffer_tensor::{pool, Tensor};
use std::sync::Mutex;

/// Thread count, SIMD switch and parallel threshold are process-global;
/// every test in this binary serializes on this lock.
static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Restores the global knobs when a test ends, pass or fail.
struct Knobs {
    threads: usize,
    threshold: usize,
    tier: gemm::Tier,
}

impl Knobs {
    /// Saves the knobs and sets the oracle's: one thread, the widest tier, every
    /// eligible call parallel.
    fn save() -> Self {
        let saved = Knobs {
            threads: pool::num_threads(),
            threshold: parallel_threshold(),
            tier: gemm::tier(),
        };
        set_parallel_threshold(0);
        reference_knobs();
        saved
    }
}

impl Drop for Knobs {
    fn drop(&mut self) {
        pool::set_num_threads(self.threads);
        set_parallel_threshold(self.threshold);
        gemm::set_tier(self.tier);
    }
}

fn reference_knobs() {
    pool::set_num_threads(1);
    gemm::set_tier(gemm::Tier::Avx512);
}

fn macs(case: &Case) -> usize {
    case.n * case.c_out * case.geo.patch_rows() * case.geo.h_out() * case.geo.w_out()
}

/// The three primitives as the layers call them.
fn primitives(case: &Case, o: &Oracle) -> Results {
    (
        conv2d_forward(&o.x, &o.w, &case.geo).unwrap(),
        conv2d_grad_weight(&o.x, &o.dout, &case.geo).unwrap(),
        conv2d_grad_input(&o.w, &o.dout, &case.geo).unwrap(),
    )
}

fn assert_same((y, dw, dx): &Results, want: &Oracle, ctx: &str) {
    assert_bits(y, &want.y, "forward", ctx);
    assert_bits(dw, &want.dw, "dW", ctx);
    assert_bits(dx, &want.dx, "dX", ctx);
}

/// stride ∈ {1, 2} × k ∈ {1,2,3,5,7} × pad ∈ {0 … k−1} × planes {4², 7×5,
/// 8², 9×6, 16², 32²} (widths that are not lane multiples, and both
/// parities of `h + 2p − k`, so that stride-2 phases end short, included) ×
/// c_out ∈ {1,4,6,7,8,16, the bound, the bound + 1 — which falls through to
/// the engine} for `k > 1`, and {1,4,7,16,40,64, the 1×1 bound, + 1} for
/// 1×1 (40 and up cut the weight gradient into channel blocks) × c_in ∈
/// {1,3,16,130}, two images.
fn grid() -> Vec<Case> {
    let mut out = Vec::new();
    for &stride in &[1usize, 2] {
        for &k in &[1usize, 2, 3, 5, 7] {
            let c_outs = if k == 1 {
                [1usize, 4, 7, 16, 40, 64, DIRECT_MAX_C_OUT_1X1, DIRECT_MAX_C_OUT_1X1 + 1]
            } else {
                [1usize, 4, 6, 7, 8, 16, DIRECT_MAX_C_OUT, DIRECT_MAX_C_OUT + 1]
            };
            for padding in 0..k {
                for &(h, w) in &[(4usize, 4usize), (7, 5), (8, 8), (9, 6), (16, 16), (32, 32)] {
                    for &c_out in &c_outs {
                        for &c_in in &[1usize, 3, 16, 130] {
                            let geo = ConvGeometry { c_in, h, w, k, stride, padding };
                            if geo.validate().is_ok() {
                                out.push(Case { geo, n: 2, c_out });
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// The whole grid is 6,592 cases and some 31 G multiply–adds per primitive
/// (a fifth of them at stride 2), and the scalar twins run at a few hundred
/// million a second. Every case is checked
/// against the explicit lowering with the AVX2 kernels at one thread count
/// (rotating through 1/2/4/8); the cases under a million multiply–adds and
/// every 16th of the rest are checked at all thread counts × SIMD on/off and
/// against the engine as well.
#[test]
fn direct_equals_engine_equals_explicit_lowering() {
    let _g = lock();
    let _knobs = Knobs::save();
    let threads = [1usize, 2, 4, 8];
    for (i, case) in grid().iter().enumerate() {
        reference_knobs();
        let want = oracle_of(case, operands(case, 1000 + i as u64));
        let thorough = macs(case) < 1_000_000 || i % 16 == 0;
        if thorough {
            assert_same(&engine(case, &want), &want, &format!("engine, {case:?}"));
        }
        for tier in [gemm::host_tier(), gemm::Tier::Scalar] {
            for &t in &threads {
                if thorough || (tier > gemm::Tier::Scalar && t == threads[i % 4]) {
                    gemm::set_tier(tier);
                    pool::set_num_threads(t);
                    let ctx = format!("{case:?} tier={tier:?} threads={t}");
                    assert_same(&primitives(case, &want), &want, &ctx);
                }
            }
        }
    }
}

#[test]
fn more_images_than_threads_and_fewer() {
    // Threads split images (forward, dX) and weight-gradient tiles (dW):
    // five images on 1/2/4/8 threads, a one-tile weight gradient
    // (c_in·k² = 4 taps) on more threads than tiles, a stride-2 layer, and a
    // 1×1 layer whose 100 output channels are four channel blocks of the
    // weight gradient.
    let _g = lock();
    let _knobs = Knobs::save();
    let cases = [
        Case {
            geo: ConvGeometry { c_in: 5, h: 9, w: 11, k: 3, stride: 1, padding: 1 },
            n: 5,
            c_out: 9,
        },
        Case {
            geo: ConvGeometry { c_in: 1, h: 6, w: 6, k: 2, stride: 1, padding: 1 },
            n: 1,
            c_out: 20,
        },
        Case {
            geo: ConvGeometry { c_in: 5, h: 11, w: 10, k: 3, stride: 2, padding: 1 },
            n: 5,
            c_out: 9,
        },
        Case {
            geo: ConvGeometry { c_in: 6, h: 7, w: 9, k: 1, stride: 2, padding: 0 },
            n: 5,
            c_out: 100,
        },
    ];
    for (i, case) in cases.iter().enumerate() {
        reference_knobs();
        let want = oracle_of(case, operands(case, 50 + i as u64));
        for tier in [gemm::host_tier(), gemm::Tier::Scalar] {
            for threads in [1usize, 2, 4, 8] {
                gemm::set_tier(tier);
                pool::set_num_threads(threads);
                let ctx = format!("{case:?} tier={tier:?} threads={threads}");
                assert_same(&primitives(case, &want), &want, &ctx);
            }
        }
    }
}

/// Writes `v` at `(img, c, y, x)` of an NCHW tensor.
fn poke(t: &mut Tensor, (img, c, y, x): (usize, usize, usize, usize), v: f32) {
    let s = t.shape().to_vec();
    t.as_mut_slice()[((img * s[1] + c) * s[2] + y) * s[3] + x] = v;
}

#[test]
fn non_finite_operands_reach_the_same_elements_with_the_same_bits() {
    // NaN / ±Inf in dOut, in x and in one weight tap, at corner, edge and
    // interior positions and at every stride-2 phase (the four parities of
    // a row and a column): a non-finite x meets finite weights only where a
    // window covers it, a non-finite weight turns the zero border into NaN
    // in forward and dW (as the packed panel's zeros do) and must not in dX
    // (the scatter skips taps outside dOut).
    let _g = lock();
    let _knobs = Knobs::save();
    let geos = [
        ConvGeometry { c_in: 3, h: 9, w: 6, k: 3, stride: 1, padding: 1 },
        ConvGeometry { c_in: 2, h: 7, w: 5, k: 5, stride: 1, padding: 2 },
        ConvGeometry { c_in: 3, h: 8, w: 8, k: 2, stride: 1, padding: 1 },
        ConvGeometry { c_in: 2, h: 10, w: 9, k: 3, stride: 1, padding: 0 },
        ConvGeometry { c_in: 3, h: 9, w: 6, k: 3, stride: 2, padding: 1 },
        ConvGeometry { c_in: 2, h: 8, w: 7, k: 5, stride: 2, padding: 2 },
        ConvGeometry { c_in: 3, h: 8, w: 9, k: 2, stride: 2, padding: 1 },
        ConvGeometry { c_in: 2, h: 10, w: 9, k: 3, stride: 2, padding: 0 },
        ConvGeometry { c_in: 3, h: 7, w: 6, k: 1, stride: 1, padding: 0 },
        ConvGeometry { c_in: 3, h: 7, w: 5, k: 1, stride: 2, padding: 0 },
    ];
    let mut checked = 0;
    let mut expected = 0;
    for (gi, geo) in geos.iter().enumerate() {
        let case = Case { geo: *geo, n: 2, c_out: 5 };
        let (ho, wo, k) = (geo.h_out(), geo.w_out(), geo.k);
        let spots = |h: usize, w: usize| {
            let mut spots: Vec<(usize, usize)> = [(0, 0), (0, 1), (1, 0), (1, 1)]
                .into_iter()
                .chain([(0, w / 2), (h - 1, w - 1), (h / 2, w / 2)])
                .map(|(y, x)| (y.min(h - 1), x.min(w - 1)))
                .collect();
            spots.sort_unstable();
            spots.dedup();
            spots
        };
        for (vi, &v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY].iter().enumerate() {
            let mut variants = Vec::new();
            for (y, x) in spots(ho, wo) {
                let mut o = operands(&case, 7 + gi as u64);
                poke(&mut o.2, (vi % 2, 3, y, x), v);
                variants.push((format!("dOut[{y},{x}]"), o, true));
            }
            // At stride 2 a window may skip the last input row or column;
            // a value there reaches nothing.
            let covered = |i: usize, out: usize| {
                (0..k).any(|t| {
                    (i + geo.padding)
                        .checked_sub(t)
                        .is_some_and(|d| d % geo.stride == 0 && d / geo.stride < out)
                })
            };
            for (y, x) in spots(geo.h, geo.w) {
                let mut o = operands(&case, 7 + gi as u64);
                poke(&mut o.0, (1 - vi % 2, 1, y, x), v);
                let reached = covered(y, ho) && covered(x, wo);
                variants.push((format!("x[{y},{x}]"), o, reached));
            }
            for (ky, kx) in spots(k, k) {
                let mut o = operands(&case, 7 + gi as u64);
                poke(&mut o.1, (2, 1, ky, kx), v);
                variants.push((format!("w[{ky},{kx}]"), o, true));
            }
            expected += spots(ho, wo).len() + spots(geo.h, geo.w).len() + spots(k, k).len();
            for (what, o, reached) in variants {
                reference_knobs();
                let want = oracle_of(&case, o);
                let ctx = format!("engine, {v} in {what}, {geo:?}");
                assert_same(&engine(&case, &want), &want, &ctx);
                for tier in [gemm::host_tier(), gemm::Tier::Scalar] {
                    for threads in [1usize, 2] {
                        gemm::set_tier(tier);
                        pool::set_num_threads(threads);
                        let ctx = format!("{v} in {what}, {geo:?} tier={tier:?} threads={threads}");
                        assert_same(&primitives(&case, &want), &want, &ctx);
                    }
                }
                let poisoned = |t: &Tensor| t.as_slice().iter().filter(|a| !a.is_finite()).count();
                let poisoned = poisoned(&want.y) + poisoned(&want.dw) + poisoned(&want.dx);
                assert_eq!(poisoned > 0, reached, "{v} in {what}, {geo:?}");
                checked += 1;
            }
        }
    }
    assert_eq!(checked, expected);
}

#[test]
fn empty_batch_and_shape_errors_are_the_engine_s() {
    let geo = ConvGeometry { c_in: 3, h: 8, w: 8, k: 3, stride: 1, padding: 1 };
    let w = Tensor::randn(&[4, 3, 3, 3], 0.5, 1);
    let none = Tensor::zeros(&[0, 3, 8, 8]);
    let no_grad = Tensor::zeros(&[0, 4, 8, 8]);
    assert_eq!(conv2d_forward(&none, &w, &geo).unwrap().shape(), &[0, 4, 8, 8]);
    let dw = conv2d_grad_weight(&none, &no_grad, &geo).unwrap();
    assert_eq!(dw, Tensor::zeros(&[4, 3, 3, 3]));
    assert_eq!(conv2d_grad_input(&w, &no_grad, &geo).unwrap().shape(), &[0, 3, 8, 8]);
    let x = Tensor::zeros(&[2, 3, 8, 8]);
    assert!(conv2d_forward(&x, &Tensor::zeros(&[4, 3, 5, 5]), &geo).is_err());
    assert!(conv2d_grad_weight(&x, &Tensor::zeros(&[2, 4, 7, 8]), &geo).is_err());
    assert!(conv2d_grad_input(&w, &Tensor::zeros(&[2, 5, 8, 8]), &geo).is_err());
}
