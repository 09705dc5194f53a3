//! The implicit-GEMM convolution primitives against the explicit lowering
//! they replace.
//!
//! Contract (DESIGN.md §10): `conv2d_forward` and `conv2d_grad_weight` are
//! **bitwise** equal to `matmul(W, im2col(x))` / `matmul_nt(dOut,
//! im2col(x))`, `conv2d_grad_input` to `col2im(matmul_tn(W, dOut))`; and
//! all three are bitwise invariant to thread count, kernel tier and the
//! KC/MC/NC blocking. The layers here are thin enough for the direct
//! kernels (`conv_direct.rs` tests those), so every engine check widens the
//! layer past their bound with zero filters (`common::engine`).

mod common;

use common::{assert_bits, engine, oracle, Case};
use puffer_tensor::conv::{conv2d_forward, conv2d_grad_input, conv2d_grad_weight, ConvGeometry};
use puffer_tensor::gemm;
use puffer_tensor::matmul::{parallel_threshold, set_parallel_threshold};
use puffer_tensor::{pool, Tensor};
use std::sync::Mutex;

/// Thread count, SIMD switch, blocking and parallel threshold are
/// process-global; every test in this binary serializes on this lock.
static GLOBAL: Mutex<()> = Mutex::new(());

/// A failed test must not take the others down with a poisoned lock.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Restores the engine's global knobs when a test ends, pass or fail.
struct Knobs {
    threads: usize,
    threshold: usize,
    blocking: (usize, usize, usize),
    tier: gemm::Tier,
}

impl Knobs {
    fn save() -> Self {
        Knobs {
            threads: pool::num_threads(),
            threshold: parallel_threshold(),
            blocking: gemm::blocking(),
            tier: gemm::tier(),
        }
    }
}

impl Drop for Knobs {
    fn drop(&mut self) {
        pool::set_num_threads(self.threads);
        set_parallel_threshold(self.threshold);
        let (kc, mc, nc) = self.blocking;
        gemm::set_blocking(kc, mc, nc);
        gemm::set_tier(self.tier);
    }
}

/// k ∈ {1, 3, 7} × stride ∈ {1, 2} × padding ∈ {0, 1, 3}, on a non-square
/// 7×5 plane (35 positions: every 16-lane panel straddles images), a 9×6
/// one, and a 16×16 one whose panels are aligned; batch sizes chosen so
/// column panels straddle images and, under the small blockings, NC blocks.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for &(h, w, n) in &[(7usize, 5usize, 5usize), (9, 6, 3), (16, 16, 2)] {
        for &k in &[1usize, 3, 7] {
            for &stride in &[1usize, 2] {
                for &padding in &[0usize, 1, 3] {
                    let geo = ConvGeometry { c_in: 3, h, w, k, stride, padding };
                    if geo.validate().is_ok() {
                        out.push(Case { geo, n, c_out: 7 });
                    }
                }
            }
        }
    }
    // More channels than one MR/NR panel on both sides of the weight
    // gradient, and a reduction longer than the small KC blockings.
    out.push(Case {
        geo: ConvGeometry { c_in: 19, h: 6, w: 7, k: 3, stride: 1, padding: 1 },
        n: 4,
        c_out: 23,
    });
    out.push(Case {
        geo: ConvGeometry { c_in: 8, h: 8, w: 8, k: 3, stride: 2, padding: 1 },
        n: 3,
        c_out: 4,
    });
    out
}

#[test]
fn fused_matches_explicit_lowering_across_threads_simd_and_blockings() {
    let _g = lock();
    let _knobs = Knobs::save();
    set_parallel_threshold(0);
    for (ci, case) in cases().iter().enumerate() {
        pool::set_num_threads(1);
        gemm::set_blocking(256, 96, 2048);
        gemm::set_tier(gemm::Tier::Avx512);
        let o = oracle(case, 100 + ci as u64);
        for &(kc, mc, nc) in &[(256usize, 96usize, 2048usize), (8, 12, 32), (5, 6, 16)] {
            gemm::set_blocking(kc, mc, nc);
            for tier in gemm::host_tiers() {
                gemm::set_tier(tier);
                for threads in [1usize, 2, 4, 8] {
                    pool::set_num_threads(threads);
                    let ctx = format!(
                        "{:?} n={} c_out={} kc={kc} mc={mc} nc={nc} tier={tier:?} threads={threads}",
                        case.geo, case.n, case.c_out
                    );
                    let (y, dw, dx) = engine(case, &o);
                    assert_bits(&y, &o.y, "forward", &ctx);
                    assert_bits(&dw, &o.dw, "dW", &ctx);
                    assert_bits(&dx, &o.dx, "dX", &ctx);
                }
            }
        }
    }
}

#[test]
fn planes_whose_tiles_straddle_images_match_on_every_tier() {
    // H·W ∈ {1, 4, 9, 16, 25}: in NCHW every 16-column tile of a plane
    // under 16 positions straddles images (VGG's 2×2 stage), and the
    // 512-bit tier's 32-column tiles straddle them at 16 and 25 too. 30
    // input channels make the 3×3 depth 270, past one KC = 256 block, so
    // those tiles also resume from C.
    let _g = lock();
    let _knobs = Knobs::save();
    set_parallel_threshold(0);
    for side in 1..=5usize {
        for (c_in, k, padding) in [(30usize, 3usize, 1usize), (5, 1, 0)] {
            let geo = ConvGeometry { c_in, h: side, w: side, k, stride: 1, padding };
            let case = Case { geo, n: 7, c_out: 7 };
            pool::set_num_threads(1);
            let o = oracle(&case, 700 + side as u64);
            for tier in gemm::host_tiers() {
                gemm::set_tier(tier);
                for threads in [1usize, 2] {
                    pool::set_num_threads(threads);
                    let ctx = format!("{geo:?} tier={tier:?} threads={threads}");
                    let (y, dw, dx) = engine(&case, &o);
                    assert_bits(&y, &o.y, "forward", &ctx);
                    assert_bits(&dw, &o.dw, "dW", &ctx);
                    assert_bits(&dx, &o.dx, "dX", &ctx);
                }
            }
        }
    }
}

#[test]
fn grad_input_is_bitwise_col2im_however_images_are_grouped_and_split() {
    // 288 patch rows × 256 output positions per image: SCATTER_BLOCK holds
    // three images, so one thread takes five images as a group of three and
    // one of two, two threads take three (one group) and two; at 1024
    // positions per image it holds none and every image goes alone.
    let _g = lock();
    let _knobs = Knobs::save();
    set_parallel_threshold(0);
    for &(hw, n) in &[(32usize, 5usize), (64, 3)] {
        let geo = ConvGeometry { c_in: 32, h: hw, w: hw, k: 3, stride: 2, padding: 1 };
        let per_image = geo.patch_rows() * geo.h_out() * geo.w_out();
        assert!(per_image * n > puffer_tensor::conv::SCATTER_BLOCK, "must need several blocks");
        let case = Case { geo, n, c_out: 5 };
        pool::set_num_threads(1);
        let o = oracle(&case, 500 + hw as u64);
        for threads in [1usize, 2, 8] {
            pool::set_num_threads(threads);
            let (_, _, dx) = engine(&case, &o);
            assert_bits(&dx, &o.dx, "dX", &format!("{geo:?} n={n} threads={threads}"));
        }
    }
}

#[test]
fn grad_input_is_the_adjoint_of_forward() {
    // <conv(x), dy> == <x, grad_input(dy)>.
    let _g = lock();
    for &(stride, padding) in &[(1usize, 1usize), (2, 1), (1, 3)] {
        let geo = ConvGeometry { c_in: 4, h: 9, w: 7, k: 3, stride, padding };
        let x = Tensor::randn(&[2, 4, 9, 7], 1.0, 1);
        let w = Tensor::randn(&[5, 4, 3, 3], 0.5, 2);
        let y = conv2d_forward(&x, &w, &geo).unwrap();
        let dy = Tensor::randn(y.shape(), 1.0, 3);
        let dx = conv2d_grad_input(&w, &dy, &geo).unwrap();
        let (lhs, rhs) = (y.dot(&dy).unwrap(), x.dot(&dx).unwrap());
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs} ({geo:?})");
    }
}

#[test]
fn shape_errors() {
    let geo = ConvGeometry { c_in: 3, h: 8, w: 8, k: 3, stride: 1, padding: 1 };
    let x = Tensor::zeros(&[2, 3, 8, 8]);
    let w = Tensor::zeros(&[4, 3, 3, 3]);
    let dout = Tensor::zeros(&[2, 4, 8, 8]);
    assert!(conv2d_forward(&Tensor::zeros(&[2, 2, 8, 8]), &w, &geo).is_err());
    assert!(conv2d_forward(&x, &Tensor::zeros(&[4, 27]), &geo).is_err());
    assert!(conv2d_forward(&x, &Tensor::zeros(&[4, 3, 5, 5]), &geo).is_err());
    assert!(conv2d_grad_weight(&x, &Tensor::zeros(&[2, 4, 7, 8]), &geo).is_err());
    assert!(conv2d_grad_weight(&x, &Tensor::zeros(&[3, 4, 8, 8]), &geo).is_err());
    assert!(conv2d_grad_input(&w, &Tensor::zeros(&[2, 5, 8, 8]), &geo).is_err());
    assert!(conv2d_grad_input(&Tensor::zeros(&[4, 2, 3, 3]), &dout, &geo).is_err());
    // An empty batch is a shape, not an error.
    let none = Tensor::zeros(&[0, 3, 8, 8]);
    assert_eq!(conv2d_forward(&none, &w, &geo).unwrap().shape(), &[0, 4, 8, 8]);
    assert_eq!(conv2d_grad_weight(&none, &Tensor::zeros(&[0, 4, 8, 8]), &geo).unwrap(), w);
    assert!(conv2d_grad_input(&w, &Tensor::zeros(&[0, 4, 8, 8]), &geo).unwrap().is_empty());
    let too_big = ConvGeometry { c_in: 3, h: 2, w: 2, k: 5, stride: 1, padding: 0 };
    assert!(conv2d_forward(&Tensor::zeros(&[1, 3, 2, 2]), &Tensor::zeros(&[1, 3, 5, 5]), &too_big)
        .is_err());
}
