//! Property tests for the tensor substrate, on the seeded case runner
//! (`puffer_tensor::rng::check`).

use puffer_tensor::f16::round_f16;
use puffer_tensor::matmul::{
    matmul, matmul_nt, matmul_tn, parallel_threshold, set_parallel_threshold,
};
use puffer_tensor::pool::{num_threads, set_num_threads};
use puffer_tensor::rng::{check, Rng};
use puffer_tensor::stats::{l2_norm, rel_error, top_k_indices};
use puffer_tensor::svd::{svd_jacobi, truncated_svd};
use puffer_tensor::Tensor;

fn tensor(rng: &mut Rng, rows: usize, cols: usize) -> Tensor {
    let v = (0..rows * cols).map(|_| rng.gen_range(-10.0..10.0)).collect();
    Tensor::from_vec(v, &[rows, cols]).unwrap()
}

#[test]
fn transpose_involution() {
    check("transpose_involution", 48, |rng| {
        let t = tensor(rng, 5, 7);
        assert_eq!(t.transpose().transpose(), t);
    });
}

#[test]
fn matmul_distributes_over_addition() {
    check("matmul_distributes_over_addition", 48, |rng| {
        let (a, b, c) = (tensor(rng, 4, 5), tensor(rng, 5, 3), tensor(rng, 5, 3));
        let lhs = matmul(&a, &(&b + &c)).unwrap();
        let rhs = &matmul(&a, &b).unwrap() + &matmul(&a, &c).unwrap();
        assert!(rel_error(&lhs, &rhs) < 1e-4);
    });
}

#[test]
fn matmul_transpose_identity() {
    check("matmul_transpose_identity", 48, |rng| {
        let (a, b) = (tensor(rng, 4, 6), tensor(rng, 4, 3));
        // (Aᵀ B) computed fused equals the explicit version.
        let fused = matmul_tn(&a, &b).unwrap();
        let explicit = matmul(&a.transpose(), &b).unwrap();
        assert!(rel_error(&explicit, &fused) < 1e-4);
    });
}

#[test]
fn matmul_nt_identity() {
    check("matmul_nt_identity", 48, |rng| {
        let (a, b) = (tensor(rng, 4, 6), tensor(rng, 3, 6));
        let fused = matmul_nt(&a, &b).unwrap();
        let explicit = matmul(&a, &b.transpose()).unwrap();
        assert!(rel_error(&explicit, &fused) < 1e-4);
    });
}

#[test]
fn svd_reconstruction_and_orthogonality() {
    check("svd_reconstruction_and_orthogonality", 48, |rng| {
        let a = tensor(rng, 8, 5);
        let f = svd_jacobi(&a).unwrap();
        assert!(rel_error(&a, &f.reconstruct()) < 1e-3);
        // Singular values are non-increasing and non-negative.
        for w in f.s.windows(2) {
            assert!(w[0] + 1e-5 >= w[1]);
        }
        assert!(f.s.iter().all(|&x| x >= 0.0));
    });
}

#[test]
fn truncated_svd_error_never_exceeds_full_norm() {
    check("truncated_svd_error_never_exceeds_full_norm", 48, |rng| {
        let a = tensor(rng, 8, 6);
        let f = truncated_svd(&a, 3).unwrap();
        let rec = f.reconstruct();
        let err = l2_norm(&(&a - &rec));
        assert!(err <= l2_norm(&a) + 1e-3);
    });
}

#[test]
fn balanced_split_preserves_product() {
    check("balanced_split_preserves_product", 48, |rng| {
        let a = tensor(rng, 7, 6);
        let f = truncated_svd(&a, 4).unwrap();
        let (u, vt) = f.split_balanced();
        let prod = matmul(&u, &vt).unwrap();
        assert!(rel_error(&f.reconstruct(), &prod) < 1e-3);
    });
}

#[test]
fn f16_round_is_monotone() {
    check("f16_round_is_monotone", 48, |rng| {
        let (a, b) = (rng.gen_range(-1000.0..1000.0), rng.gen_range(-1000.0..1000.0));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(round_f16(lo) <= round_f16(hi));
    });
}

#[test]
fn f16_error_bound() {
    check("f16_error_bound", 48, |rng| {
        let x = rng.gen_range(-60000.0..60000.0);
        let r = round_f16(x);
        // Max relative error for normals, absolute bound for subnormals.
        let bound = (x.abs() * 2.0f32.powi(-10)).max(2.0f32.powi(-24));
        assert!((r - x).abs() <= bound);
    });
}

#[test]
fn top_k_has_max_energy() {
    check("top_k_has_max_energy", 48, |rng| {
        let len = rng.gen_range(1..40usize);
        let v: Vec<f32> = (0..len).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let k = rng.gen_range(1..10usize).min(v.len());
        let abs: Vec<f32> = v.iter().map(|x| x.abs()).collect();
        let picked = top_k_indices(&abs, k);
        let picked_energy: f32 = picked.iter().map(|&i| abs[i] * abs[i]).sum();
        // Any other k-subset has no more energy: compare with sorted tail.
        let mut sorted = abs.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let best: f32 = sorted[..k].iter().map(|x| x * x).sum();
        assert!((picked_energy - best).abs() < 1e-4);
    });
}

// Fewer cases than the properties above: each case runs three full GEMMs at
// up to ~101×260×130 under four thread counts.
#[test]
fn optimized_gemm_bitwise_deterministic_across_threads() {
    check("optimized_gemm_bitwise_deterministic_across_threads", 12, |rng| {
        let (idx, seed) = (rng.gen_range(0..4usize), rng.gen_range(0..500u64));
        // Sizes straddle every level of the blocked engine: the MR=6 row
        // and NR=16 column micro-tiles, the KC=256 depth block (k=257/260
        // forces a second, short KC iteration), and the MC=96 row block.
        const SIZES: [(usize, usize, usize); 4] =
            [(1, 1, 1), (7, 257, 18), (96, 96, 96), (101, 260, 130)];
        let (m, k, n) = SIZES[idx];
        let a = Tensor::randn(&[m, k], 1.0, seed);
        let b = Tensor::randn(&[k, n], 1.0, seed.wrapping_add(1));
        let at = Tensor::randn(&[k, m], 1.0, seed.wrapping_add(2));
        let bt = Tensor::randn(&[n, k], 1.0, seed.wrapping_add(3));

        let prev_threshold = parallel_threshold();
        let prev_threads = num_threads();
        // Threshold 0 forces even the 1×1 case through the pool dispatch
        // path, so partitioning logic itself is exercised at every size.
        set_parallel_threshold(0);

        let mut reference = None;
        for &t in &[1usize, 2, 4, 8] {
            set_num_threads(t);
            let c = matmul(&a, &b).unwrap();
            let tn = matmul_tn(&at, &b).unwrap();
            let nt = matmul_nt(&a, &bt).unwrap();
            match &reference {
                None => reference = Some((c, tn, nt)),
                Some((c1, tn1, nt1)) => {
                    // Bitwise equality: Tensor PartialEq compares raw f32s.
                    assert_eq!(c1, &c, "matmul differs at {} threads", t);
                    assert_eq!(tn1, &tn, "matmul_tn differs at {} threads", t);
                    assert_eq!(nt1, &nt, "matmul_nt differs at {} threads", t);
                }
            }
        }

        set_num_threads(prev_threads);
        set_parallel_threshold(prev_threshold);
    });
}

#[test]
fn conv_and_elementwise_bitwise_deterministic_across_threads() {
    use puffer_tensor::conv::{col2im, im2col, ConvGeometry};

    let geo = ConvGeometry { c_in: 3, h: 13, w: 11, k: 3, stride: 2, padding: 1 };
    let x = Tensor::randn(&[2, 3, 13, 11], 1.0, 77);
    let cols_grad = Tensor::randn(&[geo.patch_rows(), 2 * geo.h_out() * geo.w_out()], 1.0, 78);
    let big = Tensor::randn(&[517, 123], 1.0, 79);

    let prev_threshold = parallel_threshold();
    let prev_threads = num_threads();
    set_parallel_threshold(0);

    let mut reference = None;
    for &t in &[1usize, 2, 8] {
        set_num_threads(t);
        let cols = im2col(&x, &geo).unwrap();
        let img = col2im(&cols_grad, &geo, 2).unwrap();
        let mapped = big.map(|v| v * 1.5 - 0.25);
        let mut scaled = big.clone();
        scaled.scale(0.125);
        let mut axpyd = big.clone();
        axpyd.axpy(-0.5, &mapped).unwrap();
        let state = (cols, img, mapped, scaled, axpyd);
        match &reference {
            None => reference = Some(state),
            Some(r) => assert_eq!(r, &state, "threaded kernels diverged at {t} threads"),
        }
    }

    set_num_threads(prev_threads);
    set_parallel_threshold(prev_threshold);
}
