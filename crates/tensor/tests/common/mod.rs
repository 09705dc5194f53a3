//! What the convolution suites share: a layer's operands and the explicit
//! `im2col` / `col2im` lowering of its three primitives, the oracle both
//! `conv_implicit.rs` and `conv_direct.rs` compare against bit for bit.
#![allow(dead_code)] // each test binary uses its own subset

use puffer_tensor::conv::{col2im, im2col, ConvGeometry};
use puffer_tensor::matmul::{matmul, matmul_nt, matmul_tn};
use puffer_tensor::Tensor;

#[derive(Debug, Clone, Copy)]
pub struct Case {
    pub geo: ConvGeometry,
    pub n: usize,
    pub c_out: usize,
}

pub struct Oracle {
    pub x: Tensor,
    pub w: Tensor,
    pub dout: Tensor,
    pub y: Tensor,
    pub dw: Tensor,
    pub dx: Tensor,
}

/// `[c, N·hw] → [N, c, hw…]`, test-side only: the reference lowering
/// produces channel-major matrices, the primitives produce NCHW.
pub fn cols_to_nchw(mat: &Tensor, n: usize, c: usize, ho: usize, wo: usize) -> Tensor {
    let hw = ho * wo;
    let mut out = Tensor::zeros(&[n, c, ho, wo]);
    for ci in 0..c {
        for ni in 0..n {
            let src = &mat.as_slice()[ci * n * hw + ni * hw..][..hw];
            out.as_mut_slice()[(ni * c + ci) * hw..][..hw].copy_from_slice(src);
        }
    }
    out
}

pub fn nchw_to_cols(t: &Tensor) -> Tensor {
    let s = t.shape();
    let (n, c, hw) = (s[0], s[1], s[2] * s[3]);
    let mut out = Tensor::zeros(&[c, n * hw]);
    for ci in 0..c {
        for ni in 0..n {
            let src = &t.as_slice()[(ni * c + ci) * hw..][..hw];
            out.as_mut_slice()[ci * n * hw + ni * hw..][..hw].copy_from_slice(src);
        }
    }
    out
}

/// Seeded operands for `case`: `(x, w, dout)`.
pub fn operands(case: &Case, seed: u64) -> (Tensor, Tensor, Tensor) {
    let g = &case.geo;
    (
        Tensor::randn(&[case.n, g.c_in, g.h, g.w], 1.0, seed),
        Tensor::randn(&[case.c_out, g.c_in, g.k, g.k], 0.5, seed + 1),
        Tensor::randn(&[case.n, case.c_out, g.h_out(), g.w_out()], 1.0, seed + 2),
    )
}

/// The explicit lowering of the three primitives on the given operands:
/// patch matrix, plain GEMMs, scatter. Computed under whatever thread count
/// and blocking the caller has set (its own invariance is
/// `simd_bitwise.rs`'s business).
pub fn oracle_of(case: &Case, (x, w, dout): (Tensor, Tensor, Tensor)) -> Oracle {
    let g = &case.geo;
    let w_mat = w.reshape(&[case.c_out, g.patch_rows()]).unwrap();
    let cols = im2col(&x, g).unwrap();
    let y = cols_to_nchw(&matmul(&w_mat, &cols).unwrap(), case.n, case.c_out, g.h_out(), g.w_out());
    let dout_mat = nchw_to_cols(&dout);
    let dw = matmul_nt(&dout_mat, &cols).unwrap().reshape(w.shape()).unwrap();
    let dx = col2im(&matmul_tn(&w_mat, &dout_mat).unwrap(), g, case.n).unwrap();
    Oracle { x, w, dout, y, dw, dx }
}

pub fn oracle(case: &Case, seed: u64) -> Oracle {
    oracle_of(case, operands(case, seed))
}

pub fn assert_bits(got: &Tensor, want: &Tensor, what: &str, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{what} shape, {ctx}");
    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b}, {ctx}");
    }
}
