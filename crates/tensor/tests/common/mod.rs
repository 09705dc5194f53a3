//! What the convolution suites share: a layer's operands and the explicit
//! `im2col` / `col2im` lowering of its three primitives, the oracle both
//! `conv_implicit.rs` and `conv_direct.rs` compare against bit for bit.
#![allow(dead_code)] // each test binary uses its own subset

use puffer_tensor::conv::{
    col2im, conv2d_forward, conv2d_grad_input, conv2d_grad_weight, im2col, ConvGeometry,
    DIRECT_MAX_C_OUT, DIRECT_MAX_C_OUT_1X1,
};
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

/// `(y, dW, dX)` of one layer.
pub type Results = (Tensor, Tensor, Tensor);

/// The implicit-GEMM engine on `case`'s layer: widened with zero filters
/// and zero `dOut` channels to one channel more than the direct kernels
/// take, the primitives fall through to it. Output channels are independent
/// in `y` and `dW`, and in `dX` a zero channel appends `fma(0, 0, acc)` to a
/// chain whose `acc` is not `−0.0` — the first `c_out` channels of the
/// widened results are the engine's results for the layer itself.
pub fn engine(case: &Case, o: &Oracle) -> Results {
    let g = &case.geo;
    let wide = if g.k == 1 { DIRECT_MAX_C_OUT_1X1 } else { DIRECT_MAX_C_OUT } + 1;
    let wide = wide.max(case.c_out);
    // Copies `t` with its channel axis resized from `from` to `to` channels
    // (zero-filled, or cut).
    let resize = |t: &Tensor, axis: usize, from: usize, to: usize| {
        let mut shape = t.shape().to_vec();
        let inner: usize = shape[axis + 1..].iter().product();
        shape[axis] = to;
        let mut out = Tensor::zeros(&shape);
        let slabs = t.as_slice().chunks_exact(from * inner);
        for (src, dst) in slabs.zip(out.as_mut_slice().chunks_exact_mut(to * inner)) {
            let kept = src.len().min(dst.len());
            dst[..kept].copy_from_slice(&src[..kept]);
        }
        out
    };
    let (w, dout) = (resize(&o.w, 0, case.c_out, wide), resize(&o.dout, 1, case.c_out, wide));
    (
        resize(&conv2d_forward(&o.x, &w, g).unwrap(), 1, wide, case.c_out),
        resize(&conv2d_grad_weight(&o.x, &dout, g).unwrap(), 0, wide, case.c_out),
        conv2d_grad_input(&w, &dout, g).unwrap(),
    )
}
