//! `Conv2d` / `LowRankConv2d` on the implicit-GEMM primitives, checked at
//! the layer boundary against the explicit lowering the layer used to run:
//! output, weight gradient and input gradient bitwise, and every tensor a
//! step produces bitwise invariant to the pool width.

use puffer_nn::conv::{Conv2d, LowRankConv2d};
use puffer_nn::layer::{Layer, Mode};
use puffer_tensor::conv::{col2im, im2col, ConvGeometry};
use puffer_tensor::matmul::{
    matmul, matmul_nt, matmul_tn, parallel_threshold, set_parallel_threshold,
};
use puffer_tensor::{pool, Tensor};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Pool width and parallel threshold are process-global.
static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `[N, c, h, w] ↔ [c, N·h·w]`, the layouts the explicit lowering works in.
fn nchw_to_cols(t: &Tensor) -> Tensor {
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

fn cols_to_nchw(mat: &Tensor, shape: &[usize]) -> Tensor {
    let (n, c, hw) = (shape[0], shape[1], shape[2] * shape[3]);
    let mut out = Tensor::zeros(shape);
    for ci in 0..c {
        for ni in 0..n {
            let src = &mat.as_slice()[ci * n * hw + ni * hw..][..hw];
            out.as_mut_slice()[(ni * c + ci) * hw..][..hw].copy_from_slice(src);
        }
    }
    out
}

/// What `Conv2d` computed before: `(y, dW, dX)` through im2col + matmul.
fn explicit(x: &Tensor, w: &Tensor, dout: &Tensor, geo: &ConvGeometry) -> (Tensor, Tensor, Tensor) {
    let c_out = w.shape()[0];
    let w_mat = w.reshape(&[c_out, geo.patch_rows()]).unwrap();
    let cols = im2col(x, geo).unwrap();
    let y = cols_to_nchw(&matmul(&w_mat, &cols).unwrap(), dout.shape());
    let dout_mat = nchw_to_cols(dout);
    let dw = matmul_nt(&dout_mat, &cols).unwrap().reshape(w.shape()).unwrap();
    let dx = col2im(&matmul_tn(&w_mat, &dout_mat).unwrap(), geo, x.shape()[0]).unwrap();
    (y, dw, dx)
}

#[test]
fn conv2d_matches_the_explicit_lowering() {
    let _g = lock();
    // (c_in, c_out, k, stride, padding, h, w, batch)
    for &(c_in, c_out, k, stride, padding, h, w, n) in &[
        (3usize, 5usize, 3usize, 1usize, 1usize, 7usize, 5usize, 4usize),
        (4, 6, 3, 2, 1, 9, 8, 3),
        (6, 4, 1, 1, 0, 5, 5, 5),
        (3, 8, 7, 2, 3, 16, 16, 2),
    ] {
        let geo = ConvGeometry { c_in, h, w, k, stride, padding };
        let mut conv = Conv2d::new(c_in, c_out, k, stride, padding, false, 11).unwrap();
        let x = Tensor::randn(&[n, c_in, h, w], 1.0, 12);
        let y = conv.forward(&x, Mode::Train);
        let dout = Tensor::randn(y.shape(), 1.0, 13);
        let dx = conv.backward(&dout);
        let (y_ref, dw_ref, dx_ref) = explicit(&x, conv.weight(), &dout, &geo);
        assert_eq!(y, y_ref, "forward {geo:?}");
        // The gradient buffer started at zero, so it holds dW itself.
        assert_eq!(conv.params()[0].grad, dw_ref, "dW {geo:?}");
        assert_eq!(dx, dx_ref, "dX {geo:?}");
    }
}

#[test]
fn low_rank_conv_is_its_two_convolutions() {
    // U (k×k, r filters) then V (1×1): the fused 1×1 must be the channel
    // mix it always was.
    let _g = lock();
    let (c_in, c_out, rank, n, hw) = (6usize, 9usize, 3usize, 3usize, 6usize);
    let mut lr = LowRankConv2d::new(c_in, c_out, 3, 1, 1, rank, 21).unwrap();
    let x = Tensor::randn(&[n, c_in, hw, hw], 1.0, 22);
    let y = lr.forward(&x, Mode::Train);
    let (u, v) = (lr.params()[0].value.clone(), lr.params()[1].value.clone());
    let geo_u = ConvGeometry { c_in, h: hw, w: hw, k: 3, stride: 1, padding: 1 };
    let geo_v = ConvGeometry { c_in: rank, h: hw, w: hw, k: 1, stride: 1, padding: 0 };
    let mid_shape = [n, rank, hw, hw];
    let (mid, _, _) = explicit(&x, &u, &Tensor::zeros(&mid_shape), &geo_u);
    let dout = Tensor::randn(y.shape(), 1.0, 23);
    let (y_ref, dv_ref, dmid_ref) = explicit(&mid, &v, &dout, &geo_v);
    assert_eq!(y, y_ref);
    let dx = lr.backward(&dout);
    assert_eq!(lr.params()[1].grad, dv_ref);
    let (_, du_ref, dx_ref) = explicit(&x, &u, &dmid_ref, &geo_u);
    assert_eq!(lr.params()[0].grad, du_ref);
    assert_eq!(dx, dx_ref);
}

#[test]
fn layer_step_is_bitwise_invariant_to_pool_width() {
    let _g = lock();
    let (prev_threads, prev_threshold) = (pool::num_threads(), parallel_threshold());
    set_parallel_threshold(0);
    let run = |threads: usize| {
        pool::set_num_threads(threads);
        let mut dense = Conv2d::new(5, 7, 3, 2, 1, true, 31).unwrap();
        let mut lr = LowRankConv2d::new(7, 10, 3, 1, 1, 3, 32).unwrap();
        let x = Tensor::randn(&[5, 5, 9, 7], 1.0, 33);
        let mid = dense.forward(&x, Mode::Train);
        let y = lr.forward(&mid, Mode::Train);
        let dmid = lr.backward(&Tensor::randn(y.shape(), 1.0, 34));
        let dx = dense.backward(&dmid);
        let mut out = vec![y, dx];
        out.extend(dense.params().iter().chain(lr.params().iter()).map(|p| p.grad.clone()));
        out
    };
    let one = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(run(threads), one, "{threads} threads");
    }
    pool::set_num_threads(prev_threads);
    set_parallel_threshold(prev_threshold);
}
