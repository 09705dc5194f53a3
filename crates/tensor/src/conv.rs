//! Convolution as matrix multiplication: the implicit-GEMM primitives the
//! layers call, and the explicit im2col / col2im lowering they are defined
//! against.
//!
//! A convolution with weight `(c_out, c_in, k, k)` over an input batch
//! `(N, C, H, W)` is the product of the unrolled `(c_out, c_in·k²)` weight
//! with the patch matrix `(c_in·k², N·H_out·W_out)` of the input — the
//! unrolling the paper uses to define conv-layer factorization
//! (`W_unrolled ∈ R^{c_in k² × c_out}`, paper §2.2). [`im2col`] writes that
//! patch matrix out and [`col2im`] is its adjoint; they are the reference
//! the rest of this module is tested against.
//!
//! [`conv2d_forward`], [`conv2d_grad_weight`] and [`conv2d_grad_input`]
//! never build the patch matrix. They hand the GEMM engine a
//! [`PanelSource`] that packs each micro-panel straight from the NCHW
//! activation — a panel row is an edge-clipped run of input pixels — and a
//! [`CLayout`] that stores C tiles straight into NCHW, so a
//! convolution reads its input once per KC×NC block and writes its output
//! once. Forward and weight gradient run the same ascending fused chain per
//! element as `matmul(W, im2col(x))` / `matmul_nt(dOut, im2col(x))` and are
//! bitwise equal to them; the input gradient is `col2im` applied block by
//! block to `Wᵀ · dOut` while the block is still cached, bitwise equal to
//! `col2im(matmul_tn(W, dOut))` (see [`conv2d_grad_input`]).
//!
//! A stride-1 or stride-2 layer with at most [`DIRECT_MAX_C_OUT`] output
//! channels ([`DIRECT_MAX_C_OUT_1X1`] for a 1×1 kernel) — Pufferfish's
//! factorized `U` and `V` convolutions above all — would amortise each
//! packed patch element over too few multiply–adds, so the three primitives
//! hand it to direct kernels that read the operands in place or from
//! per-image phase planes (`conv_direct.rs`: at stride 2 each padded image
//! is cut into its four `(row, column)`-parity planes, on which a tap is
//! again one contiguous load at a fixed offset). Those run the same chains
//! and produce the same bits; which path a layer takes is decided by its
//! geometry alone.
//!
//! The explicit lowerings fan out to the worker pool above a size threshold
//! ([`im2col`] over patch-matrix rows, [`col2im`] over `(image, channel)`
//! planes); every path here writes disjoint output regions in a fixed
//! per-element order, so results are bitwise identical for every thread
//! count.

// Scratch comes from the workspace arena, never from `vec![x; n]` or
// `Vec::with_capacity` (crates/tensor/clippy.toml, DESIGN.md §8).
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use crate::gemm::{self, copy_run, CLayout, Isa, PanelSource, SendPtr, View, NR};
use crate::matmul::{kernel_span, parallel_under_default};
use crate::{conv_direct, pool, workspace, Result, Tensor, TensorError};
use puffer_probe as probe;

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Input channels.
    pub c_in: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Square kernel size.
    pub k: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl ConvGeometry {
    /// Output spatial height.
    pub fn h_out(&self) -> usize {
        (self.h + 2 * self.padding - self.k) / self.stride + 1
    }

    /// Output spatial width.
    pub fn w_out(&self) -> usize {
        (self.w + 2 * self.padding - self.k) / self.stride + 1
    }

    /// Rows of the patch matrix: `c_in · k²`.
    pub fn patch_rows(&self) -> usize {
        self.c_in * self.k * self.k
    }

    /// Validates that the kernel fits within the padded input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the kernel exceeds the
    /// padded input extent or the stride is zero.
    pub fn validate(&self) -> Result<()> {
        if self.stride == 0
            || self.h + 2 * self.padding < self.k
            || self.w + 2 * self.padding < self.k
        {
            return Err(TensorError::ShapeMismatch {
                expected: vec![self.k, self.k],
                got: vec![self.h + 2 * self.padding, self.w + 2 * self.padding],
                op: "conv_geometry",
            });
        }
        Ok(())
    }
}

/// Lowers an input batch `(N, C, H, W)` into a patch matrix of shape
/// `(C·k², N·H_out·W_out)`. Patch column order is `(n, y_out, x_out)`
/// row-major, matching [`col2im`].
///
/// # Errors
///
/// Returns [`TensorError::WrongDimensions`] for non-4-D input or
/// [`TensorError::ShapeMismatch`] if the input shape disagrees with `geo`.
pub fn im2col(input: &Tensor, geo: &ConvGeometry) -> Result<Tensor> {
    let n = batch_of(input, geo, "im2col")?;
    let (c, h, w) = (geo.c_in, geo.h, geo.w);
    let (ho, wo, k) = (geo.h_out(), geo.w_out(), geo.k);
    let rows = geo.patch_rows();
    let cols = n * ho * wo;
    let mut out = Tensor::zeros(&[rows, cols]);
    if rows == 0 || cols == 0 {
        return Ok(out);
    }
    let _sp = probe::span_with("tensor", "im2col", || {
        vec![("rows", rows.into()), ("cols", cols.into()), ("n", n.into())]
    });
    let src = input.as_slice();
    let pad = geo.padding as isize;
    let stride = geo.stride;

    // One patch-matrix row per (ci, ky, kx); each row is a contiguous,
    // disjoint slice of the output, so rows parallelize trivially.
    let fill_rows = |row0: usize, chunk: &mut [f32]| {
        for (ri, dst_row) in chunk.chunks_exact_mut(cols).enumerate() {
            let row = row0 + ri;
            let kx = row % k;
            let ky = (row / k) % k;
            let ci = row / (k * k);
            for ni in 0..n {
                let img_base = (ni * c + ci) * h * w;
                for oy in 0..ho {
                    let iy = (oy * stride) as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue; // zero padding, dst already 0
                    }
                    let src_row = &src[img_base + iy as usize * w..][..w];
                    let dst_run = &mut dst_row[(ni * ho + oy) * wo..][..wo];
                    if stride == 1 {
                        // ox and ix differ by a constant: one clipped copy.
                        let (lo, hi) = clip(0, wo, valid_cols(kx, pad, 1, w));
                        let ix = (lo + kx) as isize - pad;
                        if hi > lo {
                            dst_run[lo..hi].copy_from_slice(&src_row[ix as usize..][..hi - lo]);
                        }
                        continue;
                    }
                    for (ox, d) in dst_run.iter_mut().enumerate() {
                        let ix = (ox * stride) as isize + kx as isize - pad;
                        if ix >= 0 && ix < w as isize {
                            *d = src_row[ix as usize];
                        }
                    }
                }
            }
        }
    };
    if parallel_under_default(rows * cols) {
        pool::run_chunked(out.as_mut_slice(), cols, fill_rows);
    } else {
        fill_rows(0, out.as_mut_slice());
    }
    Ok(out)
}

/// Checks that `input` is the `(N, c_in, h, w)` batch `geo` describes and
/// returns `N`.
fn batch_of(input: &Tensor, geo: &ConvGeometry, op: &'static str) -> Result<usize> {
    if input.ndim() != 4 {
        return Err(TensorError::WrongDimensions { expected: 4, got: input.ndim(), op });
    }
    geo.validate()?;
    let shape = input.shape();
    if shape[1..] != [geo.c_in, geo.h, geo.w] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![shape[0], geo.c_in, geo.h, geo.w],
            got: shape.to_vec(),
            op,
        });
    }
    Ok(shape[0])
}

/// The output columns `ox` whose input column `ox·stride + kx − pad` falls
/// inside `0..w`, as an unclamped half-open range: a property of the kernel
/// column alone, so the panel sources divide once per `kx`, not per run.
#[inline]
fn valid_cols(kx: usize, pad: isize, stride: usize, w: usize) -> (isize, isize) {
    let (shift, s) = (kx as isize - pad, stride as isize);
    // ⌈a / s⌉ for either sign of a; stride 1, nearly every call, divides
    // nothing.
    let ceil_div = |a: isize| if s == 1 { a } else { (a + s - 1).div_euclid(s) };
    (ceil_div(-shift), ceil_div(w as isize - shift))
}

/// The positions `lo..hi` of a run of `len` output columns starting at
/// `ox0` that lie inside `cols` (from [`valid_cols`]).
#[inline]
fn clip(ox0: usize, len: usize, cols: (isize, isize)) -> (usize, usize) {
    let lo = (cols.0 - ox0 as isize).clamp(0, len as isize);
    let hi = (cols.1 - ox0 as isize).clamp(lo, len as isize);
    (lo as usize, hi as usize)
}

/// Adjoint of [`im2col`]: scatters a patch-matrix gradient
/// `(C·k², N·H_out·W_out)` back to an input-shaped gradient `(N, C, H, W)`.
/// Overlapping patches accumulate, which makes `col2im(im2col(·))` the
/// correct vector–Jacobian product for convolution backward.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not have the patch
/// shape implied by `geo` and `n`.
pub fn col2im(cols: &Tensor, geo: &ConvGeometry, n: usize) -> Result<Tensor> {
    geo.validate()?;
    let (ho, wo, k) = (geo.h_out(), geo.w_out(), geo.k);
    let rows = geo.patch_rows();
    let ncols = n * ho * wo;
    check_shape(cols, &[rows, ncols], "col2im")?;
    let (c, h, w) = (geo.c_in, geo.h, geo.w);
    let mut out = Tensor::zeros(&[n, c, h, w]);
    if out.is_empty() {
        return Ok(out);
    }
    let _sp = probe::span_with("tensor", "col2im", || {
        vec![("rows", rows.into()), ("cols", ncols.into()), ("n", n.into())]
    });
    // Each (image, channel) plane of the output accumulates only from the
    // k² patch rows of its own channel, so planes partition the scatter
    // without write conflicts.
    let plane_len = h * w;
    let fill_planes = |p0: usize, chunk: &mut [f32]| {
        for (idx, plane) in (p0..).zip(chunk.chunks_exact_mut(plane_len)) {
            scatter_plane(cols.as_slice(), ncols, (idx / c) * ho * wo, idx % c, geo, plane);
        }
    };
    if parallel_under_default(n * c * k * k * ho * wo) {
        pool::run_chunked(out.as_mut_slice(), plane_len, fill_planes);
    } else {
        fill_planes(0, out.as_mut_slice());
    }
    Ok(out)
}

/// Adds one image's share of a patch-matrix gradient into one `(image,
/// channel)` plane: the `k²` rows of channel `ci` of the row-major `cols`
/// (row stride `ld`), columns `col0..col0 + h_out·w_out`. The `(ky, kx, oy,
/// ox)` nesting is the accumulation order of every pixel — ascending
/// `(ky, kx)` — and is what [`col2im`] means bit for bit.
fn scatter_plane(
    cols: &[f32],
    ld: usize,
    col0: usize,
    ci: usize,
    geo: &ConvGeometry,
    plane: &mut [f32],
) {
    let (w, k, stride, pad) = (geo.w, geo.k, geo.stride, geo.padding as isize);
    let (ho, wo) = (geo.h_out(), geo.w_out());
    for ky in 0..k {
        for kx in 0..k {
            let src = &cols[((ci * k + ky) * k + kx) * ld + col0..][..ho * wo];
            let (lo, hi) = clip(0, wo, valid_cols(kx, pad, stride, w));
            if hi == lo {
                continue;
            }
            let ix = ((lo * stride + kx) as isize - pad) as usize;
            for (oy, src_run) in src.chunks_exact(wo).enumerate() {
                let iy = (oy * stride + ky) as isize - pad;
                if iy < 0 || iy >= geo.h as isize {
                    continue;
                }
                let dst = &mut plane[iy as usize * w + ix..(iy as usize + 1) * w];
                if stride == 1 {
                    for (d, s) in dst.iter_mut().zip(&src_run[lo..hi]) {
                        *d += s;
                    }
                } else {
                    for (d, s) in dst.iter_mut().step_by(stride).zip(&src_run[lo..hi]) {
                        *d += s;
                    }
                }
            }
        }
    }
}

/// The patch geometry the panel sources walk. A 1×1, stride-1, unpadded
/// patch row is the channel plane itself, so that case is re-read as one
/// `1 × h·w` row per plane: runs of positions are then cut at image ends
/// only, not at every image row.
#[derive(Clone, Copy)]
struct PatchGeo {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: isize,
    ho: usize,
    wo: usize,
}

impl PatchGeo {
    fn new(geo: &ConvGeometry) -> Self {
        let (mut h, mut w, mut ho, mut wo) = (geo.h, geo.w, geo.h_out(), geo.w_out());
        if geo.k == 1 && geo.stride == 1 && geo.padding == 0 {
            (h, w, ho, wo) = (1, h * w, 1, h * w);
        }
        PatchGeo {
            c: geo.c_in,
            h,
            w,
            k: geo.k,
            stride: geo.stride,
            pad: geo.padding as isize,
            ho,
            wo,
        }
    }

    /// Splits position `j` of the `(img, oy, ox)` row-major order.
    fn position(&self, j: usize) -> (usize, usize, usize) {
        let per_img = self.ho * self.wo;
        (j / per_img, (j % per_img) / self.wo, j % self.wo)
    }

    /// Calls `f(offset, len, img, oy, ox0)` for each maximal run of the
    /// positions `j0..j0+count` that stays inside one output row; `offset`
    /// counts from `j0`.
    fn for_each_run(
        &self,
        j0: usize,
        count: usize,
        mut f: impl FnMut(usize, usize, usize, usize, usize),
    ) {
        let (mut img, mut oy, mut ox) = self.position(j0);
        let mut done = 0;
        while done < count {
            let len = (self.wo - ox).min(count - done);
            f(done, len, img, oy, ox);
            done += len;
            ox = 0;
            oy += 1;
            if oy == self.ho {
                oy = 0;
                img += 1;
            }
        }
    }

    /// Offset in the activation of the input row that kernel row `ky` reads
    /// at output row `oy` of plane `(img, ci)`, or `None` in the padding.
    #[inline]
    fn row_start(&self, img: usize, ci: usize, oy: usize, ky: usize) -> Option<usize> {
        let iy = (oy * self.stride + ky) as isize - self.pad;
        (0..self.h as isize)
            .contains(&iy)
            .then(|| ((img * self.c + ci) * self.h + iy as usize) * self.w)
    }

    /// Input column that kernel column `kx` reads at output column `ox`.
    #[inline]
    fn col(&self, ox: usize, kx: usize) -> isize {
        (ox * self.stride + kx) as isize - self.pad
    }
}

/// The patch matrix of an NCHW activation as a GEMM operand that is never
/// written out: depth `p = (ci, ky, kx)`, lanes `j = (img, oy, ox)` — the
/// element [`im2col`] would store at `(p, j)`. A panel row is one
/// edge-clipped run of input pixels per output row the lanes touch.
struct Patches<'a> {
    x: &'a [f32],
    g: PatchGeo,
}

impl PanelSource for Patches<'_> {
    /// The lanes are cut into runs inside one output row; per run the loops
    /// go kernel column → kernel row → channel, so that edge clipping (a
    /// property of `kx`), row validity (of `ky`) and the source offset (one
    /// plane further per `ci`) are each worked out where they change, and
    /// the innermost loop is one fixed-length copy every `k²`-th panel row.
    fn pack_panel(
        &self,
        p0: usize,
        kc: usize,
        j0: usize,
        w: usize,
        r: usize,
        dst: &mut [f32],
        _isa: Isa,
    ) {
        let (g, kk) = (&self.g, self.g.k * self.g.k);
        if w < r {
            for row in dst.chunks_exact_mut(r) {
                row[w..].fill(0.0);
            }
        }
        // Depth rows p0..p0+kc cover channels ci_a..=ci_b, the first from
        // tap t_a on and the last up to tap t_b.
        let (ci_a, t_a) = (p0 / kk, p0 % kk);
        let (ci_b, t_b) = ((p0 + kc - 1) / kk, (p0 + kc - 1) % kk);
        g.for_each_run(j0, w, |q0, len, img, oy, ox0| {
            for kx in 0..g.k {
                let (lo, hi) = clip(ox0, len, valid_cols(kx, g.pad, g.stride, g.w));
                for ky in 0..g.k {
                    let t = ky * g.k + kx;
                    let (ci_lo, ci_hi) =
                        (ci_a + usize::from(t < t_a), ci_b + usize::from(t <= t_b));
                    if ci_lo >= ci_hi {
                        continue;
                    }
                    let mut at = (ci_lo * kk + t - p0) * r + q0;
                    let row = g.row_start(img, ci_lo, oy, ky).filter(|_| hi > lo);
                    let mut start = row.map(|row| row as isize + g.col(ox0, kx));
                    for _ in ci_lo..ci_hi {
                        let lanes = &mut dst[at..at + len];
                        match start {
                            Some(start) => self.gather(start, (lo, hi), lanes),
                            None => lanes.fill(0.0),
                        }
                        at += kk * r;
                        start = start.map(|start| start + (g.h * g.w) as isize);
                    }
                }
            }
        });
    }
}

impl Patches<'_> {
    /// Fills `lanes` — one run of output columns — from the activation:
    /// lane `t` reads `x[start + t·stride]`, lanes outside `lo..hi` are in
    /// the padding and get zeros.
    #[inline]
    fn gather(&self, start: isize, (lo, hi): (usize, usize), lanes: &mut [f32]) {
        let (len, stride) = (lanes.len(), self.g.stride);
        // Stride 1: copy the whole window — even where it hangs over the
        // row's ends into its neighbours — then zero the overhang: a
        // fixed-size move and, at an edge, one lane of fill, instead of a
        // variable-length copy on every edge row.
        let window = (stride == 1)
            .then(|| usize::try_from(start).ok())
            .flatten()
            .and_then(|start| self.x.get(start..start + len));
        if let Some(window) = window {
            copy_run(lanes, window);
        } else {
            let src = self.x[(start + (lo * stride) as isize) as usize..].iter();
            for (d, &v) in lanes[lo..hi].iter_mut().zip(src.step_by(stride)) {
                *d = v;
            }
        }
        match (lo, len - hi) {
            (0, 0) => {}
            (1, 0) => lanes[0] = 0.0,
            (0, 1) => lanes[len - 1] = 0.0,
            _ => {
                lanes[..lo].fill(0.0);
                lanes[hi..].fill(0.0);
            }
        }
    }
}

/// The transposed patch matrix: depth `p = (img, oy, ox)`, lanes
/// `j = (ci, ky, kx)`. With a 1×1 geometry this is an NCHW activation read
/// as its `N·H·W × C` matrix, which is how the weight gradient reads
/// `dOut`.
struct PatchesT<'a> {
    x: &'a [f32],
    g: PatchGeo,
}

impl PanelSource for PatchesT<'_> {
    fn pack_panel(
        &self,
        p0: usize,
        kc: usize,
        j0: usize,
        w: usize,
        r: usize,
        dst: &mut [f32],
        _isa: Isa,
    ) {
        let g = &self.g;
        assert!(w <= r && r <= NR);
        // Padding positions and lanes past `w` are never written below.
        dst.fill(0.0);
        // Per lane: its tap and the output columns the tap can read.
        let mut taps = [(0usize, 0usize, 0usize, (0isize, 0isize)); NR];
        for (q, tap) in taps.iter_mut().enumerate().take(w) {
            let j = j0 + q;
            let kx = j % g.k;
            *tap = (j / (g.k * g.k), (j / g.k) % g.k, kx, valid_cols(kx, g.pad, g.stride, g.w));
        }
        g.for_each_run(p0, kc, |pl, len, img, oy, ox0| {
            for (q, &(ci, ky, kx, cols)) in taps[..w].iter().enumerate() {
                let Some(row) = g.row_start(img, ci, oy, ky) else { continue };
                let (lo, hi) = clip(ox0, len, cols);
                if hi == lo {
                    continue;
                }
                let src = &self.x[row + g.col(ox0 + lo, kx) as usize..];
                let rows = dst[(pl + lo) * r..(pl + hi) * r].chunks_exact_mut(r);
                if g.stride == 1 {
                    for (d, &v) in rows.zip(src) {
                        d[q] = v;
                    }
                } else {
                    for (d, &v) in rows.zip(src.iter().step_by(g.stride)) {
                        d[q] = v;
                    }
                }
            }
        });
    }
}

fn check_shape(t: &Tensor, expected: &[usize], op: &'static str) -> Result<()> {
    if t.shape() != expected {
        return Err(TensorError::ShapeMismatch {
            expected: expected.to_vec(),
            got: t.shape().to_vec(),
            op,
        });
    }
    Ok(())
}

/// Whether a layer takes the direct kernels ([`conv_direct::applies`]);
/// counts the calls that do in `tensor.conv_direct_calls`, so a trace shows
/// which engine a model's convolutions ran on.
fn direct(geo: &ConvGeometry, c_out: usize) -> bool {
    let direct = conv_direct::applies(geo, c_out);
    if direct {
        probe::counter_add("tensor.conv_direct_calls", 1);
    }
    direct
}

/// `y = W ∗ x`: `x: (N, c_in, h, w)`, `weight: (c_out, c_in, k, k)` →
/// `(N, c_out, h_out, w_out)`.
///
/// One GEMM `W · patches(x)` whose B panels are packed from `x` and whose C
/// tiles are stored into NCHW; every output element is the fused chain over
/// ascending `(ci, ky, kx)` that `matmul(W, im2col(x))` computes, bit for
/// bit — as it is in the direct kernel a thin layer takes instead (module
/// docs).
///
/// # Errors
///
/// Returns [`TensorError::WrongDimensions`] / [`TensorError::ShapeMismatch`]
/// if `x` or `weight` disagree with `geo`.
pub fn conv2d_forward(x: &Tensor, weight: &Tensor, geo: &ConvGeometry) -> Result<Tensor> {
    let n = batch_of(x, geo, "conv2d_forward")?;
    let c_out = weight.shape().first().copied().unwrap_or(0);
    check_shape(weight, &[c_out, geo.c_in, geo.k, geo.k], "conv2d_forward")?;
    let (rows, hw) = (geo.patch_rows(), geo.h_out() * geo.w_out());
    let shape = [n, c_out, geo.h_out(), geo.w_out()];
    if shape.contains(&0) || rows == 0 {
        return Ok(Tensor::zeros(&shape));
    }
    // Both paths below store each element of `out`: the direct kernel's
    // tiles, the engine's product.
    let mut out = Tensor::unfilled(&shape);
    let _sp = kernel_span("conv2d_forward", c_out, rows, n * hw);
    let parallel = parallel_under_default(c_out * rows * n * hw);
    if direct(geo, c_out) {
        let (x, w) = (x.as_slice(), weight.as_slice());
        conv_direct::forward(x, w, out.as_mut_slice(), geo, n, c_out, parallel);
        return Ok(out);
    }
    gemm::gemm(
        &View::row_major(weight.as_slice(), rows).t(),
        &Patches { x: x.as_slice(), g: PatchGeo::new(geo) },
        out.as_mut_slice(),
        CLayout::nchw(c_out, hw),
        c_out,
        rows,
        n * hw,
        parallel,
    );
    Ok(out)
}

/// `dW = dOut ∗ x`: `x: (N, c_in, h, w)`, `dout: (N, c_out, h_out, w_out)`
/// → `(c_out, c_in, k, k)`.
///
/// One GEMM `dOut · patches(x)ᵀ` with both operands packed from NCHW — `x`
/// is the layer's *input*, so nothing patch-sized is kept between forward
/// and backward — and every element is the fused chain over ascending
/// `(img, oy, ox)` that `matmul_nt(dOut, im2col(x))` computes, bit for bit —
/// as it is in the direct kernel a thin layer takes instead.
///
/// # Errors
///
/// Returns [`TensorError::WrongDimensions`] / [`TensorError::ShapeMismatch`]
/// if `x` or `dout` disagree with `geo`.
pub fn conv2d_grad_weight(x: &Tensor, dout: &Tensor, geo: &ConvGeometry) -> Result<Tensor> {
    let n = batch_of(x, geo, "conv2d_grad_weight")?;
    let c_out = dout.shape().get(1).copied().unwrap_or(0);
    check_shape(dout, &[n, c_out, geo.h_out(), geo.w_out()], "conv2d_grad_weight")?;
    let (rows, hw) = (geo.patch_rows(), geo.h_out() * geo.w_out());
    let shape = [c_out, geo.c_in, geo.k, geo.k];
    if shape.contains(&0) || n == 0 {
        return Ok(Tensor::zeros(&shape));
    }
    // Both paths below store each element of `dw`: the direct kernel's
    // accumulators, the engine's product.
    let mut dw = Tensor::unfilled(&shape);
    let _sp = kernel_span("conv2d_grad_weight", c_out, n * hw, rows);
    let parallel = parallel_under_default(c_out * rows * n * hw);
    if direct(geo, c_out) {
        let (x, dout) = (x.as_slice(), dout.as_slice());
        conv_direct::grad_weight(x, dout, dw.as_mut_slice(), geo, n, c_out, parallel);
        return Ok(dw);
    }
    let dout_geo = ConvGeometry { c_in: c_out, h: 1, w: hw, k: 1, stride: 1, padding: 0 };
    gemm::gemm(
        &PatchesT { x: dout.as_slice(), g: PatchGeo::new(&dout_geo) },
        &PatchesT { x: x.as_slice(), g: PatchGeo::new(geo) },
        dw.as_mut_slice(),
        CLayout::row_major(rows),
        c_out,
        n * hw,
        rows,
        parallel,
    );
    Ok(dw)
}

/// Widest layer, in output channels, whose stride-1 or stride-2 `k × k`
/// (`k > 1`, `k > padding`) convolutions take the direct kernels instead of
/// the implicit GEMM (module docs). A constant of the build, not a setting:
/// results are the same bits on either path.
pub const DIRECT_MAX_C_OUT: usize = conv_direct::MAX_C_OUT;

/// [`DIRECT_MAX_C_OUT`] for 1×1 convolutions, stride 1 or 2.
pub const DIRECT_MAX_C_OUT_1X1: usize = conv_direct::MAX_C_OUT_1X1;

/// Elements of `Wᵀ · dOut` one step of [`conv2d_grad_input`] holds (1 MiB):
/// half an L2, so the block is still cached when it is scattered.
pub const SCATTER_BLOCK: usize = 1 << 18;

/// `dX = Wᵀ ∗ dOut`: `weight: (c_out, c_in, k, k)`,
/// `dout: (N, c_out, h_out, w_out)` → `(N, c_in, h, w)`.
///
/// A group of whole images at a time (as many as fit [`SCATTER_BLOCK`], at
/// least one), `Wᵀ · dOut_group` is computed
/// into cache-resident scratch — B panels packed straight from `dOut` — and
/// scattered into those images' planes at once, in [`col2im`]'s order: each
/// patch-matrix element is the fused chain over ascending `co` that
/// `matmul_tn(W, dOut)` computes, and each input pixel adds its elements in
/// ascending `(ky, kx)`. The result is bitwise equal to
/// `col2im(matmul_tn(W, dOut))`, whatever the grouping. Threads split the
/// images, each running its groups start to finish, so a call is one pool
/// dispatch. A thin layer takes a direct kernel instead, which gathers each
/// pixel's taps in that same two-level order without writing `Wᵀ · dOut` at
/// all.
///
/// # Errors
///
/// Returns [`TensorError::WrongDimensions`] / [`TensorError::ShapeMismatch`]
/// if `weight` or `dout` disagree with `geo`.
pub fn conv2d_grad_input(weight: &Tensor, dout: &Tensor, geo: &ConvGeometry) -> Result<Tensor> {
    geo.validate()?;
    let c_out = weight.shape().first().copied().unwrap_or(0);
    check_shape(weight, &[c_out, geo.c_in, geo.k, geo.k], "conv2d_grad_input")?;
    let n = dout.shape().first().copied().unwrap_or(0);
    check_shape(dout, &[n, c_out, geo.h_out(), geo.w_out()], "conv2d_grad_input")?;
    let (c_in, rows) = (geo.c_in, geo.patch_rows());
    let (hw_in, hw_out) = (geo.h * geo.w, geo.h_out() * geo.w_out());
    let shape = [n, c_in, geo.h, geo.w];
    if shape.contains(&0) || c_out == 0 {
        return Ok(Tensor::zeros(&shape));
    }

    let _sp = kernel_span("conv2d_grad_input", rows, c_out, n * hw_out);
    let parallel = parallel_under_default(c_out * rows * n * hw_out);
    if direct(geo, c_out) {
        // The direct kernel stores every element of `dx`.
        let mut dx = Tensor::unfilled(&shape);
        let (w, dout) = (weight.as_slice(), dout.as_slice());
        conv_direct::grad_input(w, dout, dx.as_mut_slice(), geo, n, c_out, parallel);
        return Ok(dx);
    }
    // The scatter adds into `dx`.
    let mut dx = Tensor::zeros(&shape);
    let group = (SCATTER_BLOCK / (rows * hw_out)).clamp(1, n);
    let parts = if parallel { pool::num_threads().min(n) } else { 1 };
    // Per part: one group's Wᵀ·dOut and the block scratch of its GEMM, all
    // taken on this thread (see `gemm::gemm` for why) and unfilled: the
    // engine stores every element of the one and packs over the other.
    let (cols_len, gemm_len) =
        (rows * group * hw_out, gemm::scratch_len(rows, c_out, group * hw_out));
    let mut scratch = workspace::take_unfilled(parts * (cols_len + gemm_len));
    let (w, dy) = (weight.as_slice(), dout.as_slice());
    let dy_geo = ConvGeometry { c_in: c_out, h: 1, w: hw_out, k: 1, stride: 1, padding: 0 };
    let planes = SendPtr(dx.as_mut_slice().as_mut_ptr());
    pool::run_chunked(&mut scratch, cols_len + gemm_len, |first, chunk| {
        // Capture the whole SendPtr, not its raw-pointer field.
        let planes = &planes;
        for (part, scratch) in (first..).zip(chunk.chunks_exact_mut(cols_len + gemm_len)) {
            let (cols, blocks) = scratch.split_at_mut(cols_len);
            let imgs = pool::chunk_range(n, parts, part);
            // SAFETY: `chunk_range` gives distinct parts disjoint image
            // ranges inside `0..n`, so this slice of `dx` is in bounds and
            // no other part touches it; `run_chunked` joins every part
            // before `dx` is used again.
            let planes = unsafe {
                std::slice::from_raw_parts_mut(
                    planes.0.add(imgs.start * c_in * hw_in),
                    imgs.len() * c_in * hw_in,
                )
            };
            for (gi, planes) in planes.chunks_mut(group * c_in * hw_in).enumerate() {
                let ncols = planes.len() / (c_in * hw_in) * hw_out;
                let cols = &mut cols[..rows * ncols];
                let dy = &dy[(imgs.start + gi * group) * c_out * hw_out..][..c_out * ncols];
                gemm::gemm_in(
                    &View::row_major(w, rows),
                    &Patches { x: dy, g: PatchGeo::new(&dy_geo) },
                    cols,
                    CLayout::row_major(ncols),
                    rows,
                    c_out,
                    ncols,
                    blocks,
                );
                for (idx, plane) in planes.chunks_exact_mut(hw_in).enumerate() {
                    scatter_plane(cols, ncols, (idx / c_in) * hw_out, idx % c_in, geo, plane);
                }
            }
        }
    });
    Ok(dx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo(c: usize, h: usize, w: usize, k: usize, stride: usize, padding: usize) -> ConvGeometry {
        ConvGeometry { c_in: c, h, w, k, stride, padding }
    }

    #[test]
    fn output_dims() {
        let g = geo(3, 32, 32, 3, 1, 1);
        assert_eq!((g.h_out(), g.w_out()), (32, 32));
        let g = geo(3, 32, 32, 3, 2, 1);
        assert_eq!((g.h_out(), g.w_out()), (16, 16));
        let g = geo(3, 224, 224, 7, 2, 3);
        assert_eq!((g.h_out(), g.w_out()), (112, 112));
    }

    #[test]
    fn im2col_shapes() {
        let g = geo(2, 4, 4, 3, 1, 1);
        let x = Tensor::randn(&[3, 2, 4, 4], 1.0, 1);
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.shape(), &[2 * 9, 3 * 4 * 4]);
    }

    #[test]
    fn identity_kernel_1x1() {
        // 1x1 patches with stride 1 and no padding are just a reshape.
        let g = geo(2, 3, 3, 1, 1, 0);
        let x = Tensor::from_vec((0..18).map(|v| v as f32).collect(), &[1, 2, 3, 3]).unwrap();
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.shape(), &[2, 9]);
        assert_eq!(cols.as_slice(), x.as_slice());
    }

    #[test]
    fn known_3x3_patch() {
        // Single 3x3 image, 3x3 kernel, no padding: one patch = the image.
        let g = geo(1, 3, 3, 3, 1, 0);
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.shape(), &[9, 1]);
        assert_eq!(cols.as_slice(), x.as_slice());
    }

    #[test]
    fn padding_zeros_at_border() {
        let g = geo(1, 2, 2, 3, 1, 1);
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let cols = im2col(&x, &g).unwrap();
        // Top-left output position: kernel offset (0,0) reads padded zero.
        assert_eq!(cols.at2(0, 0), 0.0);
        // Center kernel offset (1,1) at output (0,0) reads pixel (0,0) = 1.
        assert_eq!(cols.at2(4, 0), 1.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint and what conv backward relies on.
        let g = geo(3, 6, 5, 3, 2, 1);
        let n = 2;
        let x = Tensor::randn(&[n, 3, 6, 5], 1.0, 2);
        let cols = im2col(&x, &g).unwrap();
        let y = Tensor::randn(cols.shape(), 1.0, 3);
        let xty = cols.dot(&y).unwrap();
        let back = col2im(&y, &g, n).unwrap();
        let xback = x.dot(&back).unwrap();
        assert!((xty - xback).abs() < 1e-2 * xty.abs().max(1.0), "{xty} vs {xback}");
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // 2x3 image, k=2, stride=1, no padding: the middle column of pixels
        // is covered by both horizontal patch positions.
        let g = geo(1, 2, 3, 2, 1, 0);
        assert_eq!((g.h_out(), g.w_out(), g.patch_rows()), (1, 2, 4));
        let ones = Tensor::ones(&[4, 2]);
        let img = col2im(&ones, &g, 1).unwrap();
        assert_eq!(img.as_slice(), &[1.0, 2.0, 1.0, 1.0, 2.0, 1.0]);
    }

    #[test]
    fn geometry_validation() {
        assert!(geo(1, 2, 2, 5, 1, 0).validate().is_err());
        assert!(geo(1, 2, 2, 5, 1, 2).validate().is_ok());
        assert!(geo(1, 4, 4, 3, 0, 1).validate().is_err());
    }

    #[test]
    fn shape_errors() {
        let g = geo(3, 8, 8, 3, 1, 1);
        let wrong = Tensor::zeros(&[1, 2, 8, 8]);
        assert!(im2col(&wrong, &g).is_err());
        let not4d = Tensor::zeros(&[3, 8, 8]);
        assert!(im2col(&not4d, &g).is_err());
        let badcols = Tensor::zeros(&[5, 5]);
        assert!(col2im(&badcols, &g, 1).is_err());
    }
}
