//! Scaled dot-product attention's per-head core, for every `(batch, head)`
//! of a multi-head layer whose projections have already run: the scores,
//! the row softmax and the weighted sum of [`forward`], and the five
//! products of [`backward`].
//!
//! Heads are column blocks of row-major `[B·T, d_model]` operands: head `h`
//! of position `t` is `x[t·d_model + h·dh ..][..dh]`, `dh = d_model / heads`.
//! The softmax weights are `[B, heads, Tq, Tk]`.
//!
//! # Same bits
//!
//! These kernels vectorize across *elements* and keep every element's
//! operations in the order of the scalar loops the layer used to run, so
//! their results equal those loops' bit for bit, and the AVX2 forms equal
//! their scalar twins ([`crate::gemm::set_simd_enabled`] picks one):
//!
//! * **Dot products** (`S = Q·Kᵀ`, `dA = dZ·Vᵀ`): one chain per `(i, j)`
//!   from `+0.0` over ascending `d`, a rounded multiply and then a rounded
//!   add. The GEMM engine fuses the two (one rounding), which is a different
//!   result; it would also spend more on a call than a 12×12×8 head costs.
//!   Lanes are keys `j`: the engine's packer ([`View::pack_panel`], which
//!   only copies) lays the head's K (V for `dA`) out once per head as panels
//!   of [`NR`] keys, and query rows are tiled so each load of a panel serves
//!   several chains. Pad lanes are computed and never read. A score leaves
//!   the kernel times `1/√dh`, the loops' `s *= scale`, lanewise.
//! * **Softmax**: the max scan and the `exp`/sum pass run scalar in
//!   ascending `j`, and the division by the sum covers the whole row. A
//!   masked score is `−∞`: it never raises the max, so the scan ends at the
//!   last live key, and its `exp(−∞ − max)` is `+0.0`, which adds nothing to
//!   a sum that started at `+0.0` — so a masked weight is `+0.0` without an
//!   `exp`. That holds for every max above `−∞`; a max at `−∞` needs every
//!   live score to be `−∞` or NaN, the sum is then NaN, and the masked
//!   `+0.0` divides to NaN just as the loops' NaN did.
//! * **Weighted sums** (`Z = A·V`, `dQ = dS·K`, `dV = Aᵀ·dZ`, `dK = dSᵀ·Q`):
//!   one chain per output element from `+0.0`, ascending over the summed
//!   index, skipping zero weights as the loops did (so a zero weight never
//!   meets an infinite operand). Lanes are `d`. The loops accumulated `dV`
//!   and `dK` in place over query rows; walking keys outer and queries inner
//!   keeps each element's chain in a register and stores it once.
//! * The softmax backward's row dot stays the iterator sum it was.
//!
//! Every output element is stored exactly once, so outputs come unfilled
//! from the arena. Nothing fans out to the pool: a head is far below what a
//! dispatch amortizes, and the layers that call this run between GEMMs that
//! already decide for themselves.

// Scratch comes from the workspace arena, never from `vec![x; n]` or
// `Vec::with_capacity` (crates/tensor/clippy.toml, DESIGN.md §8).
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use crate::gemm::{self, Isa, PanelSource, View, NR};
use crate::workspace;
use crate::Tensor;
use puffer_probe as probe;

/// f32 lanes of one vector.
const LANES: usize = 8;

/// Output rows of one register tile (query rows of a score tile, rows of a
/// weighted sum).
const ROWS: usize = 4;

/// The batch and head layout of one attention call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heads {
    /// Sequences in the batch.
    pub batch: usize,
    /// Heads per position; `d_model` must be a multiple.
    pub heads: usize,
    /// Query positions per sequence.
    pub tq: usize,
    /// Key / value positions per sequence.
    pub tk: usize,
}

/// Everything a head's kernels need to know about the layout.
#[derive(Clone, Copy)]
struct Geo {
    dm: usize,
    dh: usize,
    tq: usize,
    tk: usize,
    /// `tk` rounded up to whole key panels ([`NR`] lanes): the row pitch of
    /// score scratch.
    tkp: usize,
}

impl Geo {
    /// Offset of head `h`'s first element of sequence `bi` in an operand of
    /// `t` positions per sequence.
    fn at(&self, bi: usize, h: usize, t: usize) -> usize {
        bi * t * self.dm + h * self.dh
    }
}

impl Heads {
    /// Checks the operands against the layout; returns the head geometry.
    fn geo(&self, q: &Tensor, k: &Tensor, v: &Tensor) -> Geo {
        let Heads { batch, heads, tq, tk } = *self;
        assert_eq!(q.ndim(), 2, "attention: Q must be [B·Tq, d_model]");
        let dm = q.shape()[1];
        assert!(heads > 0 && dm.is_multiple_of(heads), "attention: {heads} heads, d_model {dm}");
        assert_eq!(q.shape(), &[batch * tq, dm], "attention: Q shape");
        assert_eq!(k.shape(), &[batch * tk, dm], "attention: K shape");
        assert_eq!(v.shape(), &[batch * tk, dm], "attention: V shape");
        Geo { dm, dh: dm / heads, tq, tk, tkp: tk.next_multiple_of(NR) }
    }

    /// Opens a probe span over a kernel of `products` head products and
    /// counts their multiply–adds with the GEMMs'.
    fn span(&self, name: &'static str, dh: usize, products: usize) -> probe::SpanGuard {
        if !probe::enabled() {
            return probe::span(Q, name); // disabled fast path: returns an empty guard
        }
        let Heads { batch, heads, tq, tk } = *self;
        probe::counter_add("tensor.macs", (products * batch * heads * tq * tk * dh) as u64);
        probe::span_with(Q, name, || {
            vec![
                ("heads", (batch * heads).into()),
                ("tq", tq.into()),
                ("tk", tk.into()),
                ("dh", dh.into()),
            ]
        })
    }
}

/// Probe category of the kernels, shared with the GEMMs.
const Q: &str = "tensor";

/// `softmax(Q·Kᵀ / √dh)` per head, and `Z = A·V`: returns the weights
/// `[B, heads, Tq, Tk]` and `Z` `[B·Tq, d_model]`. `causal` masks key
/// `j > i` of query `i` and needs `tq == tk`.
///
/// # Panics
///
/// Panics if the operands do not match `shape` or a causal call is not
/// square.
pub fn forward(q: &Tensor, k: &Tensor, v: &Tensor, shape: Heads, causal: bool) -> (Tensor, Tensor) {
    let g = shape.geo(q, k, v);
    assert!(!causal || g.tq == g.tk, "attention: the causal mask needs tq == tk");
    let _sp = shape.span("attention_fwd", g.dh, 2);
    let (tq, tk) = (g.tq, g.tk);
    let scale = 1.0 / (g.dh as f32).sqrt();
    let mut attn = Tensor::unfilled(&[shape.batch, shape.heads, tq, tk]);
    let mut z = Tensor::unfilled(&[shape.batch * tq, g.dm]);
    let avx = gemm::simd_enabled();
    let mut scratch = workspace::take_unfilled(g.dh * g.tkp + tq * g.tkp);
    let (yt, s) = scratch.split_at_mut(g.dh * g.tkp);
    let (qs, ks, vs) = (q.as_slice(), k.as_slice(), v.as_slice());
    let (attn_s, zs) = (attn.as_mut_slice(), z.as_mut_slice());
    for bi in 0..shape.batch {
        for h in 0..shape.heads {
            let (qa, ka) = (g.at(bi, h, tq), g.at(bi, h, tk));
            dots(avx, &g, &qs[qa..], &ks[ka..], scale, yt, s);
            let a = &mut attn_s[(bi * shape.heads + h) * tq * tk..][..tq * tk];
            for i in 0..tq {
                let live = if causal { i + 1 } else { tk };
                softmax_row(&s[i * g.tkp..][..tk], &mut a[i * tk..][..tk], live);
            }
            weighted_sum(avx, &g, a, (tk, 1), tq, tk, &vs[ka..], &mut zs[qa..]);
        }
    }
    (attn, z)
}

/// The gradients of [`forward`]'s `Z` with respect to Q, K and V, from
/// `dZ` `[B·Tq, d_model]` and the weights [`forward`] returned. Returns
/// `(dQ, dK, dV)`.
///
/// # Panics
///
/// Panics if the operands do not match `shape`.
pub fn backward(
    dz: &Tensor,
    weights: &Tensor,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    shape: Heads,
) -> (Tensor, Tensor, Tensor) {
    let g = shape.geo(q, k, v);
    assert_eq!(dz.shape(), q.shape(), "attention: dZ shape");
    assert_eq!(
        weights.shape(),
        &[shape.batch, shape.heads, g.tq, g.tk],
        "attention: weights shape"
    );
    let _sp = shape.span("attention_bwd", g.dh, 4);
    let (tq, tk) = (g.tq, g.tk);
    let scale = 1.0 / (g.dh as f32).sqrt();
    let mut dq = Tensor::unfilled(q.shape());
    let mut dk = Tensor::unfilled(k.shape());
    let mut dv = Tensor::unfilled(v.shape());
    let avx = gemm::simd_enabled();
    let mut scratch = workspace::take_unfilled(g.dh * g.tkp + tq * g.tkp);
    let (yt, ds) = scratch.split_at_mut(g.dh * g.tkp);
    let (dzs, attn_s) = (dz.as_slice(), weights.as_slice());
    let (qs, ks, vs) = (q.as_slice(), k.as_slice(), v.as_slice());
    let (dqs, dks, dvs) = (dq.as_mut_slice(), dk.as_mut_slice(), dv.as_mut_slice());
    for bi in 0..shape.batch {
        for h in 0..shape.heads {
            let (qa, ka) = (g.at(bi, h, tq), g.at(bi, h, tk));
            let a = &attn_s[(bi * shape.heads + h) * tq * tk..][..tq * tk];
            // dA_ij = <dZ_i, V_j>; dV_j = Σ_i a_ij dZ_i
            dots(avx, &g, &dzs[qa..], &vs[ka..], 1.0, yt, ds);
            weighted_sum(avx, &g, a, (1, tk), tk, tq, &dzs[qa..], &mut dvs[ka..]);
            // Softmax backward: dS_ij = a_ij (dA_ij − Σ_l a_il dA_il) / √dh
            for i in 0..tq {
                let (arow, da) = (&a[i * tk..][..tk], &mut ds[i * g.tkp..][..tk]);
                let dot: f32 = arow.iter().zip(da.iter()).map(|(a, daj)| a * daj).sum();
                for (daj, &a) in da.iter_mut().zip(arow) {
                    *daj = a * (*daj - dot) * scale;
                }
            }
            // dQ_i = Σ_j dS_ij K_j ; dK_j = Σ_i dS_ij Q_i
            weighted_sum(avx, &g, ds, (g.tkp, 1), tq, tk, &ks[ka..], &mut dqs[qa..]);
            weighted_sum(avx, &g, ds, (1, g.tkp), tk, tq, &qs[qa..], &mut dks[ka..]);
        }
    }
    (dq, dk, dv)
}

/// Masks and normalizes one row of scaled scores into softmax weights.
/// Keys from `live` on are masked; `live ≥ 1` unless the row is empty.
fn softmax_row(scores: &[f32], row: &mut [f32], live: usize) {
    let (scores, (live_w, masked_w)) = (&scores[..live], row.split_at_mut(live));
    let max = scores.iter().fold(f32::NEG_INFINITY, |max, &s| max.max(s));
    let mut zsum = 0.0;
    for (w, &s) in live_w.iter_mut().zip(scores) {
        let e = (s - max).exp();
        *w = e;
        zsum += e;
    }
    // A masked score is −∞, and exp(−∞ − max) is +0.0 for any max above −∞,
    // which adds nothing to zsum. A max at −∞ means every live score is −∞
    // or NaN: zsum is NaN, and +0.0 divides to NaN as the NaN exp would.
    masked_w.fill(0.0);
    for w in row.iter_mut() {
        *w /= zsum;
    }
}

/// Floats a head operand starting at its first element must hold for
/// `rows` positions.
fn head_len(g: &Geo, rows: usize) -> usize {
    if rows == 0 {
        0
    } else {
        (rows - 1) * g.dm + g.dh
    }
}

/// `out[i·tkp + j] = (Σ_d x_i[d]·y_j[d])·scale` for query rows `i < tq` and
/// keys `j < tk`, where `x_i = x[i·dm..][..dh]` and `y_j = y[j·dm..][..dh]`:
/// one chain per element from `+0.0`, ascending `d`, multiply then add, the
/// chain's value then scaled (`1.0` leaves it as it is). `yt` is scratch
/// for `y` with keys as lanes.
fn dots(avx: bool, g: &Geo, x: &[f32], y: &[f32], scale: f32, yt: &mut [f32], out: &mut [f32]) {
    let (dm, dh, tq, tk, tkp) = (g.dm, g.dh, g.tq, g.tk, g.tkp);
    assert!(x.len() >= head_len(g, tq) && y.len() >= head_len(g, tk), "attention: head operand");
    assert!(yt.len() >= dh * tkp && out.len() >= tq * tkp, "attention: dot scratch");
    #[cfg(target_arch = "x86_64")]
    if avx {
        // Keys become lanes, NR to a panel, by the GEMM engine's packer:
        // yt[(p·dh + d)·NR + q] = y_{p·NR + q}[d], zeros past tk.
        let view = View { data: y, rs: 1, cs: dm };
        for (p, panel) in yt.chunks_exact_mut(dh * NR).take(tkp / NR).enumerate() {
            view.pack_panel(0, dh, p * NR, (tk - p * NR).min(NR), NR, panel, Isa::current());
        }
        let mut i = 0;
        while i < tq {
            let rows = (tq - i).min(ROWS);
            // SAFETY: `avx` is `gemm::simd_enabled()`, true only after
            // `simd_supported()` detected AVX2 and FMA on this CPU; rows
            // `i .. i + rows <= tq` of `x` hold `dh` floats each at
            // pitch `dm`, `yt` holds `tkp / NR` panels of `dh` rows of NR
            // and `out` `tq` rows of `tkp`, all asserted above.
            unsafe {
                let (x, yt) = (x.as_ptr().add(i * dm), yt.as_ptr());
                let out = out.as_mut_ptr().add(i * tkp);
                match rows {
                    4 => avx::dots_tile::<4>(x, dm, dh, yt, tkp, scale, out),
                    3 => avx::dots_tile::<3>(x, dm, dh, yt, tkp, scale, out),
                    2 => avx::dots_tile::<2>(x, dm, dh, yt, tkp, scale, out),
                    _ => avx::dots_tile::<1>(x, dm, dh, yt, tkp, scale, out),
                }
            }
            i += rows;
        }
        return;
    }
    let _ = (avx, yt);
    for i in 0..tq {
        let xrow = &x[i * dm..][..dh];
        for (j, o) in out[i * tkp..][..tk].iter_mut().enumerate() {
            let mut s = 0.0;
            for (a, b) in xrow.iter().zip(&y[j * dm..][..dh]) {
                s += a * b;
            }
            *o = s * scale;
        }
    }
}

/// `out_r = Σ_c w(r, c)·m_c` for `r < n_out` over ascending `c < n_in`,
/// skipping zero weights, where `w(r, c) = w[r·rs + c·cs]`,
/// `m_c = m[c·dm..][..dh]` and `out_r = out[r·dm..][..dh]`: one chain per
/// element from `+0.0`, multiply then add, stored once.
#[allow(clippy::too_many_arguments)]
fn weighted_sum(
    avx: bool,
    g: &Geo,
    w: &[f32],
    (rs, cs): (usize, usize),
    n_out: usize,
    n_in: usize,
    m: &[f32],
    out: &mut [f32],
) {
    let (dm, dh) = (g.dm, g.dh);
    assert!(m.len() >= head_len(g, n_in) && out.len() >= head_len(g, n_out), "attention: rows");
    let last = |n: usize, s: usize| n.saturating_sub(1) * s;
    assert!(n_out * n_in == 0 || last(n_out, rs) + last(n_in, cs) < w.len(), "attention: w");
    let mut d0 = 0;
    #[cfg(target_arch = "x86_64")]
    if avx {
        while d0 + LANES <= dh {
            let mut r = 0;
            while r < n_out {
                let rows = (n_out - r).min(ROWS);
                // SAFETY: `avx` is `gemm::simd_enabled()`, true only after
                // `simd_supported()` detected AVX2 and FMA on this CPU; lanes
                // `d0 .. d0 + LANES <= dh` of rows
                // `c < n_in` of `m` and rows `r .. r + rows <= n_out` of
                // `out`, and every weight index of those rows, are in bounds
                // as asserted above.
                unsafe {
                    let (w, m) = (w.as_ptr().add(r * rs), m.as_ptr().add(d0));
                    let out = out.as_mut_ptr().add(r * dm + d0);
                    match rows {
                        4 => avx::weighted_tile::<4>(w, rs, cs, n_in, m, dm, out),
                        3 => avx::weighted_tile::<3>(w, rs, cs, n_in, m, dm, out),
                        2 => avx::weighted_tile::<2>(w, rs, cs, n_in, m, dm, out),
                        _ => avx::weighted_tile::<1>(w, rs, cs, n_in, m, dm, out),
                    }
                }
                r += rows;
            }
            d0 += LANES;
        }
    }
    let _ = avx;
    if d0 == dh {
        return;
    }
    for r in 0..n_out {
        let orow = &mut out[r * dm + d0..r * dm + dh];
        orow.fill(0.0);
        for c in 0..n_in {
            let a = w[r * rs + c * cs];
            if a == 0.0 {
                continue;
            }
            for (o, mv) in orow.iter_mut().zip(&m[c * dm + d0..c * dm + dh]) {
                *o += a * mv;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx {
    //! The AVX2 forms of the two tile kernels. Reachable only through the
    //! safe wrappers in the parent module, which take them only when
    //! `gemm::simd_enabled()` is true (runtime detection found AVX2 and FMA)
    //! and assert every bound these rely on. Multiplies and adds stay
    //! separate instructions: `fma` is not enabled here, so nothing can
    //! contract them.

    use super::{LANES, NR};
    use core::arch::x86_64::{
        _mm256_add_ps, _mm256_broadcast_ss, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_storeu_ps,
    };

    /// `R` query rows × all key panels: `acc ← acc + x·yt` over ascending
    /// `d` from `+0.0`, stored times `scale`.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `x + r·dm + d` must be readable for `r < R`, `d < dh`;
    /// `yt` must hold `tkp / NR` panels of `dh` rows of [`NR`] floats and
    /// `out` `R` rows of `tkp`; `tkp` must be a multiple of [`NR`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn dots_tile<const R: usize>(
        x: *const f32,
        dm: usize,
        dh: usize,
        yt: *const f32,
        tkp: usize,
        scale: f32,
        out: *mut f32,
    ) {
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee.
        unsafe {
            let scale = _mm256_set1_ps(scale);
            for p in 0..tkp / NR {
                let panel = yt.add(p * dh * NR);
                let mut acc = [[_mm256_setzero_ps(); 2]; R];
                for d in 0..dh {
                    let y0 = _mm256_loadu_ps(panel.add(d * NR));
                    let y1 = _mm256_loadu_ps(panel.add(d * NR + LANES));
                    for (r, acc) in acc.iter_mut().enumerate() {
                        let xv = _mm256_broadcast_ss(&*x.add(r * dm + d));
                        acc[0] = _mm256_add_ps(acc[0], _mm256_mul_ps(xv, y0));
                        acc[1] = _mm256_add_ps(acc[1], _mm256_mul_ps(xv, y1));
                    }
                }
                for (r, acc) in acc.iter().enumerate() {
                    let row = out.add(r * tkp + p * NR);
                    _mm256_storeu_ps(row, _mm256_mul_ps(acc[0], scale));
                    _mm256_storeu_ps(row.add(LANES), _mm256_mul_ps(acc[1], scale));
                }
            }
        }
    }

    /// `R` output rows × one vector of `d`: `acc ← acc + w·m_c` over
    /// ascending `c < n_in` from `+0.0`, skipping zero weights.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `w + r·rs + c·cs` must be readable for `r < R`,
    /// `c < n_in`; `m + c·dm` for [`LANES`] floats for `c < n_in`, and
    /// `out + r·dm` writable for [`LANES`] floats for `r < R`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn weighted_tile<const R: usize>(
        w: *const f32,
        rs: usize,
        cs: usize,
        n_in: usize,
        m: *const f32,
        dm: usize,
        out: *mut f32,
    ) {
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee.
        unsafe {
            let mut acc = [_mm256_setzero_ps(); R];
            for c in 0..n_in {
                let mv = _mm256_loadu_ps(m.add(c * dm));
                for (r, acc) in acc.iter_mut().enumerate() {
                    let a = *w.add(r * rs + c * cs);
                    if a != 0.0 {
                        *acc = _mm256_add_ps(*acc, _mm256_mul_ps(_mm256_set1_ps(a), mv));
                    }
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                _mm256_storeu_ps(out.add(r * dm), *acc);
            }
        }
    }
}
