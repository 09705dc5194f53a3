//! Direct convolution for thin stride-1 layers: the three primitives of
//! [`crate::conv`] computed from the operands where they lie, without a
//! packed patch panel.
//!
//! The implicit-GEMM lowering packs a `c_in·k² × N·H·W` panel of patches and
//! spreads that cost over `c_out` rows of output. Pufferfish's factorized `U`
//! convolution has `c_out = r = c/4` (4 … 32), so there the packing, not the
//! arithmetic, sets the time. The kernels here need no panel: one image's
//! operand is copied once into **zero-bordered planes**, and on that padded
//! pitch every tap of every output pixel is a fixed offset away —
//!
//! ```text
//!   padded plane, pitch wp = cols + k − 1        result plane, rows × cols
//!   ┌──────────────────────────┐
//!   │ 0  0  0  0  0  0  0  0  0│   run i = LANES result pixels of one row:
//!   │ 0  ·  ·  ·  ·  ·  ·  ·  0│     src = row·wp + c0   (in the padded plane)
//!   │ 0  ·  [src … src+7]  ·  0│     dst = row·cols + c0 (in the result)
//!   │ 0  ·  ·  ·  ·  ·  ·  ·  0│   tap (ky, kx) of all eight pixels is the
//!   │ 0  0  0  0  0  0  0  0  0│   contiguous load at src + ky·wp + kx
//!   └──────────────────────────┘   (+ channel · pitch)
//! ```
//!
//! — so the "offset table" of a tap is three loop counters, and the zeros in
//! the border are the zeros the packed panel holds: the kernels multiply by
//! them exactly as the engine does, which keeps equality total (non-finite
//! operands included). A run that hangs over the end of its row reads the
//! border and the next row; those lanes are computed and never stored.
//!
//! # Same bits
//!
//! * **Forward** and **weight gradient** are the engine's chains: one
//!   accumulator per element from `+0.0`, `acc ← fma(a, b, acc)`, ascending
//!   `(ci, ky, kx)` resp. `(img, oy, ox)`. The weight gradient's chain runs
//!   over pixels, so its lanes are *output channels* (`dOut` is transposed
//!   once per image to `[pixel][c_out↑8]`, `x` is broadcast from the padded
//!   planes) and its accumulators are stored and reloaded between images —
//!   the same bits.
//! * **Input gradient** is a *two-level* sum, because that is what
//!   `col2im(matmul_tn(W, dOut))` is: per tap a fused chain over ascending
//!   `co` from `+0.0` (one element of `Wᵀ·dOut`), and per pixel a plain sum
//!   of its taps in ascending `(ky, kx)` from `+0.0` (the scatter). Fusing the
//!   two levels into one chain is a different association. A tap that falls
//!   outside `dOut` reads the zero border, so for finite weights its chain is
//!   `+0.0`, and adding `+0.0` to a sum that started at `+0.0` (which is
//!   never `−0.0`) changes nothing — the scatter skips that tap, the gather
//!   adds nothing. A non-finite weight would turn the border's zeros into
//!   NaN, so each tap's chain is ANDed with a per-`(tap, pixel)` validity
//!   mask before it is added: the weight poisons exactly the pixels the
//!   scatter lets it reach.
//!
//! Every kernel has an AVX2+FMA form and a scalar twin that runs the
//! identical operations through [`f32::mul_add`]; lanes are distinct output
//! elements, so the two agree bit for bit, as do all thread counts (threads
//! split images, or tap tiles for the weight gradient; no element's chain is
//! ever split).

// Scratch comes from the workspace arena, never from `vec![x; n]` or
// `Vec::with_capacity` (crates/tensor/clippy.toml, DESIGN.md §8).
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use crate::conv::ConvGeometry;
use crate::gemm::{self, copy_run, SendPtr};
use crate::pool::{self, chunk_range};
use crate::workspace;
use std::ops::Range;

/// Widest layer the direct kernels take. What it stands for is the number
/// of multiply–adds the engine gets out of each patch element it packs:
/// `c_out` of them. The measured crossover (EXPERIMENTS.md, "Direct
/// convolution") lies between 32 and 64.
pub(crate) const MAX_C_OUT: usize = 32;

/// f32 lanes of one vector.
const LANES: usize = 8;

/// Rows (output channels, resp. input channels) of the largest forward and
/// input-gradient register tile.
const ROWS: usize = 6;

/// Most accumulators of a weight-gradient register tile (taps × vectors
/// of output channels, [`dw_tile_shape`]).
const DW_ACCS: usize = 12;

/// The results of one register tile: up to [`ROWS`] rows of two runs.
type Tile = [[f32; 2 * LANES]; ROWS];

/// Whether the direct kernels take this layer: stride 1, a real kernel
/// (`k > 1`), padding smaller than the kernel (the input gradient pads
/// `dOut` by `k − 1 − padding`), and few output channels.
pub(crate) fn applies(geo: &ConvGeometry, c_out: usize) -> bool {
    geo.stride == 1 && geo.k > 1 && geo.k > geo.padding && c_out <= MAX_C_OUT
}

/// One image's operand as zero-bordered planes, and the result plane
/// computed from it: `rows × cols` results, each reading a `k × k` window
/// of a `(rows + k − 1) × (cols + k − 1)` padded plane.
#[derive(Clone, Copy)]
struct Planes {
    k: usize,
    rows: usize,
    cols: usize,
    /// Row pitch of a padded plane.
    wp: usize,
    /// Elements of a padded plane.
    pitch: usize,
}

impl Planes {
    fn new(k: usize, rows: usize, cols: usize) -> Self {
        let wp = cols + k - 1;
        Planes { k, rows, cols, wp, pitch: (rows + k - 1) * wp }
    }

    /// Floats that hold `c` padded planes plus the overhang of the last
    /// run of the last plane.
    fn padded_len(&self, c: usize) -> usize {
        c * self.pitch + LANES
    }

    /// Copies the planes of `src` into the interiors of the padded planes
    /// `dst`, whose borders of width `border` are zero and stay zero.
    fn pad_into(&self, src: &[f32], border: usize, dst: &mut [f32]) {
        let (h, w) = (self.rows + self.k - 1 - 2 * border, self.cols + self.k - 1 - 2 * border);
        if h * w == 0 {
            return;
        }
        for (plane, padded) in src.chunks_exact(h * w).zip(dst.chunks_exact_mut(self.pitch)) {
            for (row, src_row) in plane.chunks_exact(w).enumerate() {
                padded[(row + border) * self.wp + border..][..w].copy_from_slice(src_row);
            }
        }
    }

    /// Number of [`Planes::runs`].
    fn run_count(&self) -> usize {
        self.rows * self.cols.div_ceil(LANES)
    }

    /// The runs of [`LANES`] result pixels, row by row (a run never crosses
    /// a row): each run's offset in a padded plane, its offset in the result
    /// plane, and how many of its lanes are results.
    fn runs(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (0..self.rows).flat_map(move |row| {
            (0..self.cols).step_by(LANES).map(move |c0| {
                (row * self.wp + c0, row * self.cols + c0, LANES.min(self.cols - c0))
            })
        })
    }

    /// The register tiles: consecutive pairs of runs as
    /// `(src, [(dst, live); 2])`. A last, odd run is paired with itself and
    /// stored once.
    fn tiles(&self) -> impl Iterator<Item = ([usize; 2], [(usize, usize); 2])> + '_ {
        let mut runs = self.runs();
        std::iter::from_fn(move || {
            let (s0, d0, n0) = runs.next()?;
            let (s1, d1, n1) = runs.next().unwrap_or((s0, d0, 0));
            Some(([s0, s1], [(d0, n0), (d1, n1)]))
        })
    }

    /// Panics unless every load of a tile kernel — `c` planes, any tap,
    /// [`LANES`] lanes from `src` on — stays inside `padded`.
    fn check(&self, c: usize, src: [usize; 2], padded: &[f32]) {
        let reach = (c - 1) * self.pitch + (self.k - 1) * (self.wp + 1) + LANES;
        assert!(src[0].max(src[1]) + reach <= padded.len(), "direct conv: run outside its planes");
    }
}

/// Stores the first `rows` rows of `tile` into `rows` consecutive result
/// planes of `plane_len` elements, dropping the lanes that are not results.
fn store_tile(
    tile: &Tile,
    rows: usize,
    planes: &mut [f32],
    plane_len: usize,
    dst: [(usize, usize); 2],
) {
    for (row, plane) in tile[..rows].iter().zip(planes.chunks_exact_mut(plane_len)) {
        for (v, &(at, live)) in dst.iter().enumerate() {
            copy_run(&mut plane[at..at + live], &row[v * LANES..v * LANES + live]);
        }
    }
}

/// Splits the images `0..n` over the pool (one part when not `parallel`) and
/// calls `f(scratch, images, out)` for each part with `part_len` zeroed
/// floats of scratch of its own — taken here, on the calling thread — and
/// the `out_len`-element output slabs of its images.
fn for_image_parts(
    n: usize,
    parallel: bool,
    part_len: usize,
    out: &mut [f32],
    out_len: usize,
    f: impl Fn(&mut [f32], Range<usize>, &mut [f32]) + Sync,
) {
    let parts = if parallel { pool::num_threads().min(n).max(1) } else { 1 };
    let mut scratch = workspace::take(parts * part_len);
    assert_eq!(out.len(), n * out_len, "direct conv: output length");
    let out = SendPtr(out.as_mut_ptr());
    pool::run_chunked(&mut scratch, part_len, |first, chunk| {
        // Capture the whole SendPtr, not its raw-pointer field.
        let out = &out;
        for (part, scratch) in (first..).zip(chunk.chunks_exact_mut(part_len)) {
            let imgs = chunk_range(n, parts, part);
            // SAFETY: `chunk_range` gives distinct parts disjoint image
            // ranges inside `0..n`, so this slice of the `n · out_len`
            // output (asserted above) is in bounds and no other part touches
            // it; `run_chunked` joins every part before the borrow ends.
            let slabs = unsafe {
                std::slice::from_raw_parts_mut(
                    out.0.add(imgs.start * out_len),
                    imgs.len() * out_len,
                )
            };
            f(scratch, imgs, slabs);
        }
    });
}

/// `y = W ∗ x` for a layer [`applies`] accepts; every element of `y` is
/// overwritten. Each element is the fused chain over
/// ascending `(ci, ky, kx)` from `+0.0`.
pub(crate) fn forward(
    x: &[f32],
    w: &[f32],
    y: &mut [f32],
    geo: &ConvGeometry,
    n: usize,
    c_out: usize,
    parallel: bool,
) {
    let pl = Planes::new(geo.k, geo.h_out(), geo.w_out());
    let (c_in, depth) = (geo.c_in, geo.patch_rows());
    let (hw_in, hw_out) = (geo.h * geo.w, pl.rows * pl.cols);
    // Weights, tile by tile of near-equal height ≤ ROWS, depth-major inside
    // a tile: the kernel walks one pointer.
    let tiles = c_out.div_ceil(ROWS);
    let mut wt = workspace::take(c_out * depth);
    for i in 0..tiles {
        let co = chunk_range(c_out, tiles, i);
        let tile = &mut wt[co.start * depth..co.end * depth];
        for (j, row) in w[co.start * depth..co.end * depth].chunks_exact(depth).enumerate() {
            for (slot, &v) in tile[j..].iter_mut().step_by(co.len()).zip(row) {
                *slot = v;
            }
        }
    }
    let avx = gemm::simd_enabled();
    for_image_parts(n, parallel, pl.padded_len(c_in), y, c_out * hw_out, |xpad, imgs, y| {
        let mut tile = [[0.0f32; 2 * LANES]; ROWS];
        for (img, y) in imgs.zip(y.chunks_exact_mut(c_out * hw_out)) {
            pl.pad_into(&x[img * c_in * hw_in..][..c_in * hw_in], geo.padding, xpad);
            for i in 0..tiles {
                let co = chunk_range(c_out, tiles, i);
                let wt = &wt[co.start * depth..co.end * depth];
                for (src, dst) in pl.tiles() {
                    forward_tile(avx, co.len(), &pl, c_in, wt, xpad, src, &mut tile);
                    store_tile(&tile, co.len(), &mut y[co.start * hw_out..], hw_out, dst);
                }
            }
        }
    });
}

/// One forward register tile: `rows` output channels × the two runs at
/// `src`, over all `c · k²` taps.
#[allow(clippy::too_many_arguments)]
fn forward_tile(
    avx: bool,
    rows: usize,
    pl: &Planes,
    c: usize,
    wt: &[f32],
    xpad: &[f32],
    src: [usize; 2],
    tile: &mut Tile,
) {
    assert_eq!(wt.len(), rows * c * pl.k * pl.k, "direct conv: packed weight length");
    pl.check(c, src, xpad);
    #[cfg(target_arch = "x86_64")]
    if avx {
        // SAFETY: `avx` is `gemm::simd_enabled()`, true only after
        // `simd_supported()` detected AVX2 and FMA on this CPU; `wt` holds
        // `c·k²` rows of `rows` weights and every load from `xpad` is in
        // bounds, both asserted above.
        unsafe {
            match rows {
                1 => avx::forward_tile::<1>(pl, c, wt.as_ptr(), xpad.as_ptr(), src, tile),
                2 => avx::forward_tile::<2>(pl, c, wt.as_ptr(), xpad.as_ptr(), src, tile),
                3 => avx::forward_tile::<3>(pl, c, wt.as_ptr(), xpad.as_ptr(), src, tile),
                4 => avx::forward_tile::<4>(pl, c, wt.as_ptr(), xpad.as_ptr(), src, tile),
                5 => avx::forward_tile::<5>(pl, c, wt.as_ptr(), xpad.as_ptr(), src, tile),
                6 => avx::forward_tile::<6>(pl, c, wt.as_ptr(), xpad.as_ptr(), src, tile),
                _ => unreachable!("forward tiles have 1..=ROWS rows"),
            }
        }
        return;
    }
    let _ = avx;
    let mut acc = [[0.0f32; 2 * LANES]; ROWS];
    let mut wt = wt.chunks_exact(rows);
    for ci in 0..c {
        for ky in 0..pl.k {
            for kx in 0..pl.k {
                let at = ci * pl.pitch + ky * pl.wp + kx;
                let a = wt.next().expect("length asserted above");
                for (acc, &a) in acc.iter_mut().zip(a) {
                    for (v, &s) in src.iter().enumerate() {
                        let b = &xpad[s + at..s + at + LANES];
                        for (slot, &b) in acc[v * LANES..].iter_mut().zip(b) {
                            *slot = a.mul_add(b, *slot);
                        }
                    }
                }
            }
        }
    }
    *tile = acc;
}

/// `dX = Wᵀ ∗ dOut` for a layer [`applies`] accepts; every element of `dx`
/// is overwritten with the sum, over ascending `(ky, kx)` from `+0.0`, of
/// that tap's fused chain over ascending `co` from `+0.0`.
pub(crate) fn grad_input(
    w: &[f32],
    dout: &[f32],
    dx: &mut [f32],
    geo: &ConvGeometry,
    n: usize,
    c_out: usize,
    parallel: bool,
) {
    let pl = Planes::new(geo.k, geo.h, geo.w);
    let (c_in, k, kk) = (geo.c_in, geo.k, geo.k * geo.k);
    let (hw_in, hw_out) = (geo.h * geo.w, geo.h_out() * geo.w_out());
    // Weights per tile of ≤ ROWS input channels, in the order the kernel
    // walks them: tap, then output channel, then the tile's channels.
    let tiles = c_in.div_ceil(ROWS);
    let mut wt = workspace::take(c_in * kk * c_out);
    let mut slots = wt.iter_mut();
    for i in 0..tiles {
        for tap in 0..kk {
            for co in 0..c_out {
                for (ci, slot) in chunk_range(c_in, tiles, i).zip(&mut slots) {
                    *slot = w[(co * c_in + ci) * kk + tap];
                }
            }
        }
    }
    // valid[tap][run][lane]: all ones where the tap of that pixel lies
    // inside dOut — where the scatter adds it — else all zeros.
    let ones = f32::from_bits(u32::MAX);
    let mut valid = workspace::take(kk * pl.run_count() * LANES);
    for (tap, table) in valid.chunks_exact_mut(pl.run_count() * LANES).enumerate() {
        let inside = |i: usize, kt: usize, len: usize| (kt..kt + len).contains(&(i + geo.padding));
        for ((_, dst, live), lanes) in pl.runs().zip(table.chunks_exact_mut(LANES)) {
            let (iy, ix0) = (dst / pl.cols, dst % pl.cols);
            if inside(iy, tap / k, geo.h_out()) {
                for (ix, lane) in (ix0..ix0 + live).zip(lanes) {
                    if inside(ix, tap % k, geo.w_out()) {
                        *lane = ones;
                    }
                }
            }
        }
    }
    let avx = gemm::simd_enabled();
    for_image_parts(n, parallel, pl.padded_len(c_out), dx, c_in * hw_in, |dpad, imgs, dx| {
        let mut tile = [[0.0f32; 2 * LANES]; ROWS];
        for (img, dx) in imgs.zip(dx.chunks_exact_mut(c_in * hw_in)) {
            pl.pad_into(&dout[img * c_out * hw_out..][..c_out * hw_out], k - 1 - geo.padding, dpad);
            for i in 0..tiles {
                let ci = chunk_range(c_in, tiles, i);
                let wt = &wt[ci.start * kk * c_out..ci.end * kk * c_out];
                for (t, (src, dst)) in pl.tiles().enumerate() {
                    grad_input_tile(avx, ci.len(), &pl, c_out, wt, dpad, src, &valid, t, &mut tile);
                    store_tile(&tile, ci.len(), &mut dx[ci.start * hw_in..], hw_in, dst);
                }
            }
        }
    });
}

/// One input-gradient register tile: `rows` input channels × the two runs
/// `2t`, `2t + 1` at `src`.
#[allow(clippy::too_many_arguments)]
fn grad_input_tile(
    avx: bool,
    rows: usize,
    pl: &Planes,
    c: usize,
    wt: &[f32],
    dpad: &[f32],
    src: [usize; 2],
    valid: &[f32],
    t: usize,
    tile: &mut Tile,
) {
    let kk = pl.k * pl.k;
    assert_eq!(wt.len(), rows * c * kk, "direct conv: packed weight length");
    pl.check(c, src, dpad);
    // The mask of a last, odd run's stand-in partner is never used for a
    // stored lane; it reads the run's own.
    let runs = [2 * t, (2 * t + 1).min(pl.run_count() - 1)];
    assert_eq!(valid.len(), kk * pl.run_count() * LANES, "direct conv: mask table length");
    #[cfg(target_arch = "x86_64")]
    if avx {
        // SAFETY: `avx` is `gemm::simd_enabled()`, true only after
        // `simd_supported()` detected AVX2 and FMA on this CPU; `wt` holds
        // `k²·c` rows of `rows` weights, every load from `dpad` is in bounds
        // and `valid` holds LANES floats for each (tap, run) with both runs
        // below `pl.run_count()`, all asserted above.
        unsafe {
            let (wt, dpad, valid) = (wt.as_ptr(), dpad.as_ptr(), valid.as_ptr());
            match rows {
                1 => avx::grad_input_tile::<1>(pl, c, wt, dpad, src, valid, runs, tile),
                2 => avx::grad_input_tile::<2>(pl, c, wt, dpad, src, valid, runs, tile),
                3 => avx::grad_input_tile::<3>(pl, c, wt, dpad, src, valid, runs, tile),
                4 => avx::grad_input_tile::<4>(pl, c, wt, dpad, src, valid, runs, tile),
                5 => avx::grad_input_tile::<5>(pl, c, wt, dpad, src, valid, runs, tile),
                6 => avx::grad_input_tile::<6>(pl, c, wt, dpad, src, valid, runs, tile),
                _ => unreachable!("input-gradient tiles have 1..=ROWS rows"),
            }
        }
        return;
    }
    let _ = avx;
    let mut sum = [[0.0f32; 2 * LANES]; ROWS];
    let mut wt = wt.chunks_exact(rows);
    for tap in 0..kk {
        let at = (pl.k - 1 - tap / pl.k) * pl.wp + (pl.k - 1 - tap % pl.k);
        let mut acc = [[0.0f32; 2 * LANES]; ROWS];
        for co in 0..c {
            let a = wt.next().expect("length asserted above");
            for (acc, &a) in acc.iter_mut().zip(a) {
                for (v, &s) in src.iter().enumerate() {
                    let b = &dpad[co * pl.pitch + s + at..][..LANES];
                    for (slot, &b) in acc[v * LANES..].iter_mut().zip(b) {
                        *slot = a.mul_add(b, *slot);
                    }
                }
            }
        }
        for (sum, acc) in sum.iter_mut().zip(&acc).take(rows) {
            for (v, &run) in runs.iter().enumerate() {
                let mask = &valid[(tap * pl.run_count() + run) * LANES..][..LANES];
                let lanes = sum[v * LANES..].iter_mut().zip(&acc[v * LANES..]);
                for ((slot, &a), &m) in lanes.zip(mask) {
                    *slot += f32::from_bits(a.to_bits() & m.to_bits());
                }
            }
        }
    }
    *tile = sum;
}

/// Taps and vectors of output channels of a weight-gradient register tile
/// for `c_out` channels. The accumulators, one `dOut` vector per vector of
/// channels and the broadcast `x` must fit the sixteen registers — a spilled
/// accumulator puts a store and a reload on its chain.
fn dw_tile_shape(c_out: usize) -> (usize, usize) {
    match c_out.div_ceil(LANES) {
        0 | 1 => (12, 1),
        2 => (6, 2),
        3 => (3, 3),
        _ => (2, 4),
    }
}

/// Floats of padded `x` and transposed `dOut` a weight-gradient part holds
/// at once (256 KiB, a quarter of an L2): as many whole images as fit, at
/// least one. Small planes come many to a group, so that a register tile's
/// accumulators are loaded and stored once per group, not once per image.
const DW_GROUP: usize = 1 << 16;

/// `dW = dOut ∗ x` for a layer [`applies`] accepts; `dw` must be zeroed.
/// Each element is the fused chain over ascending `(img, oy, ox)` from
/// `+0.0`. Threads split the tap tiles; each pads the channels its taps
/// read and transposes `dOut` for itself.
pub(crate) fn grad_weight(
    x: &[f32],
    dout: &[f32],
    dw: &mut [f32],
    geo: &ConvGeometry,
    n: usize,
    c_out: usize,
    parallel: bool,
) {
    let pl = Planes::new(geo.k, geo.h_out(), geo.w_out());
    let (c_in, k, kk, taps) = (geo.c_in, geo.k, geo.k * geo.k, geo.patch_rows());
    let (hw_in, hw_out) = (geo.h * geo.w, pl.rows * pl.cols);
    let (nt, vecs) = dw_tile_shape(c_out);
    let cr = vecs * LANES;
    let tiles = taps.div_ceil(nt);
    let parts = if parallel { pool::num_threads().min(tiles).max(1) } else { 1 };
    // Per part: a group of padded images, their dOut transposed to
    // [pixel][cr], and the accumulators [tap][cr] of the part's tiles.
    let (x_len, dt_len) = (c_in * pl.pitch, hw_out * cr);
    let group = (DW_GROUP / (x_len + dt_len)).clamp(1, n);
    let part_len = group * (x_len + dt_len) + tiles.div_ceil(parts) * nt * cr;
    let mut scratch = workspace::take(parts * part_len);
    let avx = gemm::simd_enabled();
    pool::run_chunked(&mut scratch, part_len, |first, chunk| {
        for (part, scratch) in (first..).zip(chunk.chunks_exact_mut(part_len)) {
            let own = chunk_range(tiles, parts, part);
            let (xpad, rest) = scratch.split_at_mut(group * x_len);
            let (dt, accs) = rest.split_at_mut(group * dt_len);
            let chans = own.start * nt / kk..((own.end * nt).min(taps) - 1) / kk + 1;
            for img0 in (0..n).step_by(group) {
                let imgs = group.min(n - img0);
                for (img, (xpad, dt)) in (img0..img0 + imgs)
                    .zip(xpad.chunks_exact_mut(x_len).zip(dt.chunks_exact_mut(dt_len)))
                {
                    pl.pad_into(
                        &x[(img * c_in + chans.start) * hw_in..(img * c_in + chans.end) * hw_in],
                        geo.padding,
                        &mut xpad[chans.start * pl.pitch..],
                    );
                    // Pixel by pixel: `dt` is written once, front to back.
                    let planes = &dout[img * c_out * hw_out..][..c_out * hw_out];
                    for (pixel, lanes) in dt.chunks_exact_mut(cr).enumerate() {
                        let column = planes[pixel..].iter().step_by(hw_out);
                        for (slot, &v) in lanes.iter_mut().zip(column) {
                            *slot = v;
                        }
                    }
                }
                let (xpad, dt) = (&xpad[..imgs * x_len], &dt[..imgs * dt_len]);
                for (tile, acc) in own.clone().zip(accs.chunks_exact_mut(nt * cr)) {
                    // Offsets of the tile's taps in a padded image. A short
                    // last tile repeats its last tap; `dw` never reads those
                    // accumulators.
                    let first = tile * nt;
                    let (mut ci, mut ky, mut kx) = (first / kk, first % kk / k, first % k);
                    let mut at = [0usize; DW_ACCS];
                    for (j, at) in at.iter_mut().enumerate().take(nt) {
                        *at = ci * pl.pitch + ky * pl.wp + kx;
                        if first + j + 1 < taps {
                            kx += 1;
                            (ky, kx) = if kx == k { (ky + 1, 0) } else { (ky, kx) };
                            (ci, ky) = if ky == k { (ci + 1, 0) } else { (ci, ky) };
                        }
                    }
                    grad_weight_tile(avx, (nt, vecs), &pl, x_len, xpad, &at, dt, acc);
                }
            }
        }
    });
    for (part, scratch) in scratch.chunks_exact(part_len).enumerate() {
        let own = chunk_range(tiles, parts, part);
        let accs = scratch[group * (x_len + dt_len)..].chunks_exact(cr);
        for (tap, acc) in (own.start * nt..taps.min(own.end * nt)).zip(accs) {
            for (slot, &v) in dw[tap..].iter_mut().step_by(taps).zip(&acc[..c_out]) {
                *slot = v;
            }
        }
    }
}

/// One weight-gradient register tile: continues the chains of `nt` taps
/// (at offsets `at` of a padded image) × `vecs` vectors of output channels
/// in `acc` over the pixels of the images in `xpad` (`x_len` floats each)
/// and `dt`.
#[allow(clippy::too_many_arguments)]
fn grad_weight_tile(
    avx: bool,
    (nt, vecs): (usize, usize),
    pl: &Planes,
    x_len: usize,
    xpad: &[f32],
    at: &[usize; DW_ACCS],
    dt: &[f32],
    acc: &mut [f32],
) {
    let (cr, imgs) = (vecs * LANES, xpad.len() / x_len);
    assert_eq!(xpad.len(), imgs * x_len, "direct conv: padded x length");
    assert_eq!(dt.len(), imgs * pl.rows * pl.cols * cr, "direct conv: transposed dOut length");
    assert_eq!(acc.len(), nt * cr, "direct conv: accumulator length");
    let last = (pl.rows - 1) * pl.wp + pl.cols - 1;
    assert!(at[..nt].iter().all(|&at| at + last < x_len), "direct conv: tap outside x");
    #[cfg(target_arch = "x86_64")]
    if avx {
        // SAFETY: `avx` is `gemm::simd_enabled()`, true only after
        // `simd_supported()` detected AVX2 and FMA on this CPU; `xpad` holds
        // `imgs` images of `x_len` floats, `dt` `cr` floats per pixel of
        // each, `acc` `cr` per tap, and each tap's offset plus the last
        // pixel's is inside an image, all asserted above.
        unsafe {
            let (x, dt, acc) = (xpad.as_ptr(), dt.as_ptr(), acc.as_mut_ptr());
            match vecs {
                1 => avx::grad_weight_tile::<12, 1>(pl, imgs, x_len, x, at, dt, acc),
                2 => avx::grad_weight_tile::<6, 2>(pl, imgs, x_len, x, at, dt, acc),
                3 => avx::grad_weight_tile::<3, 3>(pl, imgs, x_len, x, at, dt, acc),
                4 => avx::grad_weight_tile::<2, 4>(pl, imgs, x_len, x, at, dt, acc),
                _ => unreachable!("c_out <= MAX_C_OUT is at most four vectors"),
            }
        }
        return;
    }
    let _ = avx;
    let mut d = dt.chunks_exact(cr);
    for x in xpad.chunks_exact(x_len) {
        for oy in 0..pl.rows {
            for ox in 0..pl.cols {
                let d = d.next().expect("length asserted above");
                for (acc, &at) in acc.chunks_exact_mut(cr).zip(at) {
                    let b = x[oy * pl.wp + ox + at];
                    for (slot, &d) in acc.iter_mut().zip(d) {
                        *slot = d.mul_add(b, *slot);
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx {
    //! The AVX2+FMA forms of the three tile kernels. Reachable only through
    //! the safe wrappers in the parent module, which take them only when
    //! `gemm::simd_enabled()` is true (runtime detection found AVX2 and FMA)
    //! and assert every bound these rely on.

    use super::{Planes, Tile, DW_ACCS, LANES};
    use core::arch::x86_64::{
        _mm256_add_ps, _mm256_and_ps, _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps,
        _mm256_setzero_ps, _mm256_storeu_ps,
    };

    /// `R` output channels × two runs, all taps: `acc ← fma(w, x, acc)` in
    /// ascending `(ci, ky, kx)` from `+0.0`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. `wt` must hold `c·k²` rows of `R` weights;
    /// `x + src[v] + ci·pitch + ky·wp + kx` must be readable for [`LANES`]
    /// floats for every channel and tap.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn forward_tile<const R: usize>(
        pl: &Planes,
        c: usize,
        mut wt: *const f32,
        x: *const f32,
        src: [usize; 2],
        tile: &mut Tile,
    ) {
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee.
        unsafe {
            let mut acc = [[_mm256_setzero_ps(); 2]; R];
            for ci in 0..c {
                for ky in 0..pl.k {
                    let row = x.add(ci * pl.pitch + ky * pl.wp);
                    for kx in 0..pl.k {
                        let b0 = _mm256_loadu_ps(row.add(src[0] + kx));
                        let b1 = _mm256_loadu_ps(row.add(src[1] + kx));
                        for (r, acc) in acc.iter_mut().enumerate() {
                            let a = _mm256_broadcast_ss(&*wt.add(r));
                            acc[0] = _mm256_fmadd_ps(a, b0, acc[0]);
                            acc[1] = _mm256_fmadd_ps(a, b1, acc[1]);
                        }
                        wt = wt.add(R);
                    }
                }
            }
            for (row, acc) in tile.iter_mut().zip(&acc) {
                _mm256_storeu_ps(row.as_mut_ptr(), acc[0]);
                _mm256_storeu_ps(row.as_mut_ptr().add(LANES), acc[1]);
            }
        }
    }

    /// `R` input channels × two runs: per tap in ascending `(ky, kx)` the
    /// chain `acc ← fma(w, dOut, acc)` over ascending `co` from `+0.0`,
    /// masked, then added to the pixel's sum.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. `wt` must hold `k²·c` rows of `R` weights;
    /// `d + src[v] + co·pitch + ky·wp + kx` must be readable for [`LANES`]
    /// floats for every channel and tap, and `valid` for [`LANES`] floats
    /// at `(tap · pl.run_count() + runs[v]) · LANES`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn grad_input_tile<const R: usize>(
        pl: &Planes,
        c: usize,
        mut wt: *const f32,
        d: *const f32,
        src: [usize; 2],
        valid: *const f32,
        runs: [usize; 2],
        tile: &mut Tile,
    ) {
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee.
        unsafe {
            // Twelve chains keep both FMA ports busy; the pixels' sums live in
            // `tile` meanwhile and are touched once per tap.
            for row in tile.iter_mut().take(R) {
                *row = [0.0; 2 * LANES];
            }
            // Through a raw pointer, so that the sums stay where they are
            // instead of being shadowed on the stack.
            let sums = tile.as_mut_ptr().cast::<f32>();
            for tap in 0..pl.k * pl.k {
                let at = (pl.k - 1 - tap / pl.k) * pl.wp + (pl.k - 1 - tap % pl.k);
                let mut acc = [[_mm256_setzero_ps(); 2]; R];
                let mut plane = d.add(at);
                for _ in 0..c {
                    let b0 = _mm256_loadu_ps(plane.add(src[0]));
                    let b1 = _mm256_loadu_ps(plane.add(src[1]));
                    for (r, acc) in acc.iter_mut().enumerate() {
                        let a = _mm256_broadcast_ss(&*wt.add(r));
                        acc[0] = _mm256_fmadd_ps(a, b0, acc[0]);
                        acc[1] = _mm256_fmadd_ps(a, b1, acc[1]);
                    }
                    wt = wt.add(R);
                    plane = plane.add(pl.pitch);
                }
                let m0 = _mm256_loadu_ps(valid.add((tap * pl.run_count() + runs[0]) * LANES));
                let m1 = _mm256_loadu_ps(valid.add((tap * pl.run_count() + runs[1]) * LANES));
                for (r, acc) in acc.iter().enumerate() {
                    let (lo, hi) = (sums.add(2 * r * LANES), sums.add((2 * r + 1) * LANES));
                    _mm256_storeu_ps(
                        lo,
                        _mm256_add_ps(_mm256_loadu_ps(lo), _mm256_and_ps(acc[0], m0)),
                    );
                    _mm256_storeu_ps(
                        hi,
                        _mm256_add_ps(_mm256_loadu_ps(hi), _mm256_and_ps(acc[1], m1)),
                    );
                }
            }
        }
    }

    /// `NT` taps × `NV` vectors of output channels over the pixels of
    /// `imgs` images: `acc ← fma(dOut, x, acc)` in ascending `(img, oy, ox)`,
    /// continuing from and stored back to `acc`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. `dt` must hold `NV · LANES` floats per pixel
    /// of every image, `acc` as many per tap, and
    /// `x + img·x_len + at[t] + oy·wp + ox` must be readable for every
    /// image, tap `t < NT` and pixel.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn grad_weight_tile<const NT: usize, const NV: usize>(
        pl: &Planes,
        imgs: usize,
        x_len: usize,
        x: *const f32,
        at: &[usize; DW_ACCS],
        dt: *const f32,
        acc: *mut f32,
    ) {
        const { assert!(NT * NV <= DW_ACCS) };
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee.
        unsafe {
            let mut sums = [[_mm256_setzero_ps(); NV]; NT];
            for (t, sums) in sums.iter_mut().enumerate() {
                for (v, sum) in sums.iter_mut().enumerate() {
                    *sum = _mm256_loadu_ps(acc.add((t * NV + v) * LANES));
                }
            }
            let mut d = dt;
            for img in 0..imgs {
                let mut taps = [x; NT];
                for (tap, &at) in taps.iter_mut().zip(at) {
                    *tap = x.add(img * x_len + at);
                }
                for oy in 0..pl.rows {
                    for ox in oy * pl.wp..oy * pl.wp + pl.cols {
                        let mut dv = [_mm256_setzero_ps(); NV];
                        for (v, dv) in dv.iter_mut().enumerate() {
                            *dv = _mm256_loadu_ps(d.add(v * LANES));
                        }
                        for (sums, tap) in sums.iter_mut().zip(&taps) {
                            let b = _mm256_broadcast_ss(&*tap.add(ox));
                            for (sum, &dv) in sums.iter_mut().zip(&dv) {
                                *sum = _mm256_fmadd_ps(dv, b, *sum);
                            }
                        }
                        d = d.add(NV * LANES);
                    }
                }
            }
            for (t, sums) in sums.iter().enumerate() {
                for (v, &sum) in sums.iter().enumerate() {
                    _mm256_storeu_ps(acc.add((t * NV + v) * LANES), sum);
                }
            }
        }
    }
}
