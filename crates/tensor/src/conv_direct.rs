//! Direct convolution for thin layers — stride 1 or 2, `k × k` or 1×1: the
//! three primitives of [`crate::conv`] computed from the operands where they
//! lie, without a packed patch panel.
//!
//! The implicit-GEMM lowering packs a `c_in·k² × N·H·W` panel of patches and
//! spreads that cost over `c_out` rows of output. Pufferfish's factorized `U`
//! convolution has `c_out = r = c/4` (4 … 32), and its 1×1 `V` a depth of
//! `r`, so there the packing, not the arithmetic, sets the time. The kernels
//! here need no panel: one image's operand is copied once into
//! **zero-bordered phase planes** (or read in place when that copy would be
//! the identity), and in that layout every tap of every result pixel is a
//! fixed offset away —
//!
//! ```text
//!   stride s: padded pixel (s·r + py, s·c + px) → phase plane (py, px) at (r, c)
//!
//!   phase (py, px), pitch wp = cols + (k − 1)/s     result plane, rows × cols
//!   ┌──────────────────────────┐
//!   │ 0  0  0  0  0  0  0  0  0│   run = LANES result pixels of one row:
//!   │ 0  ·  ·  ·  ·  ·  ·  ·  0│     src = row·wp + c0   (in a phase plane)
//!   │ 0  ·  [src … src+7]  ·  0│     dst = row·cols + c0 (in the result)
//!   │ 0  ·  ·  ·  ·  ·  ·  ·  0│   tap (ky, kx) of all eight pixels is the
//!   │ 0  0  0  0  0  0  0  0  0│   contiguous load at src + ty[ky] + tx[kx]
//!   └──────────────────────────┘   (+ channel · pitch)
//! ```
//!
//! — the tap picks the phase plane (`ky mod s`, `kx mod s`) and `ky / s`,
//! `kx / s` give the shift, so a tap's offset is the sum of a row and a
//! column entry of two small tables ([`Taps`]). At stride 1 there is one
//! phase and this is the plain zero-bordered plane. The zeros in the border
//! are the zeros the packed panel holds: the kernels multiply by them
//! exactly as the engine does, which keeps equality total (non-finite
//! operands included). A run that hangs over the end of its row reads the
//! border and the next row; those lanes are computed and never stored. When
//! a plane's pitch is its result width (1×1 layers), the rows are read as one
//! `1 × rows·cols` row, so runs fill across row ends; a 1×1 stride-1 operand
//! is read in place, a 1×1 stride-2 one is its phase-(0,0) plane.
//!
//! # Same bits
//!
//! * **Forward** and **weight gradient** are the engine's chains: one
//!   accumulator per element from `+0.0`, `acc ← fma(a, b, acc)`, ascending
//!   `(ci, ky, kx)` resp. `(img, oy, ox)`. Phase planes change where a tap
//!   is read, not the order taps are taken in. The weight gradient's chain
//!   runs over pixels, so its lanes are *output channels* (`dOut` is
//!   transposed once per image to `[pixel][c_out↑8]`, `x` is broadcast from
//!   the phase planes), in blocks of at most four vectors, and its
//!   accumulators are stored and reloaded between image groups — the same
//!   bits.
//! * **Input gradient** is a *two-level* sum, because that is what
//!   `col2im(matmul_tn(W, dOut))` is: per tap a fused chain over ascending
//!   `co` from `+0.0` (one element of `Wᵀ·dOut`), and per pixel a plain sum
//!   of its taps in ascending `(ky, kx)` from `+0.0` (the scatter). Fusing the
//!   two levels into one chain is a different association. At stride `s`
//!   the input pixels split into `s²` phases by `(iy mod s, ix mod s)`; the
//!   scatter reaches a pixel of phase `(qy, qx)` only from the taps with
//!   `ky ≡ qy + p`, `kx ≡ qx + p (mod s)`, and each of those from one output
//!   pixel at a fixed offset — so each phase is a stride-1 gather over its
//!   own taps, in ascending `(ky, kx)`, into a result plane that is then
//!   interleaved into `dX`. A tap that falls outside `dOut` would read the
//!   border or another row, so each tap's chain is ANDed with a
//!   per-`(tap, pixel)` validity mask before it is added: the scatter skips
//!   that tap, the gather adds `+0.0` to a sum that started at `+0.0` (which
//!   is never `−0.0`) and changes nothing, and a non-finite weight poisons
//!   exactly the pixels the scatter lets it reach. A pixel no tap reaches
//!   (a 1×1 stride-2 layer's odd rows and columns) is `+0.0`, as `col2im`
//!   leaves it.
//!
//! Every kernel has an AVX2+FMA form and a scalar twin that runs the
//! identical operations through [`f32::mul_add`]; lanes are distinct output
//! elements, so the two agree bit for bit, as do all thread counts (threads
//! split images, or weight-gradient tiles; no element's chain is ever
//! split).

// Scratch comes from the workspace arena, never from `vec![x; n]` or
// `Vec::with_capacity` (crates/tensor/clippy.toml, DESIGN.md §8).
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use crate::conv::ConvGeometry;
use crate::gemm::{Isa, SendPtr};
use crate::pool::{self, chunk_range};
use crate::workspace;
use std::ops::Range;

/// Widest `k > 1` layer the direct kernels take. What it stands for is the
/// number of multiply–adds the engine gets out of each patch element it
/// packs: `c_out` of them. The measured crossover (EXPERIMENTS.md, "Direct
/// convolution") lies between 32 and 64.
pub(crate) const MAX_C_OUT: usize = 32;

/// Widest 1×1 layer the direct kernels take. A 1×1 patch element is one
/// input pixel, read in place or from one phase plane, so the engine's
/// packing pays off only at wider layers (EXPERIMENTS.md, "Stride 2 and
/// 1×1 on the direct kernels").
pub(crate) const MAX_C_OUT_1X1: usize = 128;

/// Largest stride the phase planes are cut for.
const MAX_STRIDE: usize = 2;

/// Largest kernel: the length of a [`Taps`] table.
const MAX_K: usize = 16;

/// f32 lanes of one vector.
const LANES: usize = 8;

/// Rows (output channels, resp. input channels) of the largest forward and
/// input-gradient register tile.
const ROWS: usize = 6;

/// Most accumulators of a weight-gradient register tile (taps × vectors
/// of output channels, [`dw_taps`]).
const DW_ACCS: usize = 12;

/// Most vectors of output channels in one weight-gradient tile; wider
/// layers are cut into blocks of near-equal width.
const DW_VECS: usize = 4;

/// The results of one register tile: up to [`ROWS`] rows of two runs.
type Tile = [[f32; 2 * LANES]; ROWS];

/// The register tiles of `c` rows — ⌈c / ROWS⌉ tiles of near-equal height,
/// as [`chunk_range`] cuts them, taller ones first — as at most two groups
/// of equal height: `(height, tiles, rows)`.
fn tile_groups(c: usize) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let tiles = c.div_ceil(ROWS);
    let (tall, height) = (c % tiles.max(1), c / tiles.max(1));
    let split = tall * (height + 1);
    [(height + 1, tall, 0..split), (height, tiles - tall, split..c)]
        .into_iter()
        .filter(|&(_, count, _)| count > 0)
}

/// Whether the direct kernels take this layer: stride 1 or 2, a kernel of
/// at most [`MAX_K`], padding smaller than the kernel (wider padding makes
/// output pixels that read only zeros; such rare layers stay on the
/// engine), and few output channels — at most [`MAX_C_OUT`], or
/// [`MAX_C_OUT_1X1`] for a 1×1 layer.
pub(crate) fn applies(geo: &ConvGeometry, c_out: usize) -> bool {
    let widest = if geo.k == 1 { MAX_C_OUT_1X1 } else { MAX_C_OUT };
    geo.stride <= MAX_STRIDE && geo.k <= MAX_K && geo.k > geo.padding && c_out <= widest
}

/// How one image's operand is laid out for the kernels: each `h × w`
/// channel plane, zero-bordered by `border` on top and left, cut into
/// `phases²` phase planes of `hp × wp` — phase `(py, px)` holds padded pixel
/// `(s·r + py, s·c + px)` at `(r, c)`; padded pixels past `hp`, `wp` are
/// never read and not staged.
#[derive(Clone, Copy)]
struct Stage {
    h: usize,
    w: usize,
    s: usize,
    border: usize,
    phases: usize,
    hp: usize,
    wp: usize,
}

impl Stage {
    /// The layer's input `x`, as forward and the weight gradient read it:
    /// padded by `padding`, one phase per residue of a tap index mod `s`.
    fn input(geo: &ConvGeometry) -> Self {
        let (s, k) = (geo.stride, geo.k);
        Stage {
            h: geo.h,
            w: geo.w,
            s,
            border: geo.padding,
            phases: s.min(k),
            hp: geo.h_out() + (k - 1) / s,
            wp: geo.w_out() + (k - 1) / s,
        }
    }

    /// Floats of one phase plane.
    fn phase_len(&self) -> usize {
        self.hp * self.wp
    }

    /// Floats of one staged channel.
    fn pitch(&self) -> usize {
        self.phases * self.phases * self.phase_len()
    }

    /// Whether staging would copy the planes unchanged.
    fn in_place(&self) -> bool {
        self.s == 1 && self.border == 0 && (self.hp, self.wp) == (self.h, self.w)
    }

    /// The input's taps: tap `(ky, kx)` of a result pixel lies
    /// `ty[ky] + tx[kx]` after its run's `src`.
    fn input_taps(&self, k: usize) -> Taps {
        let (s, len) = (self.s, self.phase_len());
        Taps::new(
            (0..k).map(|ky| (ky, (ky % s) * self.phases * len + (ky / s) * self.wp)),
            (0..k).map(|kx| (kx, (kx % s) * len + kx / s)),
        )
    }

    /// Copies the channel planes of `src` into the phase planes of `dst`,
    /// whose other elements are zero and stay zero.
    fn stage(&self, src: &[f32], dst: &mut [f32]) {
        let (h, w, s, b) = (self.h, self.w, self.s, self.border);
        if h * w == 0 {
            return;
        }
        for (plane, staged) in src.chunks_exact(h * w).zip(dst.chunks_exact_mut(self.pitch())) {
            for py in 0..self.phases {
                // The first phase row holding a source row, and that row.
                let r0 = b.saturating_sub(py).div_ceil(s);
                let rows = (r0..self.hp).zip((s * r0 + py - b..h).step_by(s));
                for (r, iy) in rows {
                    let at = py * self.phases * self.phase_len() + r * self.wp;
                    self.stage_row(&plane[iy * w..][..w], &mut staged[at..]);
                }
            }
        }
    }

    /// Copies one source row into row `r` of its phase planes, `rows`
    /// starting at that row of phase `(py, 0)`: source column `ix` goes to
    /// phase `(ix + border) mod s`, column `(ix + border) / s`. At stride 2
    /// the even and odd columns are moved pairwise.
    fn stage_row(&self, src: &[f32], rows: &mut [f32]) {
        let (wp, b) = (self.wp, self.border);
        if self.s == 1 {
            let len = src.len().min(wp - b);
            rows[b..b + len].copy_from_slice(&src[..len]);
            return;
        }
        let (p0, rest) = rows.split_at_mut(wp);
        // Even columns land in phase b mod 2 from column ⌊b / 2⌋, odd ones
        // in the other phase from column ⌈b / 2⌉.
        let p1 = (self.phases == 2).then(|| &mut rest[self.phase_len() - wp..][..wp]);
        let (even, odd) = match (b % 2, p1) {
            (0, p1) => (&mut p0[b / 2..], p1.map(|p1| &mut p1[b.div_ceil(2)..])),
            (_, Some(p1)) => (&mut p1[b / 2..], Some(&mut p0[b.div_ceil(2)..])),
            (_, None) => unreachable!("an odd border needs k > 1, hence two phases"),
        };
        let Some(odd) = odd else {
            for (d, &v) in even.iter_mut().zip(src.iter().step_by(2)) {
                *d = v;
            }
            return;
        };
        let pairs = even.len().min(odd.len()).min(src.len() / 2);
        let (even, odd) = (even.split_at_mut(pairs), odd.split_at_mut(pairs));
        for ((e, o), pair) in even.0.iter_mut().zip(odd.0.iter_mut()).zip(src.chunks_exact(2)) {
            (*e, *o) = (pair[0], pair[1]);
        }
        let rest = &src[2 * pairs..];
        for (d, &v) in even.1.iter_mut().zip(rest.iter().step_by(2)) {
            *d = v;
        }
        for (d, &v) in odd.1.iter_mut().zip(rest.iter().skip(1).step_by(2)) {
            *d = v;
        }
    }

    /// Image `img` of the `c`-channel NCHW batch `src`, as the kernels read
    /// it: in place when staging would not change it and the image's tail
    /// leaves the `need` floats a kernel may read, else staged into
    /// `staged`.
    fn operand<'a>(
        &self,
        src: &'a [f32],
        img: usize,
        c: usize,
        need: usize,
        staged: &'a mut [f32],
    ) -> &'a [f32] {
        let planes = &src[img * c * self.h * self.w..];
        if self.in_place() && need <= planes.len() {
            return planes;
        }
        self.stage(&planes[..c * self.h * self.w], staged);
        staged
    }

    /// Floats of the scratch [`Stage::operand`] stages into: `c` channels
    /// and the `need` floats the kernels read from them (the last run hangs
    /// over the end), or none when every image is read in place — the last
    /// image has the shortest tail, so if it leaves `need` floats, all do.
    fn scratch_len(&self, c: usize, need: usize) -> usize {
        if self.in_place() && need <= c * self.h * self.w {
            0
        } else {
            need.max(c * self.pitch())
        }
    }
}

/// Where the taps of a result pixel lie: tap `(j, i)` — kernel row `ky[j]`,
/// kernel column `kx[i]` — is `ty[j] + tx[i]` floats after the pixel's
/// `src`. Both tables ascend in the kernel index, so ascending `(j, i)` is
/// ascending `(ky, kx)`.
#[derive(Clone, Copy)]
struct Taps {
    ny: usize,
    nx: usize,
    ty: [usize; MAX_K],
    tx: [usize; MAX_K],
    ky: [usize; MAX_K],
    kx: [usize; MAX_K],
}

impl Taps {
    /// From `(kernel index, offset)` pairs of the rows and of the columns.
    fn new(
        rows: impl Iterator<Item = (usize, usize)>,
        cols: impl Iterator<Item = (usize, usize)>,
    ) -> Self {
        let mut taps =
            Taps { ny: 0, nx: 0, ty: [0; MAX_K], tx: [0; MAX_K], ky: [0; MAX_K], kx: [0; MAX_K] };
        for (k, at) in rows {
            (taps.ky[taps.ny], taps.ty[taps.ny]) = (k, at);
            taps.ny += 1;
        }
        for (k, at) in cols {
            (taps.kx[taps.nx], taps.tx[taps.nx]) = (k, at);
            taps.nx += 1;
        }
        taps
    }

    fn count(&self) -> usize {
        self.ny * self.nx
    }

    /// The largest tap offset.
    fn reach(&self) -> usize {
        let max = |t: &[usize]| t.iter().copied().max().unwrap_or(0);
        max(&self.ty[..self.ny]) + max(&self.tx[..self.nx])
    }
}

/// A result plane of `rows × cols` pixels whose runs read staged planes of
/// row pitch `wp`. When the pitch is the width, the rows are read as one
/// `1 × rows·cols` row (`width` keeps the real one). When a row is at most
/// half a vector wide, a run is `split`: its low half is a row and its high
/// half the next one, so that narrow planes (4×4) fill whole vectors.
#[derive(Clone, Copy)]
struct Planes {
    rows: usize,
    cols: usize,
    wp: usize,
    width: usize,
    split: bool,
}

/// Lanes of half a vector, the width of a split run's row.
const HALF: usize = LANES / 2;

impl Planes {
    fn new(rows: usize, cols: usize, wp: usize) -> Self {
        if wp == cols {
            Planes { rows: 1, cols: rows * cols, wp: rows * cols, width: cols, split: false }
        } else {
            Planes { rows, cols, wp, width: cols, split: cols <= HALF && rows > 1 }
        }
    }

    /// Pixels of the plane.
    fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Where a run's high half lies after its low half: in the staged
    /// planes and in the result plane.
    fn high(&self) -> (usize, usize) {
        if self.split {
            (self.wp, self.cols)
        } else {
            (HALF, HALF)
        }
    }

    /// The live lanes of a run with `live` results, per half.
    fn halves(&self, live: usize) -> [usize; 2] {
        let low = live.min(if self.split { self.cols } else { HALF });
        [low, live - low]
    }

    /// Number of [`Planes::runs`].
    fn run_count(&self) -> usize {
        if self.split {
            self.rows.div_ceil(2)
        } else {
            self.rows * self.cols.div_ceil(LANES)
        }
    }

    /// The runs of [`LANES`] result pixels, row by row (a run never crosses
    /// a row, or a pair of rows when split): each run's offset in a staged
    /// plane, its offset in the result plane, and how many of its lanes are
    /// results.
    fn runs(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (0..self.rows).step_by(if self.split { 2 } else { 1 }).flat_map(move |row| {
            (0..self.cols).step_by(LANES).map(move |c0| {
                let live = match self.split {
                    true => self.cols * (self.rows - row).min(2),
                    false => LANES.min(self.cols - c0),
                };
                (row * self.wp + c0, row * self.cols + c0, live)
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

    /// The result-plane offsets of the live lanes of a run at `dst` with
    /// `live` results, as `(lane, offset)`.
    fn lanes(&self, dst: usize, live: usize) -> impl Iterator<Item = (usize, usize)> {
        let ([low, high], (_, step)) = (self.halves(live), self.high());
        (0..low)
            .map(move |j| (j, dst + j))
            .chain((0..high).map(move |j| (HALF + j, dst + step + j)))
    }

    /// One run's [`LANES`] staged values at `at`, as the AVX2 kernels load
    /// them.
    fn load(&self, staged: &[f32], at: usize) -> [f32; LANES] {
        let mut v = [0.0; LANES];
        v[..HALF].copy_from_slice(&staged[at..at + HALF]);
        v[HALF..].copy_from_slice(&staged[at + self.high().0..][..HALF]);
        v
    }

    /// Floats from the start of `c` staged channels of `pitch` that the
    /// runs' loads of `taps` reach.
    fn need(&self, c: usize, pitch: usize, taps: &Taps) -> usize {
        let last = match (self.len(), self.split) {
            (0, _) => 0,
            (_, true) => (self.rows - 1) / 2 * 2 * self.wp,
            (_, false) => (self.rows - 1) * self.wp + (self.cols - 1) / LANES * LANES,
        };
        (c - 1) * pitch + taps.reach() + last + self.high().0 + HALF
    }
}

/// Stores the first `rows` rows of `tile` into `rows` result planes of
/// `out`, `plane_len` apart, dropping the lanes that are not results.
fn store_tile(
    tile: &Tile,
    rows: usize,
    pl: &Planes,
    out: &mut [f32],
    plane_len: usize,
    dst: [(usize, usize); 2],
) {
    for (r, row) in tile[..rows].iter().enumerate() {
        for (v, &(at, live)) in dst.iter().enumerate() {
            for (j, at) in pl.lanes(r * plane_len + at, live) {
                out[at] = row[v * LANES + j];
            }
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
    // A part of no scratch still needs an item for the pool to hand out.
    let part_len = part_len.max(1);
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
    let st = Stage::input(geo);
    let (taps, pl) = (st.input_taps(geo.k), Planes::new(geo.h_out(), geo.w_out(), st.wp));
    let (c_in, depth, pitch, hw_out) = (geo.c_in, geo.patch_rows(), st.pitch(), pl.len());
    let need = pl.need(c_in, pitch, &taps);
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
    let isa = Isa::current();
    let part_len = st.scratch_len(c_in, need);
    for_image_parts(n, parallel, part_len, y, c_out * hw_out, |xpad, imgs, y| {
        for (img, y) in imgs.zip(y.chunks_exact_mut(c_out * hw_out)) {
            let xs = st.operand(x, img, c_in, need, &mut *xpad);
            for (rows, count, co) in tile_groups(c_out) {
                let wt = &wt[co.start * depth..co.end * depth];
                let y = &mut y[co.start * hw_out..co.end * hw_out];
                forward_rows(isa, (rows, count), &taps, (c_in, pitch), wt, xs, &pl, y);
            }
        }
    });
}

/// Calls `avx::$kernel::<R, SPLIT>` for a register tile of `rows` ∈
/// 1..=[`ROWS`] rows on a plane whose runs are (not) `split`.
#[cfg(target_arch = "x86_64")]
macro_rules! tile_kernel {
    ($rows:expr, $split:expr, $kernel:ident($($arg:expr),*)) => {
        match ($rows, $split) {
            (1, false) => avx::$kernel::<1, false>($($arg),*),
            (2, false) => avx::$kernel::<2, false>($($arg),*),
            (3, false) => avx::$kernel::<3, false>($($arg),*),
            (4, false) => avx::$kernel::<4, false>($($arg),*),
            (5, false) => avx::$kernel::<5, false>($($arg),*),
            (6, false) => avx::$kernel::<6, false>($($arg),*),
            (1, true) => avx::$kernel::<1, true>($($arg),*),
            (2, true) => avx::$kernel::<2, true>($($arg),*),
            (3, true) => avx::$kernel::<3, true>($($arg),*),
            (4, true) => avx::$kernel::<4, true>($($arg),*),
            (5, true) => avx::$kernel::<5, true>($($arg),*),
            (6, true) => avx::$kernel::<6, true>($($arg),*),
            _ => unreachable!("register tiles have 1..=ROWS rows"),
        }
    };
}

/// The result planes of `count` register tiles of `rows` output channels
/// each (`y`, one plane after the other; `wt`, one tile's packed weights
/// after the other), tile by tile: every run pair of `pl` over all `c`
/// staged channels of `pitch` floats and all taps.
#[allow(clippy::too_many_arguments)]
fn forward_rows(
    isa: Isa,
    (rows, count): (usize, usize),
    taps: &Taps,
    (c, pitch): (usize, usize),
    wt: &[f32],
    xs: &[f32],
    pl: &Planes,
    y: &mut [f32],
) {
    let depth = c * taps.count();
    assert_eq!(wt.len(), count * rows * depth, "direct conv: packed weight length");
    assert!(pl.need(c, pitch, taps) <= xs.len(), "direct conv: run outside its planes");
    assert_eq!(y.len(), count * rows * pl.len(), "direct conv: result length");
    #[cfg(target_arch = "x86_64")]
    if isa.avx2() {
        // SAFETY: `isa.avx2()` holds only on a tier runtime
        // detection found, so this CPU has AVX2 and FMA; `wt` holds
        // `count` tiles of one row of `rows` weights per channel and tap,
        // every run's loads from `xs` are in bounds (`need` covers the last
        // run) and `y` holds `count · rows` planes of every run's results,
        // all asserted above.
        unsafe {
            let (wt, xs, y) = (wt.as_ptr(), xs.as_ptr(), y.as_mut_ptr());
            tile_kernel!(rows, pl.split, forward_rows(count, taps, (c, pitch), wt, xs, pl, y));
        }
        return;
    }
    let _ = isa;
    let tiles = wt.chunks_exact(rows * depth).zip(y.chunks_exact_mut(rows * pl.len()));
    for (wt, y) in tiles {
        for (src, dst) in pl.tiles() {
            let mut acc = [[0.0f32; 2 * LANES]; ROWS];
            let mut wt = wt.chunks_exact(rows);
            for ci in 0..c {
                for &ty in &taps.ty[..taps.ny] {
                    for &tx in &taps.tx[..taps.nx] {
                        let at = ci * pitch + ty + tx;
                        let a = wt.next().expect("length asserted above");
                        let b = src.map(|s| pl.load(xs, s + at));
                        for (acc, &a) in acc.iter_mut().zip(a) {
                            for (v, b) in b.iter().enumerate() {
                                for (slot, &b) in acc[v * LANES..].iter_mut().zip(b) {
                                    *slot = a.mul_add(b, *slot);
                                }
                            }
                        }
                    }
                }
            }
            store_tile(&acc, rows, pl, y, pl.len(), dst);
        }
    }
}

/// One axis of an input-gradient phase `q` (module docs): the input
/// coordinates `q, q + s, …` below the extent — `size` of them — are reached
/// by the kernel indices `k0, k0 + s, …` — `taps` of them — and tap `j`
/// of result index `r` reads output coordinate `r + e − j`.
#[derive(Clone, Copy)]
struct Axis {
    size: usize,
    k0: usize,
    taps: usize,
    e: usize,
}

impl Axis {
    fn new(q: usize, extent: usize, geo: &ConvGeometry) -> Self {
        let (s, k, p) = (geo.stride, geo.k, geo.padding);
        let k0 = (q + p) % s;
        Axis {
            size: extent.saturating_sub(q).div_ceil(s),
            k0,
            taps: if k0 < k { (k - 1 - k0) / s + 1 } else { 0 },
            e: (q + p) / s,
        }
    }

    /// Zero rows (columns) the staged `dOut` needs before its first so that
    /// no tap of this phase reads before the plane.
    fn border(&self) -> usize {
        self.taps.saturating_sub(1).saturating_sub(self.e)
    }

    /// Rows (columns) of a staged `dOut` with `border` that this phase's
    /// taps read.
    fn extent(&self, border: usize) -> usize {
        if self.taps == 0 {
            0
        } else {
            border + self.size + self.e
        }
    }

    /// `(kernel index, offset)` of each tap, `step` floats per coordinate.
    fn taps(self, s: usize, border: usize, step: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..self.taps).map(move |j| (self.k0 + j * s, (self.e + border - j) * step))
    }
}

/// One phase of the input gradient: its pixels' result plane, its taps, and
/// where its results and masks start.
#[derive(Clone, Copy)]
struct Phase {
    ay: Axis,
    ax: Axis,
    pl: Planes,
    taps: Taps,
    /// Offset of the phase's result plane inside a channel.
    off: usize,
    /// Offset of the phase's masks in the mask table.
    mask: usize,
}

impl Phase {
    /// A phase of no pixels and no taps, to fill an array with.
    const EMPTY: Phase = Phase {
        ay: Axis { size: 0, k0: 0, taps: 0, e: 0 },
        ax: Axis { size: 0, k0: 0, taps: 0, e: 0 },
        pl: Planes { rows: 0, cols: 0, wp: 0, width: 0, split: false },
        taps: Taps { ny: 0, nx: 0, ty: [0; MAX_K], tx: [0; MAX_K], ky: [0; MAX_K], kx: [0; MAX_K] },
        off: 0,
        mask: 0,
    };

    fn mask_len(&self) -> usize {
        self.taps.count() * self.pl.run_count() * LANES
    }
}

/// `dX = Wᵀ ∗ dOut` for a layer [`applies`] accepts; every element of `dx`
/// is overwritten with the sum, over ascending `(ky, kx)` from `+0.0`, of
/// the fused chains over ascending `co` from `+0.0` of the taps that reach
/// it.
pub(crate) fn grad_input(
    w: &[f32],
    dout: &[f32],
    dx: &mut [f32],
    geo: &ConvGeometry,
    n: usize,
    c_out: usize,
    parallel: bool,
) {
    let (c_in, k, kk, s) = (geo.c_in, geo.k, geo.k * geo.k, geo.stride);
    let (ho, wo) = (geo.h_out(), geo.w_out());
    let hw_in = geo.h * geo.w;
    // The phases' axes, the border that keeps every tap inside the staged
    // dOut, and that dOut's extent.
    let rows = |q: usize| Axis::new(q, geo.h, geo);
    let cols = |q: usize| Axis::new(q, geo.w, geo);
    let border = (0..s).map(|q| rows(q).border().max(cols(q).border())).max().unwrap_or(0);
    let st = Stage {
        h: ho,
        w: wo,
        s: 1,
        border,
        phases: 1,
        hp: (0..s).map(|q| rows(q).extent(border)).max().unwrap_or(0),
        wp: (0..s).map(|q| cols(q).extent(border)).max().unwrap_or(0),
    };
    let mut phases = [Phase::EMPTY; MAX_STRIDE * MAX_STRIDE];
    let (mut off, mut mask, mut need) = (0, 0, 0);
    for (q, phase) in phases.iter_mut().take(s * s).enumerate() {
        let (ay, ax) = (rows(q / s), cols(q % s));
        let taps = Taps::new(ay.taps(s, border, st.wp), ax.taps(s, border, 1));
        let pl = Planes::new(ay.size, ax.size, st.wp);
        *phase = Phase { ay, ax, pl, taps, off, mask };
        if taps.count() > 0 {
            need = need.max(pl.need(c_out, st.pitch(), &taps));
        }
        (off, mask) = (off + pl.len(), mask + phase.mask_len());
    }
    let phases = &phases[..s * s];
    // Weights per tile of ≤ ROWS input channels, in the order the kernel
    // reads them: tap, then output channel, then the tile's channels.
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
    // valid[phase][tap][run][lane]: all ones where the tap of that pixel
    // lies inside dOut — where the scatter adds it — else all zeros.
    let ones = f32::from_bits(u32::MAX);
    let mut valid = workspace::take(mask);
    for ph in phases {
        let table = &mut valid[ph.mask..ph.mask + ph.mask_len()];
        let mut lanes = table.chunks_exact_mut(LANES);
        for j in 0..ph.taps.ny {
            for i in 0..ph.taps.nx {
                for ((_, dst, live), lanes) in ph.pl.runs().zip(&mut lanes) {
                    for (lane, at) in ph.pl.lanes(dst, live) {
                        let (r, c) = (at / ph.pl.width, at % ph.pl.width);
                        let oy = (r + ph.ay.e).checked_sub(j).filter(|&oy| oy < ho);
                        let ox = (c + ph.ax.e).checked_sub(i).filter(|&ox| ox < wo);
                        if oy.is_some() && ox.is_some() {
                            lanes[lane] = ones;
                        }
                    }
                }
            }
        }
    }
    let isa = Isa::current();
    let stage_len = st.scratch_len(c_out, need);
    // Past stride 1 the phases' results are gathered into a scratch image
    // and interleaved into dX; at stride 1 the one phase is dX itself. A
    // phase no tap reaches is never written: its scratch stays +0.0.
    let res_len = if s == 1 { 0 } else { c_in * hw_in };
    let gather = |ds: &[f32], out: &mut [f32]| {
        for ph in phases.iter().filter(|ph| ph.taps.count() > 0) {
            let mask = &valid[ph.mask..ph.mask + ph.mask_len()];
            for (rows, count, ci) in tile_groups(c_in) {
                let wt = &wt[ci.start * kk * c_out..ci.end * kk * c_out];
                let out = &mut out[ci.start * hw_in + ph.off..];
                let geo = (k, c_out, st.pitch(), hw_in);
                grad_input_rows(isa, (rows, count), ph, geo, wt, ds, mask, out);
            }
        }
    };
    for_image_parts(n, parallel, stage_len + res_len, dx, c_in * hw_in, |scratch, imgs, dx| {
        let (dpad, res) = scratch.split_at_mut(stage_len);
        for (img, dx) in imgs.zip(dx.chunks_exact_mut(c_in * hw_in)) {
            let ds = st.operand(dout, img, c_out, need, &mut *dpad);
            if s == 1 {
                gather(ds, dx);
                continue;
            }
            let res = &mut res[..res_len];
            gather(ds, res);
            // Row iy of dX interleaves row iy / 2 of phases (iy mod 2, 0)
            // and (iy mod 2, 1).
            let w = geo.w;
            for (res, dx) in res.chunks_exact(hw_in).zip(dx.chunks_exact_mut(hw_in)) {
                for (iy, row) in dx.chunks_exact_mut(w).enumerate() {
                    let (even, odd) = (&phases[2 * (iy % 2)], &phases[2 * (iy % 2) + 1]);
                    let at = |ph: &Phase| &res[ph.off + iy / 2 * ph.ax.size..][..ph.ax.size];
                    let (even, odd) = (at(even), at(odd));
                    for (pair, (&a, &b)) in row.chunks_exact_mut(2).zip(even.iter().zip(odd)) {
                        pair.copy_from_slice(&[a, b]);
                    }
                    if w % 2 == 1 {
                        row[w - 1] = even[w / 2];
                    }
                }
            }
        }
    });
}

/// The input-gradient results of phase `ph` for `count` register tiles of
/// `rows` input channels each (`out`, planes `plane_len` apart), tile by
/// tile: with `(k, c, pitch, plane_len) = geo`, every run pair of the
/// phase's plane reads `c` staged `dOut` channels of `pitch` floats, `wt`
/// (each tile's weights for all `k²` taps, one tile after the other) and
/// the phase's masks `valid`.
#[allow(clippy::too_many_arguments)]
fn grad_input_rows(
    isa: Isa,
    (rows, count): (usize, usize),
    ph: &Phase,
    geo: (usize, usize, usize, usize),
    wt: &[f32],
    ds: &[f32],
    valid: &[f32],
    out: &mut [f32],
) {
    let (k, c, pitch, plane_len) = geo;
    let (taps, pl) = (&ph.taps, &ph.pl);
    let tile_len = rows * c * k * k;
    assert_eq!(wt.len(), count * tile_len, "direct conv: packed weight length");
    assert!(taps.ky[..taps.ny].iter().chain(&taps.kx[..taps.nx]).all(|&t| t < k));
    assert!(pl.need(c, pitch, taps) <= ds.len(), "direct conv: run outside its planes");
    assert_eq!(valid.len(), taps.count() * pl.run_count() * LANES, "direct conv: mask length");
    let planes = count * rows;
    assert!((planes - 1) * plane_len + pl.len() <= out.len(), "direct conv: result length");
    #[cfg(target_arch = "x86_64")]
    if isa.avx2() {
        // SAFETY: `isa.avx2()` holds only on a tier runtime
        // detection found, so this CPU has AVX2 and FMA; `wt` holds
        // `count` tiles of `k²·c` rows of `rows` weights and every tap's
        // kernel indices are below `k`, every run's loads from `ds` are in
        // bounds (`need`
        // covers the last run), `valid` holds LANES floats for each (tap,
        // run) and `out` holds `count · rows` planes of every run's
        // results, all asserted above.
        unsafe {
            let (wt, ds, valid, out) = (wt.as_ptr(), ds.as_ptr(), valid.as_ptr(), out.as_mut_ptr());
            let args = (count, taps, pl, geo);
            tile_kernel!(rows, pl.split, grad_input_rows(args, wt, ds, valid, out));
        }
        return;
    }
    let _ = isa;
    let run_count = pl.run_count();
    for (tile, wt) in wt.chunks_exact(tile_len).enumerate() {
        let out = &mut out[tile * rows * plane_len..];
        for (t, (src, dst)) in pl.tiles().enumerate() {
            // The mask of a last, odd run's stand-in partner is never used for
            // a stored lane; it reads the run's own.
            let runs = [2 * t, (2 * t + 1).min(run_count - 1)];
            let mut sum = [[0.0f32; 2 * LANES]; ROWS];
            for j in 0..taps.ny {
                for i in 0..taps.nx {
                    let at = taps.ty[j] + taps.tx[i];
                    let tap = j * taps.nx + i;
                    let wt = &wt[(taps.ky[j] * k + taps.kx[i]) * c * rows..][..c * rows];
                    let mut acc = [[0.0f32; 2 * LANES]; ROWS];
                    for (co, a) in wt.chunks_exact(rows).enumerate() {
                        let b = src.map(|s| pl.load(ds, co * pitch + s + at));
                        for (acc, &a) in acc.iter_mut().zip(a) {
                            for (v, b) in b.iter().enumerate() {
                                for (slot, &b) in acc[v * LANES..].iter_mut().zip(b) {
                                    *slot = a.mul_add(b, *slot);
                                }
                            }
                        }
                    }
                    for (sum, acc) in sum.iter_mut().zip(&acc).take(rows) {
                        for (v, &run) in runs.iter().enumerate() {
                            let mask = &valid[(tap * run_count + run) * LANES..][..LANES];
                            let lanes = sum[v * LANES..].iter_mut().zip(&acc[v * LANES..]);
                            for ((slot, &a), &m) in lanes.zip(mask) {
                                *slot += f32::from_bits(a.to_bits() & m.to_bits());
                            }
                        }
                    }
                }
            }
            store_tile(&sum, rows, pl, out, plane_len, dst);
        }
    }
}

/// Taps of a weight-gradient register tile with `vecs` vectors of output
/// channels. The accumulators, one `dOut` vector per vector of channels
/// and the broadcast `x` must fit the sixteen registers — a spilled
/// accumulator puts a store and a reload on its chain.
fn dw_taps(vecs: usize) -> usize {
    match vecs {
        0 | 1 => 12,
        2 => 6,
        3 => 3,
        _ => 2,
    }
}

/// Floats of staged `x` and transposed `dOut` a weight-gradient part works
/// on at once (256 KiB, a quarter of an L2): as many whole images as fit, at
/// least one. Small planes come many to a group, so that a register tile's
/// accumulators are loaded and stored once per group, not once per image.
const DW_GROUP: usize = 1 << 16;

/// `dW = dOut ∗ x` for a layer [`applies`] accepts; every element of `dw`
/// is overwritten. Each element is the fused chain over ascending
/// `(img, oy, ox)` from `+0.0`. Threads split the tiles — a tile is a run
/// of taps × a block of output channels; each part stages the channels its
/// taps read and transposes `dOut` for itself.
pub(crate) fn grad_weight(
    x: &[f32],
    dout: &[f32],
    dw: &mut [f32],
    geo: &ConvGeometry,
    n: usize,
    c_out: usize,
    parallel: bool,
) {
    let st = Stage::input(geo);
    let (xy, pl) = (st.input_taps(geo.k), Planes::new(geo.h_out(), geo.w_out(), st.wp));
    let (c_in, taps, pitch) = (geo.c_in, geo.patch_rows(), st.pitch());
    let (hw_in, hw_out) = (geo.h * geo.w, pl.len());
    // Output channels: `blocks` blocks of `vb` vectors, `cr` lanes in all.
    let vecs = c_out.div_ceil(LANES);
    let blocks = vecs.div_ceil(DW_VECS);
    let vb = vecs.div_ceil(blocks);
    let (cb, cr) = (vb * LANES, blocks * vb * LANES);
    let nt = dw_taps(vb);
    let units = taps.div_ceil(nt) * blocks;
    let parts = if parallel { pool::num_threads().min(units).max(1) } else { 1 };
    // Per part: a group of staged images (none when x is read in place),
    // their dOut transposed to [pixel][cr], and the accumulators
    // [tap][cb] of the part's tiles.
    let in_place = st.in_place();
    let (x_len, dt_len) = (c_in * pitch, hw_out * cr);
    let xs_len = if in_place { 0 } else { x_len };
    let group = (DW_GROUP / (x_len + dt_len)).clamp(1, n);
    let part_len = group * (xs_len + dt_len) + units.div_ceil(parts) * nt * cb;
    let mut scratch = workspace::take(parts * part_len);
    let isa = Isa::current();
    pool::run_chunked(&mut scratch, part_len, |first, chunk| {
        for (part, scratch) in (first..).zip(chunk.chunks_exact_mut(part_len)) {
            let own = chunk_range(units, parts, part);
            let (xpad, rest) = scratch.split_at_mut(group * xs_len);
            let (dt, accs) = rest.split_at_mut(group * dt_len);
            let (t0, t1) = (own.start / blocks * nt, ((own.end - 1) / blocks + 1) * nt);
            let chans = t0 / (geo.k * geo.k)..(t1.min(taps) - 1) / (geo.k * geo.k) + 1;
            for img0 in (0..n).step_by(group) {
                let imgs = group.min(n - img0);
                for (img, dt) in (img0..img0 + imgs).zip(dt.chunks_exact_mut(dt_len)) {
                    if !in_place {
                        let at = (img - img0) * x_len + chans.start * pitch;
                        let planes =
                            (img * c_in + chans.start) * hw_in..(img * c_in + chans.end) * hw_in;
                        st.stage(&x[planes], &mut xpad[at..]);
                    }
                    let planes = &dout[img * c_out * hw_out..][..c_out * hw_out];
                    transpose_into(isa, planes, hw_out, dt, cr);
                }
                let xs = if in_place {
                    &x[img0 * x_len..(img0 + imgs) * x_len]
                } else {
                    &xpad[..imgs * x_len]
                };
                let dt = &dt[..imgs * dt_len];
                for (unit, acc) in own.clone().zip(accs.chunks_exact_mut(nt * cb)) {
                    // Offsets of the tile's taps in a staged image. A short
                    // last tile repeats its last tap; `dw` never reads those
                    // accumulators.
                    let first = unit / blocks * nt;
                    let mut at = [0usize; DW_ACCS];
                    for (j, at) in at.iter_mut().enumerate().take(nt) {
                        let tap = (first + j).min(taps - 1);
                        let (ci, ky, kx) =
                            (tap / (geo.k * geo.k), tap / geo.k % geo.k, tap % geo.k);
                        *at = ci * pitch + xy.ty[ky] + xy.tx[kx];
                    }
                    let block = (unit % blocks * cb, cr);
                    grad_weight_tile(isa, (nt, vb), &pl, x_len, xs, &at, dt, block, acc);
                }
            }
        }
    });
    for (part, scratch) in scratch.chunks_exact(part_len).enumerate() {
        let own = chunk_range(units, parts, part);
        let accs = scratch[group * (xs_len + dt_len)..].chunks_exact(nt * cb);
        for (unit, acc) in own.zip(accs) {
            let (first, co0) = (unit / blocks * nt, unit % blocks * cb);
            for (tap, acc) in (first..taps.min(first + nt)).zip(acc.chunks_exact(cb)) {
                for (co, &v) in (co0..c_out.min(co0 + cb)).zip(acc) {
                    dw[co * taps + tap] = v;
                }
            }
        }
    }
}

/// Writes the `c` planes of `hw` floats in `src` as `hw` rows of `cr ≥ c`
/// floats into `dst`: `dst[p·cr + ch] = src[ch·hw + p]`; lanes `c..cr` are
/// left as they are. Whole 8×8 blocks go through in-register transposes,
/// which move every bit pattern unchanged; the rest is copied one by one.
fn transpose_into(isa: Isa, src: &[f32], hw: usize, dst: &mut [f32], cr: usize) {
    let c = src.len() / hw.max(1);
    assert_eq!(src.len(), c * hw, "direct conv: planes length");
    assert!(c <= cr && dst.len() == hw * cr, "direct conv: transposed length");
    let (mut c8, mut p8) = (c / LANES * LANES, hw / LANES * LANES);
    #[cfg(target_arch = "x86_64")]
    if isa.avx2() && c8 > 0 && p8 > 0 {
        // SAFETY: `isa.avx2()` holds only on a tier runtime
        // detection found, so this CPU has AVX2 and FMA; the blocks
        // read channels below `c8 ≤ c` and pixels below `p8 ≤ hw` of `src`
        // and write rows below `p8` and lanes below `c8 ≤ cr` of `dst`,
        // whose lengths are asserted above.
        unsafe { avx::transpose_blocks(src.as_ptr(), (c8, hw, p8), dst.as_mut_ptr(), cr) };
    } else {
        (c8, p8) = (0, 0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        (c8, p8) = (0, 0);
    }
    for (p, lanes) in dst.chunks_exact_mut(cr).enumerate() {
        let first = if p < p8 { c8 } else { 0 };
        for (ch, slot) in (first..c).zip(&mut lanes[first..c]) {
            *slot = src[ch * hw + p];
        }
    }
}

/// One weight-gradient register tile: continues the chains of `nt` taps
/// (at offsets `at` of a staged image) × `vecs` vectors of output channels
/// in `acc` over the pixels of the images in `xs` (`x_len` floats each)
/// and `dt`, whose pixels are `cr` floats apart and whose vectors start
/// `c0` floats into a pixel.
#[allow(clippy::too_many_arguments)]
fn grad_weight_tile(
    isa: Isa,
    (nt, vecs): (usize, usize),
    pl: &Planes,
    x_len: usize,
    xs: &[f32],
    at: &[usize; DW_ACCS],
    dt: &[f32],
    (c0, cr): (usize, usize),
    acc: &mut [f32],
) {
    let (cb, imgs) = (vecs * LANES, xs.len() / x_len);
    assert_eq!(xs.len(), imgs * x_len, "direct conv: staged x length");
    assert_eq!(dt.len(), imgs * pl.len() * cr, "direct conv: transposed dOut length");
    assert!(c0 + cb <= cr, "direct conv: channel block outside dOut");
    assert_eq!(acc.len(), nt * cb, "direct conv: accumulator length");
    let last = (pl.rows - 1) * pl.wp + pl.cols - 1;
    assert!(at[..nt].iter().all(|&at| at + last < x_len), "direct conv: tap outside x");
    #[cfg(target_arch = "x86_64")]
    if isa.avx2() {
        // SAFETY: `isa.avx2()` holds only on a tier runtime
        // detection found, so this CPU has AVX2 and FMA; `xs` holds
        // `imgs` images of `x_len` floats, `dt` `cr` floats per pixel of
        // each with this block's `cb` inside them, `acc` `cb` per tap, and
        // each tap's offset plus the last pixel's is inside an image, all
        // asserted above.
        unsafe {
            let (x, dt, acc) = (xs.as_ptr(), dt.as_ptr().add(c0), acc.as_mut_ptr());
            match vecs {
                1 => avx::grad_weight_tile::<12, 1>(pl, imgs, x_len, x, at, dt, cr, acc),
                2 => avx::grad_weight_tile::<6, 2>(pl, imgs, x_len, x, at, dt, cr, acc),
                3 => avx::grad_weight_tile::<3, 3>(pl, imgs, x_len, x, at, dt, cr, acc),
                4 => avx::grad_weight_tile::<2, 4>(pl, imgs, x_len, x, at, dt, cr, acc),
                _ => unreachable!("a block is at most DW_VECS vectors"),
            }
        }
        return;
    }
    let _ = isa;
    let mut d = dt.chunks_exact(cr);
    for x in xs.chunks_exact(x_len) {
        for oy in 0..pl.rows {
            for ox in 0..pl.cols {
                let d = &d.next().expect("length asserted above")[c0..c0 + cb];
                for (acc, &at) in acc.chunks_exact_mut(cb).zip(at) {
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
    //! `Isa::avx2` holds (runtime detection found AVX2 and FMA)
    //! and assert every bound these rely on.

    use super::{Planes, Taps, Tile, DW_ACCS, LANES};

    /// `(k, c, pitch, plane_len)` of an input-gradient call.
    type Geo = (usize, usize, usize, usize);
    use crate::gemm::{lanes_below, transpose8};
    use core::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_and_ps, _mm256_broadcast_ss, _mm256_castps128_ps256,
        _mm256_extractf128_ps, _mm256_fmadd_ps, _mm256_loadu2_m128, _mm256_loadu_ps,
        _mm256_maskstore_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };

    /// The 8×8 blocks of [`super::transpose_into`]: channels `0..c8` ×
    /// pixels `0..p8` of the planes `src` (`hw` floats each) into rows of
    /// `cr` floats of `dst`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA; `c8` and `p8` are multiples of [`LANES`];
    /// `src` must be readable for `c8` planes of `hw ≥ p8` floats and `dst`
    /// writable for `p8` rows of `cr ≥ c8` floats.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn transpose_blocks(
        src: *const f32,
        (c8, hw, p8): (usize, usize, usize),
        dst: *mut f32,
        cr: usize,
    ) {
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee.
        unsafe {
            for c0 in (0..c8).step_by(LANES) {
                for p0 in (0..p8).step_by(LANES) {
                    let mut rows = [_mm256_setzero_ps(); LANES];
                    for (i, row) in rows.iter_mut().enumerate() {
                        *row = _mm256_loadu_ps(src.add((c0 + i) * hw + p0));
                    }
                    for (j, &col) in transpose8(rows).iter().enumerate() {
                        _mm256_storeu_ps(dst.add((p0 + j) * cr + c0), col);
                    }
                }
            }
        }
    }

    /// One run's [`LANES`] values at `at`: contiguous, or, when `SPLIT`,
    /// half of them at `at` and half at `at + high` ([`Planes::load`]).
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA; the floats read must be readable.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn load_run<const SPLIT: bool>(at: *const f32, high: usize) -> __m256 {
        // SAFETY: the caller guarantees both halves are readable.
        unsafe {
            if SPLIT {
                _mm256_loadu2_m128(at.add(high), at)
            } else {
                _mm256_loadu_ps(at)
            }
        }
    }

    /// `acc[r][v] ← fma(w[r], b[v], acc[r][v])` for the `R` weights at `wt`
    /// and the two runs `b`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA; `wt` must be readable for `R` floats.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn fma_rows<const R: usize>(acc: &mut [[__m256; 2]; R], wt: *const f32, b: [__m256; 2]) {
        // SAFETY: the caller guarantees `R` readable weights.
        unsafe {
            for (r, acc) in acc.iter_mut().enumerate() {
                let a = _mm256_broadcast_ss(&*wt.add(r));
                acc[0] = _mm256_fmadd_ps(a, b[0], acc[0]);
                acc[1] = _mm256_fmadd_ps(a, b[1], acc[1]);
            }
        }
    }

    /// Stores the `live` results of a run at `at`: the first `live` lanes
    /// of `v`, or, when `SPLIT`, up to `cols` lanes of each half — the low
    /// half at `at`, the high half at `at + cols` — and none past them.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA; the result lanes' addresses must be writable.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn store_run<const SPLIT: bool>(at: *mut f32, live: usize, cols: usize, v: __m256) {
        // SAFETY: a full run is `LANES` writable floats; a masked store
        // writes, and touches, only the lanes below its count.
        unsafe {
            if !SPLIT && live == LANES {
                _mm256_storeu_ps(at, v);
            } else if !SPLIT {
                _mm256_maskstore_ps(at, lanes_below(live), v);
            } else {
                let low = live.min(cols);
                _mm256_maskstore_ps(at, lanes_below(low), v);
                let high = _mm256_castps128_ps256(_mm256_extractf128_ps::<1>(v));
                _mm256_maskstore_ps(at.add(cols), lanes_below(live - low), high);
            }
        }
    }

    /// `count · R` result planes of `pl` at `y`, one register tile — `R`
    /// output channels × two runs — at a time: `acc ← fma(w, x, acc)` in ascending
    /// `(ci, ky, kx)` from `+0.0`, stored straight into the planes.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. `wt` must hold `count` tiles of
    /// `c · taps.count()` rows of `R` weights; the run at
    /// `x + src + ci·pitch + ty + tx` must be readable as [`Planes::load`]
    /// reads it for every run's `src`, channel and tap; `y` must be writable
    /// for `count · R · pl.len()` floats.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn forward_rows<const R: usize, const SPLIT: bool>(
        count: usize,
        taps: &Taps,
        (c, pitch): (usize, usize),
        wt: *const f32,
        x: *const f32,
        pl: &Planes,
        y: *mut f32,
    ) {
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee.
        unsafe {
            for tile in 0..count {
                let (wt, y) = (wt.add(tile * R * c * taps.count()), y.add(tile * R * pl.len()));
                for (src, dst) in pl.tiles() {
                    let mut acc = [[_mm256_setzero_ps(); 2]; R];
                    let mut wt = wt;
                    if taps.count() == 1 {
                        // One tap (1×1): a plain walk over the channels.
                        let at = taps.ty[0] + taps.tx[0];
                        let (mut r0, mut r1) = (x.add(at + src[0]), x.add(at + src[1]));
                        for _ in 0..c {
                            let b = [load_run::<SPLIT>(r0, pl.wp), load_run::<SPLIT>(r1, pl.wp)];
                            fma_rows(&mut acc, wt, b);
                            (wt, r0, r1) = (wt.add(R), r0.add(pitch), r1.add(pitch));
                        }
                    } else {
                        for ci in 0..c {
                            let plane = x.add(ci * pitch);
                            for &ty in &taps.ty[..taps.ny] {
                                let (r0, r1) = (plane.add(ty + src[0]), plane.add(ty + src[1]));
                                for &tx in &taps.tx[..taps.nx] {
                                    let b0 = load_run::<SPLIT>(r0.add(tx), pl.wp);
                                    let b1 = load_run::<SPLIT>(r1.add(tx), pl.wp);
                                    fma_rows(&mut acc, wt, [b0, b1]);
                                    wt = wt.add(R);
                                }
                            }
                        }
                    }
                    for (r, acc) in acc.iter().enumerate() {
                        let plane = y.add(r * pl.len());
                        store_run::<SPLIT>(plane.add(dst[0].0), dst[0].1, pl.cols, acc[0]);
                        store_run::<SPLIT>(plane.add(dst[1].0), dst[1].1, pl.cols, acc[1]);
                    }
                }
            }
        }
    }

    /// `count · R` input channels' results of one input-gradient phase, one
    /// register tile — `R` channels × two runs — at a time: per tap in
    /// ascending `(ky, kx)` the chain `acc ← fma(w, dOut, acc)` over
    /// ascending `co` from `+0.0`, masked, then added to the pixel's sum
    /// from `+0.0`; the sums are stored straight into the planes.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA. With `(count, taps, pl, (k, c, pitch,
    /// plane_len))` the first argument: `wt` must hold `count` tiles of
    /// `k²·c` rows of `R` weights and every tap's kernel indices must be
    /// below `k`; the run at `d + src + co·pitch + ty + tx` must be
    /// readable as [`Planes::load`] reads it for every run's `src`, channel
    /// and tap;
    /// `valid` must hold [`LANES`] floats per tap and run of `pl`, and `out`
    /// must be writable for `(count·R − 1)·plane_len + pl.len()` floats.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn grad_input_rows<const R: usize, const SPLIT: bool>(
        (count, taps, pl, (k, c, pitch, plane_len)): (usize, &Taps, &Planes, Geo),
        wt: *const f32,
        d: *const f32,
        valid: *const f32,
        out: *mut f32,
    ) {
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee.
        unsafe {
            let run_count = pl.run_count();
            for tile in 0..count {
                let (wt, out) = (wt.add(tile * R * c * k * k), out.add(tile * R * plane_len));
                for (t, (src, dst)) in pl.tiles().enumerate() {
                    let runs = [2 * t, (2 * t + 1).min(run_count - 1)];
                    // Twelve chains keep both FMA ports busy; the pixels' sums
                    // live in memory meanwhile and are touched once per tap.
                    let mut sums: Tile = [[0.0; 2 * LANES]; super::ROWS];
                    let sums = sums.as_mut_ptr().cast::<f32>();
                    let mut tap = 0;
                    for (&ty, &ky) in taps.ty[..taps.ny].iter().zip(&taps.ky) {
                        for (&tx, &kx) in taps.tx[..taps.nx].iter().zip(&taps.kx) {
                            let mut w = wt.add((ky * k + kx) * c * R);
                            let mut acc = [[_mm256_setzero_ps(); 2]; R];
                            let mut plane = d.add(ty + tx);
                            for _ in 0..c {
                                let b0 = load_run::<SPLIT>(plane.add(src[0]), pl.wp);
                                let b1 = load_run::<SPLIT>(plane.add(src[1]), pl.wp);
                                fma_rows(&mut acc, w, [b0, b1]);
                                w = w.add(R);
                                plane = plane.add(pitch);
                            }
                            let m0 =
                                _mm256_loadu_ps(valid.add((tap * run_count + runs[0]) * LANES));
                            let m1 =
                                _mm256_loadu_ps(valid.add((tap * run_count + runs[1]) * LANES));
                            for (r, acc) in acc.iter().enumerate() {
                                let (lo, hi) =
                                    (sums.add(2 * r * LANES), sums.add((2 * r + 1) * LANES));
                                _mm256_storeu_ps(
                                    lo,
                                    _mm256_add_ps(_mm256_loadu_ps(lo), _mm256_and_ps(acc[0], m0)),
                                );
                                _mm256_storeu_ps(
                                    hi,
                                    _mm256_add_ps(_mm256_loadu_ps(hi), _mm256_and_ps(acc[1], m1)),
                                );
                            }
                            tap += 1;
                        }
                    }
                    for r in 0..R {
                        let plane = out.add(r * plane_len);
                        let (lo, hi) = (sums.add(2 * r * LANES), sums.add((2 * r + 1) * LANES));
                        store_run::<SPLIT>(
                            plane.add(dst[0].0),
                            dst[0].1,
                            pl.cols,
                            _mm256_loadu_ps(lo),
                        );
                        store_run::<SPLIT>(
                            plane.add(dst[1].0),
                            dst[1].1,
                            pl.cols,
                            _mm256_loadu_ps(hi),
                        );
                    }
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
    /// Requires AVX2 and FMA. `dt + pixel·cr` must hold `NV · LANES` floats
    /// for every pixel of every image, `acc` as many per tap, and
    /// `x + img·x_len + at[t] + oy·wp + ox` must be readable for every
    /// image, tap `t < NT` and pixel.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn grad_weight_tile<const NT: usize, const NV: usize>(
        pl: &Planes,
        imgs: usize,
        x_len: usize,
        x: *const f32,
        at: &[usize; DW_ACCS],
        dt: *const f32,
        cr: usize,
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
                        d = d.add(cr);
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
