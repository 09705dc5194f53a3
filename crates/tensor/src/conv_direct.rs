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
//!   │ 0  0  0  0  0  0  0  0  0│   run = 8 (16) result pixels of a row:
//!   │ 0  ·  ·  ·  ·  ·  ·  ·  0│     src = row·wp + c0   (in a phase plane)
//!   │ 0  ·  [src … src+7]  ·  0│     dst = row·cols + c0 (in the result)
//!   │ 0  ·  ·  ·  ·  ·  ·  ·  0│   tap (ky, kx) of all its pixels is the
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
//! is read in place, a 1×1 stride-2 one is its phase-(0,0) plane. A plane
//! narrower than half a vector puts two rows (or, at 16 lanes, four) in one
//! run ([`Planes`]).
//!
//! # Same bits
//!
//! * **Forward** and **weight gradient** are the engine's chains: one
//!   accumulator per element from `+0.0`, `acc ← fma(a, b, acc)`, ascending
//!   `(ci, ky, kx)` resp. `(img, oy, ox)`. Phase planes change where a tap
//!   is read, not the order taps are taken in. The weight gradient's chain
//!   runs over pixels, so its lanes are *output channels* (`dOut` is
//!   transposed once per image to `[pixel][c_out↑lanes]`, `x` is broadcast from
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
//! # Vector width
//!
//! Every kernel is written once over `gemm`'s `Lanes` and runs at 8 lanes
//! (`ymm`, AVX2 + FMA) or 16 (`zmm`, AVX-512F), and has a scalar twin that
//! runs the identical operations through [`f32::mul_add`]. The width
//! follows from the tier [`Isa`] resolved and the layer: forward and input
//! gradient run 16-lane runs on the 512-bit tier ([`run_lanes`]); the
//! weight gradient, whose lanes are output channels, runs 16 lanes there
//! only past 8 of them ([`dw_lanes`]), and below that packs 2 or 4
//! adjacent taps of a stride-1 layer into one vector ([`dw_packing`]).
//! Lanes are distinct output elements, so every width agrees bit for bit,
//! as do all thread counts (threads split images, or weight-gradient
//! tiles; no element's chain is ever split).

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

/// f32 lanes of an 8-lane (`ymm`) run: the AVX2 tiles, and the scalar
/// twins, which lay their runs out as those do.
const NARROW: usize = 8;

/// f32 lanes of a 16-lane (`zmm`) run: the 512-bit tier's tiles.
const WIDE: usize = 16;

/// Rows (output channels, resp. input channels) of the largest forward and
/// input-gradient register tile of `lanes`-lane runs: two runs of each row
/// are 12 accumulators of the sixteen `ymm` registers at 6 rows, 24 of the
/// thirty-two `zmm` at 12.
fn tile_rows(lanes: usize) -> usize {
    if lanes == WIDE {
        MAX_ROWS
    } else {
        NARROW_ROWS
    }
}

/// Rows of an 8-lane register tile, and of the scalar twins' tiles.
const NARROW_ROWS: usize = 6;

/// The most rows of any register tile.
const MAX_ROWS: usize = 12;

/// Most accumulators of a weight-gradient register tile (taps × vectors
/// of output channels, [`dw_taps`]).
const DW_ACCS: usize = 24;

/// Most vectors of output channels in one weight-gradient tile; wider
/// layers are cut into blocks of near-equal width.
const DW_VECS: usize = 4;

/// The results of one register tile: up to [`MAX_ROWS`] rows of two runs.
type Tile = [[f32; 2 * WIDE]; MAX_ROWS];

/// The results of one of the scalar twins' tiles, which lay their runs out
/// as the 8-lane tiles do: up to [`NARROW_ROWS`] rows of two runs.
type NarrowTile = [[f32; 2 * NARROW]; NARROW_ROWS];

/// The lanes of the runs the forward and input-gradient tiles of `isa` lay
/// out: 16 on the 512-bit tier, 8 on the others.
fn run_lanes(isa: Isa) -> usize {
    if isa.avx512() {
        WIDE
    } else {
        NARROW
    }
}

/// The lanes of the weight-gradient tile of `isa` for a layer of `c_out`
/// output channels: its lanes are output channels, so 16 lanes pay only
/// past 8 of them (a narrower layer would run dead lanes and transpose a
/// wider `dOut`).
fn dw_lanes(isa: Isa, c_out: usize) -> usize {
    if isa.avx512() && c_out > NARROW {
        WIDE
    } else {
        NARROW
    }
}

/// The register tiles of `c` rows — ⌈c / `most`⌉ tiles of near-equal
/// height, as [`chunk_range`] cuts them, taller ones first — as at most two
/// groups of equal height: `(height, tiles, rows)`.
fn tile_groups(c: usize, most: usize) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let tiles = c.div_ceil(most);
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

/// A result plane of `rows × cols` pixels whose runs of `lanes` pixels read
/// staged planes of row pitch `wp`. When the pitch is the width, the rows
/// are read as one `1 × rows·cols` row (`width` keeps the real one). When a
/// row is at most half a vector wide, a run holds `group` rows — 2, or 4 at
/// 16 lanes — one per [`Planes::seg`] lanes, so that narrow planes (8×8 at
/// 16 lanes, 4×4) fill whole vectors; a 4×4 plane is one 16-lane run.
#[derive(Clone, Copy)]
struct Planes {
    rows: usize,
    cols: usize,
    wp: usize,
    width: usize,
    lanes: usize,
    group: usize,
}

impl Planes {
    fn new(rows: usize, cols: usize, wp: usize, lanes: usize) -> Self {
        if wp == cols {
            let len = rows * cols;
            return Planes { rows: 1, cols: len, wp: len, width: cols, lanes, group: 1 };
        }
        // More rows per run while a row fits its lanes, the plane has the
        // rows, and — at 16 lanes, whose split runs are cut from two vectors
        // of the staged planes — the run's reach stays inside those two.
        let most = if lanes == WIDE { 4 } else { 2 };
        let mut pl = Planes { rows, cols, wp, width: cols, lanes, group: 1 };
        while pl.group < most && cols <= lanes / (2 * pl.group) && rows > pl.group {
            let wider = Planes { group: 2 * pl.group, ..pl };
            if lanes == WIDE && wider.reach() > 2 * WIDE {
                break;
            }
            pl = wider;
        }
        pl
    }

    /// Pixels of the plane.
    fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Lanes of a run that hold one of its rows.
    fn seg(&self) -> usize {
        self.lanes / self.group
    }

    /// Floats after a run's offset in a staged plane that its load reads:
    /// a row of `lanes`, or `group` rows `wp` apart of [`Planes::seg`] each.
    fn reach(&self) -> usize {
        (self.group - 1) * self.wp + self.seg()
    }

    /// Number of [`Planes::runs`].
    fn run_count(&self) -> usize {
        if self.group > 1 {
            self.rows.div_ceil(self.group)
        } else {
            self.rows * self.cols.div_ceil(self.lanes)
        }
    }

    /// The runs of `lanes` result pixels, row by row (a run never crosses
    /// a row, or its group of rows): each run's offset in a staged plane,
    /// its offset in the result plane, and how many of its lanes are
    /// results.
    fn runs(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (0..self.rows).step_by(self.group).flat_map(move |row| {
            (0..self.cols).step_by(self.lanes).map(move |c0| {
                let live = match self.group {
                    1 => self.lanes.min(self.cols - c0),
                    g => self.cols * (self.rows - row).min(g),
                };
                (row * self.wp + c0, row * self.cols + c0, live)
            })
        })
    }

    /// The register tiles: consecutive pairs of runs as
    /// `(src, [(dst, live); 2])`. A last, odd run is paired with itself and
    /// no result (`live` 0): the vector tiles run it alone.
    fn tiles(&self) -> impl Iterator<Item = ([usize; 2], [(usize, usize); 2])> + '_ {
        let mut runs = self.runs();
        std::iter::from_fn(move || {
            let (s0, d0, n0) = runs.next()?;
            let (s1, d1, n1) = runs.next().unwrap_or((s0, d0, 0));
            Some(([s0, s1], [(d0, n0), (d1, n1)]))
        })
    }

    /// The result-plane offsets of the live lanes of a run at `dst` with
    /// `live` results, as `(lane, offset)`: row `j` of a run's group sits
    /// in lanes `j·seg…` and at `dst + j·cols`.
    fn lanes(&self, dst: usize, live: usize) -> impl Iterator<Item = (usize, usize)> {
        let (seg, cols) = (self.seg(), if self.group > 1 { self.cols } else { live });
        (0..self.group).flat_map(move |j| {
            let n = live.saturating_sub(j * cols).min(cols);
            (0..n).map(move |i| (j * seg + i, dst + j * cols + i))
        })
    }

    /// One 8-lane run's staged values at `at`, as the vector kernels load
    /// them: the scalar twins' operand.
    fn load(&self, staged: &[f32], at: usize) -> [f32; NARROW] {
        const HALF: usize = NARROW / 2;
        assert_eq!(self.lanes, NARROW, "direct conv: scalar twins run 8-lane runs");
        let mut v = [0.0; NARROW];
        let high = if self.group > 1 { self.wp } else { HALF };
        v[..HALF].copy_from_slice(&staged[at..at + HALF]);
        v[HALF..].copy_from_slice(&staged[at + high..][..HALF]);
        v
    }

    /// Floats from the start of `c` staged channels of `pitch` that the
    /// runs' loads of `taps` reach.
    fn need(&self, c: usize, pitch: usize, taps: &Taps) -> usize {
        let last = match (self.len(), self.group) {
            (0, _) => 0,
            (_, 1) => (self.rows - 1) * self.wp + (self.cols - 1) / self.lanes * self.lanes,
            (_, g) => (self.rows - 1) / g * g * self.wp,
        };
        (c - 1) * pitch + taps.reach() + last + self.reach()
    }
}

/// Stores the first `rows` rows of `tile` into `rows` result planes of
/// `out`, `plane_len` apart, dropping the lanes that are not results.
fn store_tile(
    tile: &NarrowTile,
    rows: usize,
    pl: &Planes,
    out: &mut [f32],
    plane_len: usize,
    dst: [(usize, usize); 2],
) {
    for (r, row) in tile[..rows].iter().enumerate() {
        for (v, &(at, live)) in dst.iter().enumerate() {
            for (j, at) in pl.lanes(r * plane_len + at, live) {
                out[at] = row[v * NARROW + j];
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
    let isa = Isa::current();
    let st = Stage::input(geo);
    let (taps, pl) = (st.input_taps(geo.k), forward_planes(isa, geo));
    let (c_in, depth, pitch, hw_out) = (geo.c_in, geo.patch_rows(), st.pitch(), pl.len());
    let need = pl.need(c_in, pitch, &taps);
    // Weights, tile by tile of near-equal height, depth-major inside a
    // tile: the kernel walks one pointer.
    let tiles = c_out.div_ceil(tile_rows(pl.lanes));
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
    let part_len = st.scratch_len(c_in, need);
    for_image_parts(n, parallel, part_len, y, c_out * hw_out, |xpad, imgs, y| {
        for (img, y) in imgs.zip(y.chunks_exact_mut(c_out * hw_out)) {
            let xs = st.operand(x, img, c_in, need, &mut *xpad);
            for (rows, count, co) in tile_groups(c_out, tile_rows(pl.lanes)) {
                let wt = &wt[co.start * depth..co.end * depth];
                let y = &mut y[co.start * hw_out..co.end * hw_out];
                forward_rows(isa, (rows, count), &taps, (c_in, pitch), wt, xs, &pl, y);
            }
        }
    });
}

/// The result plane of a forward call of `isa`, with the runs its tiles
/// run at.
fn forward_planes(isa: Isa, geo: &ConvGeometry) -> Planes {
    Planes::new(geo.h_out(), geo.w_out(), Stage::input(geo).wp, run_lanes(isa))
}

/// Calls `avx::$kernel::<R, SPLIT>` for a register tile of `rows` ∈
/// `[$r …]` rows on a plane whose runs hold (not) more than one row.
#[cfg(target_arch = "x86_64")]
macro_rules! tile_kernel {
    ($kernel:ident, $rows:expr, $split:expr, [$($r:literal)*], $args:tt) => {
        match ($rows, $split) {
            $(
                ($r, false) => avx::$kernel::<$r, false> $args,
                ($r, true) => avx::$kernel::<$r, true> $args,
            )*
            _ => unreachable!("register tiles have 1..=tile_rows(lanes) rows"),
        }
    };
}

/// Calls the 8- or 16-lane form of `avx::$kernel` (`$kernel` + `_y8` /
/// `_z16`) for the runs of `$pl` and a register tile of `$rows` rows.
#[cfg(target_arch = "x86_64")]
macro_rules! run_kernel {
    ($y8:ident, $z16:ident, $pl:expr, $rows:expr, $args:tt) => {
        if $pl.lanes == WIDE {
            tile_kernel!($z16, $rows, $pl.group > 1, [1 2 3 4 5 6 7 8 9 10 11 12], $args)
        } else {
            tile_kernel!($y8, $rows, $pl.group > 1, [1 2 3 4 5 6], $args)
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
    assert!(pl.lanes == run_lanes(isa) && rows <= tile_rows(pl.lanes), "direct conv: tile");
    #[cfg(target_arch = "x86_64")]
    if isa.avx2() {
        // SAFETY: `isa.avx2()` holds only on a tier runtime detection found,
        // so this CPU has AVX2 and FMA, and 16-lane runs only on the 512-bit
        // tier (`run_lanes`), so AVX-512F with them; `wt` holds `count` tiles
        // of one row of `rows` weights per channel and tap, every run's
        // loads from `xs` are in bounds (`need` covers the last run) and `y`
        // holds `count · rows` planes of every run's results, all asserted
        // above.
        unsafe {
            let (wt, xs, y) = (wt.as_ptr(), xs.as_ptr(), y.as_mut_ptr());
            let args = (count, taps, (c, pitch), wt, xs, pl, y);
            run_kernel!(forward_rows_y8, forward_rows_z16, pl, rows, (args));
        }
        return;
    }
    let _ = isa;
    let tiles = wt.chunks_exact(rows * depth).zip(y.chunks_exact_mut(rows * pl.len()));
    for (wt, y) in tiles {
        for (src, dst) in pl.tiles() {
            let mut acc: NarrowTile = [[0.0; 2 * NARROW]; NARROW_ROWS];
            let mut wt = wt.chunks_exact(rows);
            for ci in 0..c {
                for &ty in &taps.ty[..taps.ny] {
                    for &tx in &taps.tx[..taps.nx] {
                        let at = ci * pitch + ty + tx;
                        let a = wt.next().expect("length asserted above");
                        let b = src.map(|s| pl.load(xs, s + at));
                        for (acc, &a) in acc.iter_mut().zip(a) {
                            for (v, b) in b.iter().enumerate() {
                                for (slot, &b) in acc[v * NARROW..].iter_mut().zip(b) {
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
        pl: Planes { rows: 0, cols: 0, wp: 0, width: 0, lanes: NARROW, group: 1 },
        taps: Taps { ny: 0, nx: 0, ty: [0; MAX_K], tx: [0; MAX_K], ky: [0; MAX_K], kx: [0; MAX_K] },
        off: 0,
        mask: 0,
    };

    fn mask_len(&self) -> usize {
        self.taps.count() * self.pl.run_count() * self.pl.lanes
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
    let isa = Isa::current();
    let (lanes, most) = (run_lanes(isa), tile_rows(run_lanes(isa)));
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
        let pl = Planes::new(ay.size, ax.size, st.wp, lanes);
        *phase = Phase { ay, ax, pl, taps, off, mask };
        if taps.count() > 0 {
            need = need.max(pl.need(c_out, st.pitch(), &taps));
        }
        (off, mask) = (off + pl.len(), mask + phase.mask_len());
    }
    let phases = &phases[..s * s];
    // Weights per register tile of input channels, in the order the kernel
    // reads them: tap, then output channel, then the tile's channels.
    let tiles = c_in.div_ceil(most);
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
        let mut runs = table.chunks_exact_mut(lanes);
        for j in 0..ph.taps.ny {
            for i in 0..ph.taps.nx {
                for ((_, dst, live), lanes) in ph.pl.runs().zip(&mut runs) {
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
    let stage_len = st.scratch_len(c_out, need);
    // Past stride 1 the phases' results are gathered into a scratch image
    // and interleaved into dX; at stride 1 the one phase is dX itself. A
    // phase no tap reaches is never written: its scratch stays +0.0.
    let res_len = if s == 1 { 0 } else { c_in * hw_in };
    let gather = |ds: &[f32], out: &mut [f32]| {
        for ph in phases.iter().filter(|ph| ph.taps.count() > 0) {
            let mask = &valid[ph.mask..ph.mask + ph.mask_len()];
            for (rows, count, ci) in tile_groups(c_in, most) {
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
    assert_eq!(valid.len(), ph.mask_len(), "direct conv: mask length");
    let planes = count * rows;
    assert!((planes - 1) * plane_len + pl.len() <= out.len(), "direct conv: result length");
    assert!(pl.lanes == run_lanes(isa) && rows <= tile_rows(pl.lanes), "direct conv: tile");
    #[cfg(target_arch = "x86_64")]
    if isa.avx2() {
        // SAFETY: `isa.avx2()` holds only on a tier runtime detection found,
        // so this CPU has AVX2 and FMA, and 16-lane runs only on the 512-bit
        // tier (`run_lanes`), so AVX-512F with them; `wt` holds `count` tiles
        // of `k²·c` rows of `rows` weights and every tap's kernel indices
        // are below `k`, every run's loads from `ds` are in bounds (`need`
        // covers the last run), `valid` holds `pl.lanes` floats for each
        // (tap, run) and `out` holds `count · rows` planes of every run's
        // results, all asserted above.
        unsafe {
            let (wt, ds, valid, out) = (wt.as_ptr(), ds.as_ptr(), valid.as_ptr(), out.as_mut_ptr());
            let args = ((count, taps, pl, geo), wt, ds, valid, out);
            run_kernel!(grad_input_rows_y8, grad_input_rows_z16, pl, rows, (args));
        }
        return;
    }
    let _ = isa;
    let (run_count, n) = (pl.run_count(), NARROW);
    for (tile, wt) in wt.chunks_exact(tile_len).enumerate() {
        let out = &mut out[tile * rows * plane_len..];
        for (t, (src, dst)) in pl.tiles().enumerate() {
            // The mask of a last, odd run's stand-in partner is never used for
            // a stored lane; it reads the run's own.
            let runs = [2 * t, (2 * t + 1).min(run_count - 1)];
            let mut sum: NarrowTile = [[0.0; 2 * NARROW]; NARROW_ROWS];
            for j in 0..taps.ny {
                for i in 0..taps.nx {
                    let at = taps.ty[j] + taps.tx[i];
                    let tap = j * taps.nx + i;
                    let wt = &wt[(taps.ky[j] * k + taps.kx[i]) * c * rows..][..c * rows];
                    let mut acc: NarrowTile = [[0.0; 2 * NARROW]; NARROW_ROWS];
                    for (co, a) in wt.chunks_exact(rows).enumerate() {
                        let b = src.map(|s| pl.load(ds, co * pitch + s + at));
                        for (acc, &a) in acc.iter_mut().zip(a) {
                            for (v, b) in b.iter().enumerate() {
                                for (slot, &b) in acc[v * n..].iter_mut().zip(b) {
                                    *slot = a.mul_add(b, *slot);
                                }
                            }
                        }
                    }
                    for (sum, acc) in sum.iter_mut().zip(&acc).take(rows) {
                        for (v, &run) in runs.iter().enumerate() {
                            let mask = &valid[(tap * run_count + run) * n..][..n];
                            let lanes = sum[v * n..].iter_mut().zip(&acc[v * n..]);
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

/// Taps of a weight-gradient register tile with `vecs` vectors of `lanes`
/// output channels. The accumulators, one `dOut` vector per vector of
/// channels and the broadcast `x` must fit the registers — sixteen `ymm`,
/// thirty-two `zmm` — since a spilled accumulator puts a store and a
/// reload on its chain.
fn dw_taps(lanes: usize, vecs: usize) -> usize {
    match (lanes, vecs) {
        (WIDE, 0..=2) => 12,
        (WIDE, 3) => 8,
        (WIDE, _) => 6,
        (_, 0 | 1) => 12,
        (_, 2) => 6,
        (_, 3) => 3,
        _ => 2,
    }
}

/// Taps of the weight-gradient tiles of `vecs` vectors of `lanes` output
/// channels on a layer of `taps` taps: [`dw_taps`], or at 16 lanes the
/// near-equal height of the fewest tiles of at most that many — a short
/// last tile repeats its last tap, and a layer of few taps (a 1×1 layer
/// of 4 input channels) would otherwise run mostly repeats.
fn dw_tile_taps(lanes: usize, vecs: usize, taps: usize) -> usize {
    let most = dw_taps(lanes, vecs);
    if lanes == WIDE {
        taps.div_ceil(taps.div_ceil(most).max(1)).max(1)
    } else {
        most
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
    let isa = Isa::current();
    let st = Stage::input(geo);
    // The tile reads `x` one pixel at a time: the result plane's runs only
    // give its rows and pitch.
    let (xy, pl) = (st.input_taps(geo.k), Planes::new(geo.h_out(), geo.w_out(), st.wp, NARROW));
    let (c_in, k, taps, pitch) = (geo.c_in, geo.k, geo.patch_rows(), st.pitch());
    let (hw_in, hw_out) = (geo.h * geo.w, pl.len());
    // A tile runs taps one at a time, or (`g` > 1, [`dw_packing`]) groups
    // of `g` adjacent taps of a kernel row: `kg` groups per row, `per` per
    // input channel, `groups` in all.
    let g = dw_packing(isa, geo, c_out, st.in_place());
    let (kg, in_place) = (k.div_ceil(g), st.in_place());
    let (per, groups) = (k * kg, c_in * k * kg);
    // Output channels: `blocks` blocks of `vb` vectors of `lanes`, `cb`
    // lanes per tile, `cr` per transposed `dOut` pixel. A packed tile is
    // one 16-lane vector of `16 / g` channels × `g` taps.
    let lanes = if g > 1 { WIDE } else { dw_lanes(isa, c_out) };
    let vecs = if g > 1 { 1 } else { c_out.div_ceil(lanes) };
    let blocks = vecs.div_ceil(DW_VECS);
    let vb = vecs.div_ceil(blocks);
    let cb = vb * lanes;
    let cr = if g > 1 { NARROW } else { blocks * cb };
    let nt = dw_tile_taps(lanes, vb, groups);
    let units = groups.div_ceil(nt) * blocks;
    let parts = if parallel { pool::num_threads().min(units).max(1) } else { 1 };
    // Per part: a group of staged images (none when x is read in place;
    // a packed tile's dead lanes read up to `g − 1` floats past the last
    // one), their dOut transposed to [pixel][cr], and the accumulators
    // [tap group][cb] of the part's tiles.
    let (x_len, dt_len) = (c_in * pitch, hw_out * cr);
    let xs_len = if in_place { 0 } else { x_len };
    let group = (DW_GROUP / (x_len + dt_len)).clamp(1, n);
    let xpad_len = group * xs_len + g - 1;
    let part_len = xpad_len + group * dt_len + units.div_ceil(parts) * nt * cb;
    let mut scratch = workspace::take(parts * part_len);
    pool::run_chunked(&mut scratch, part_len, |first, chunk| {
        for (part, scratch) in (first..).zip(chunk.chunks_exact_mut(part_len)) {
            let own = chunk_range(units, parts, part);
            let (xpad, rest) = scratch.split_at_mut(xpad_len);
            let (dt, accs) = rest.split_at_mut(group * dt_len);
            let (t0, t1) = (own.start / blocks * nt, ((own.end - 1) / blocks + 1) * nt);
            let chans = t0 / per..(t1.min(groups) - 1) / per + 1;
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
                    &xpad[..imgs * x_len + g - 1]
                };
                let dt = &dt[..imgs * dt_len];
                for (unit, acc) in own.clone().zip(accs.chunks_exact_mut(nt * cb)) {
                    // Offsets of the tile's tap groups in a staged image. A
                    // short last tile repeats its last group; `dw` never
                    // reads those accumulators.
                    let first = unit / blocks * nt;
                    let mut at = [0usize; DW_ACCS];
                    for (j, at) in at.iter_mut().enumerate().take(nt) {
                        let u = (first + j).min(groups - 1);
                        let (ci, ky, gx) = (u / per, u / kg % k, u % kg);
                        *at = ci * pitch + xy.ty[ky] + xy.tx[gx * g];
                    }
                    let block = (unit % blocks * cb, cr);
                    if g > 1 {
                        grad_weight_packed(isa, (nt, g), &pl, x_len, xs, &at, dt, cr, acc);
                    } else {
                        let tile = (nt, vb, lanes);
                        grad_weight_tile(isa, tile, &pl, x_len, xs, &at, dt, block, acc);
                    }
                }
            }
        }
    });
    for (part, scratch) in scratch.chunks_exact(part_len).enumerate() {
        let own = chunk_range(units, parts, part);
        let accs = scratch[xpad_len + group * dt_len..].chunks_exact(nt * cb);
        for (unit, acc) in own.zip(accs) {
            let (first, co0) = (unit / blocks * nt, unit % blocks * cb);
            for (u, acc) in (first..groups.min(first + nt)).zip(acc.chunks_exact(cb)) {
                let (ci, ky, gx) = (u / per, u / kg % k, u % kg);
                // Lane `co·g + j` holds output channel `co` of tap `j` of
                // the group.
                for (l, &v) in acc.iter().enumerate() {
                    let (co, kx) = (co0 + l / g, gx * g + l % g);
                    if co < c_out && kx < k {
                        dw[co * taps + (ci * k + ky) * k + kx] = v;
                    }
                }
            }
        }
    }
}

/// Taps per lane group of the weight-gradient tile: 1, or on the 512-bit
/// tier for a stride-1 `k > 1` layer of at most 8 output channels whose
/// `x` is staged, `g` adjacent taps of a kernel row in one 16-lane vector
/// — 4 taps × 4 channels up to `c_out = 4`, 2 × 8 up to 8 — instead of an
/// 8-lane vector of channels alone, half of it dead at `c_out = 4`.
/// Adjacent taps are adjacent floats of a staged row, so a group's `x` is
/// one short broadcast load; lanes past the kernel's last column are
/// computed and never stored.
fn dw_packing(isa: Isa, geo: &ConvGeometry, c_out: usize, in_place: bool) -> usize {
    let packs = isa.avx512() && geo.stride == 1 && geo.k > 1 && !in_place;
    match c_out {
        _ if !packs => 1,
        0..=4 => 4,
        5..=8 => 2,
        _ => 1,
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
    let (mut c8, mut p8) = (c / NARROW * NARROW, hw / NARROW * NARROW);
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
/// (at offsets `at` of a staged image) × `vecs` vectors of `lanes` output
/// channels in `acc` over the pixels of the images in `xs` (`x_len` floats
/// each) and `dt`, whose pixels are `cr` floats apart and whose vectors
/// start `c0` floats into a pixel.
#[allow(clippy::too_many_arguments)]
fn grad_weight_tile(
    isa: Isa,
    (nt, vecs, lanes): (usize, usize, usize),
    pl: &Planes,
    x_len: usize,
    xs: &[f32],
    at: &[usize; DW_ACCS],
    dt: &[f32],
    (c0, cr): (usize, usize),
    acc: &mut [f32],
) {
    let (cb, imgs) = (vecs * lanes, xs.len() / x_len);
    assert_eq!(xs.len(), imgs * x_len, "direct conv: staged x length");
    assert_eq!(dt.len(), imgs * pl.len() * cr, "direct conv: transposed dOut length");
    assert!(c0 + cb <= cr, "direct conv: channel block outside dOut");
    assert_eq!(acc.len(), nt * cb, "direct conv: accumulator length");
    let tile = nt == dw_tile_taps(lanes, vecs, nt) && vecs <= DW_VECS;
    assert!(tile, "direct conv: weight-gradient tile");
    let last = (pl.rows - 1) * pl.wp + pl.cols - 1;
    assert!(at[..nt].iter().all(|&at| at + last < x_len), "direct conv: tap outside x");
    #[cfg(target_arch = "x86_64")]
    if isa.avx2() {
        // SAFETY: `isa.avx2()` holds only on a tier runtime detection found,
        // so this CPU has AVX2 and FMA, and 16 lanes are picked only on the
        // 512-bit tier (`dw_lanes`), so AVX-512F with them; `xs` holds
        // `imgs` images of `x_len` floats, `dt` `cr` floats per pixel of
        // each with this block's `cb` inside them, `acc` `cb` per tap, and
        // each tap's offset plus the last pixel's is inside an image, all
        // asserted above.
        unsafe {
            let (x, dt, acc) = (xs.as_ptr(), dt.as_ptr().add(c0), acc.as_mut_ptr());
            let args = (pl, imgs, x_len, x, at, dt, cr, acc);
            // `$nt` taps of `$nv` 16-lane vectors, `$nt` ∈ `[$t …]`.
            macro_rules! z16 {
                ($nv:literal, [$($t:literal)*]) => {
                    match nt {
                        $($t => avx::grad_weight_tile_z16::<$t, $nv>(args),)*
                        _ => unreachable!("a 16-lane tile has 1..=dw_taps taps"),
                    }
                };
            }
            match (lanes == WIDE, vecs) {
                (false, 1) => avx::grad_weight_tile_y8::<12, 1>(args),
                (false, 2) => avx::grad_weight_tile_y8::<6, 2>(args),
                (false, 3) => avx::grad_weight_tile_y8::<3, 3>(args),
                (false, _) => avx::grad_weight_tile_y8::<2, 4>(args),
                (true, 1) => z16!(1, [1 2 3 4 5 6 7 8 9 10 11 12]),
                (true, 2) => z16!(2, [1 2 3 4 5 6 7 8 9 10 11 12]),
                (true, 3) => z16!(3, [1 2 3 4 5 6 7 8]),
                (true, _) => z16!(4, [1 2 3 4 5 6]),
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

/// One packed weight-gradient register tile ([`dw_packing`]): continues
/// the chains of `nt` groups of `g` adjacent taps (at offsets `at` of a
/// staged image) × `16 / g` output channels in `acc` — lane `co·g + j` is
/// channel `co` of tap `j` — over the pixels of the images in `xs` (`x_len`
/// floats each, and `g − 1` more after the last) and `dt`, whose pixels are
/// `cr` floats apart.
#[allow(clippy::too_many_arguments)]
fn grad_weight_packed(
    isa: Isa,
    (nt, g): (usize, usize),
    pl: &Planes,
    x_len: usize,
    xs: &[f32],
    at: &[usize; DW_ACCS],
    dt: &[f32],
    cr: usize,
    acc: &mut [f32],
) {
    let imgs = xs.len() / x_len;
    assert!(isa.avx512() && (g == 2 || g == 4), "direct conv: packed tile");
    assert_eq!(xs.len(), imgs * x_len + g - 1, "direct conv: staged x length");
    assert_eq!(dt.len(), imgs * pl.len() * cr, "direct conv: transposed dOut length");
    assert!(WIDE / g <= cr && nt == dw_tile_taps(WIDE, 1, nt), "direct conv: packed tile");
    assert_eq!(acc.len(), nt * WIDE, "direct conv: accumulator length");
    let last = (pl.rows - 1) * pl.wp + pl.cols - 1;
    assert!(at[..nt].iter().all(|&at| at + last < x_len), "direct conv: tap outside x");
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `isa.avx512()` holds only on a tier runtime detection
        // found, so this CPU has AVX-512F, AVX2 and FMA; `xs` holds `imgs`
        // images of `x_len` floats and `g − 1` more, so each group's `g`
        // floats at its offset plus any pixel's are inside it, `dt` holds
        // `cr ≥ 16 / g` floats per pixel of each image and `acc` 16 per
        // group, all asserted above.
        unsafe {
            let args = (pl, imgs, x_len, xs.as_ptr(), at, dt.as_ptr(), cr, acc.as_mut_ptr());
            // `g` taps per group, `nt` ∈ `[$t …]` groups.
            macro_rules! packed {
                ($g:literal) => {
                    match nt {
                        1 => avx::grad_weight_packed_z16::<1, $g>(args),
                        2 => avx::grad_weight_packed_z16::<2, $g>(args),
                        3 => avx::grad_weight_packed_z16::<3, $g>(args),
                        4 => avx::grad_weight_packed_z16::<4, $g>(args),
                        5 => avx::grad_weight_packed_z16::<5, $g>(args),
                        6 => avx::grad_weight_packed_z16::<6, $g>(args),
                        7 => avx::grad_weight_packed_z16::<7, $g>(args),
                        8 => avx::grad_weight_packed_z16::<8, $g>(args),
                        9 => avx::grad_weight_packed_z16::<9, $g>(args),
                        10 => avx::grad_weight_packed_z16::<10, $g>(args),
                        11 => avx::grad_weight_packed_z16::<11, $g>(args),
                        12 => avx::grad_weight_packed_z16::<12, $g>(args),
                        _ => unreachable!("a packed tile has 1..=dw_taps groups"),
                    }
                };
            }
            if g == 4 {
                packed!(4)
            } else {
                packed!(2)
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("packed tiles run on the 512-bit tier only");
}

#[cfg(target_arch = "x86_64")]
mod avx {
    //! The vector forms of the three tile kernels, written once over
    //! [`Lanes`] and instantiated at 8 lanes ([`Y8`], AVX2 + FMA) and 16
    //! ([`Z16`], AVX-512F). Reachable only through the safe wrappers in the
    //! parent module, which take them only on a tier runtime detection
    //! found and assert every bound these rely on.

    use super::{Planes, Taps, Tile, DW_ACCS, MAX_ROWS, NARROW, WIDE};
    use crate::gemm::{lanes_below, transpose8, Lanes, Y8, Z16};
    use core::arch::x86_64::*;

    /// `(k, c, pitch, plane_len)` of an input-gradient call.
    type Geo = (usize, usize, usize, usize);

    /// A forward call: `(count, taps, (c, pitch), wt, x, pl, y)`
    /// ([`forward_rows`]).
    type Forward<'a> =
        (usize, &'a Taps, (usize, usize), *const f32, *const f32, &'a Planes, *mut f32);

    /// An input-gradient call: `((count, taps, pl, geo), wt, d, valid, out)`
    /// ([`grad_input_rows`]).
    type GradInput<'a> =
        ((usize, &'a Taps, &'a Planes, Geo), *const f32, *const f32, *const f32, *mut f32);

    /// A weight-gradient call: `(pl, imgs, x_len, x, at, dt, cr, acc)`
    /// ([`grad_weight_tile`]).
    type GradWeight<'a> =
        (&'a Planes, usize, usize, *const f32, &'a [usize; DW_ACCS], *const f32, usize, *mut f32);

    /// What the convolution tiles need of a vector beyond [`Lanes`]: a
    /// run's load and store ([`Planes::load`], [`Planes::lanes`]), the
    /// sum's add and the validity mask's AND.
    ///
    /// # Safety
    ///
    /// As [`Lanes`]: every method needs its type's features at runtime; the
    /// pointer ones need the lanes they touch in bounds.
    trait Runs: Lanes {
        /// How a run that holds several rows is gathered, set up once per
        /// call from its [`Planes`].
        type Split: Copy;
        unsafe fn split(pl: &Planes) -> Self::Split;
        /// One run's lanes at `at`: contiguous, or, when `SPLIT`, `group`
        /// rows `wp` apart of `seg` floats each.
        unsafe fn load_run<const SPLIT: bool>(at: *const f32, split: Self::Split) -> Self::V;
        /// Stores the `live` results of a run at `at` — the first `live`
        /// lanes, or, when `SPLIT`, up to `cols` lanes of each row's
        /// segment, row `j` at `at + j·cols` — and no other float.
        unsafe fn store_run<const SPLIT: bool>(at: *mut f32, live: usize, pl: &Planes, v: Self::V);
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn and(a: Self::V, b: Self::V) -> Self::V;
    }

    // SAFETY (every block in the two impls): the trait's contract — the
    // caller runs with the type's features and hands pointers whose lanes
    // are in bounds.
    impl Runs for Y8 {
        /// The second row's offset, `wp`.
        type Split = usize;
        #[inline(always)]
        unsafe fn split(pl: &Planes) -> usize {
            pl.wp
        }
        #[inline(always)]
        unsafe fn load_run<const SPLIT: bool>(at: *const f32, high: usize) -> __m256 {
            // SAFETY: see the impl.
            unsafe {
                if SPLIT {
                    _mm256_loadu2_m128(at.add(high), at)
                } else {
                    _mm256_loadu_ps(at)
                }
            }
        }
        #[inline(always)]
        unsafe fn store_run<const SPLIT: bool>(at: *mut f32, live: usize, pl: &Planes, v: __m256) {
            // SAFETY: see the impl; a full run is `NARROW` writable floats,
            // and a masked store writes, and touches, only the lanes below
            // its count.
            unsafe {
                if !SPLIT && live == NARROW {
                    _mm256_storeu_ps(at, v);
                } else if !SPLIT {
                    _mm256_maskstore_ps(at, lanes_below(live), v);
                } else {
                    let low = live.min(pl.cols);
                    _mm256_maskstore_ps(at, lanes_below(low), v);
                    let high = _mm256_castps128_ps256(_mm256_extractf128_ps::<1>(v));
                    _mm256_maskstore_ps(at.add(pl.cols), lanes_below(live - low), high);
                }
            }
        }
        #[inline(always)]
        unsafe fn add(a: __m256, b: __m256) -> __m256 {
            // SAFETY: see the impl.
            unsafe { _mm256_add_ps(a, b) }
        }
        #[inline(always)]
        unsafe fn and(a: __m256, b: __m256) -> __m256 {
            // SAFETY: see the impl.
            unsafe { _mm256_and_ps(a, b) }
        }
    }

    impl Runs for Z16 {
        /// The permutation that moves each row's floats from the two
        /// vectors at the run's offset into its lanes, and the masks of the
        /// floats those two loads read ([`Planes::reach`] ≤ 32).
        type Split = (__m512i, __mmask16, __mmask16);
        #[inline(always)]
        unsafe fn split(pl: &Planes) -> Self::Split {
            let (seg, mut idx) = (pl.seg(), [0i32; WIDE]);
            for (l, idx) in idx.iter_mut().enumerate() {
                *idx = (l / seg * pl.wp + l % seg) as i32;
            }
            let reach = pl.reach();
            // SAFETY: see the impl; `idx` holds sixteen lanes.
            let idx = unsafe { _mm512_loadu_si512(idx.as_ptr().cast()) };
            (idx, span(0, reach.min(WIDE)), span(0, reach.saturating_sub(WIDE)))
        }
        #[inline(always)]
        unsafe fn load_run<const SPLIT: bool>(at: *const f32, split: Self::Split) -> __m512 {
            // SAFETY: see the impl; the masked loads read only the floats
            // the run's rows reach, the second none past them (its address
            // is never dereferenced outside its mask).
            unsafe {
                if SPLIT {
                    let (idx, k0, k1) = split;
                    let a = _mm512_maskz_loadu_ps(k0, at);
                    let b = _mm512_maskz_loadu_ps(k1, at.wrapping_add(WIDE));
                    _mm512_permutex2var_ps(a, idx, b)
                } else {
                    _mm512_loadu_ps(at)
                }
            }
        }
        #[inline(always)]
        unsafe fn store_run<const SPLIT: bool>(at: *mut f32, live: usize, pl: &Planes, v: __m512) {
            // SAFETY: see the impl; a full run is `WIDE` writable floats, and
            // a masked store writes, and touches, only its mask's lanes: row
            // `j`'s lanes `j·seg…` land at `at + j·cols…` (the base address
            // is never dereferenced outside the mask).
            unsafe {
                if !SPLIT && live == WIDE {
                    _mm512_storeu_ps(at, v);
                } else if !SPLIT {
                    _mm512_mask_storeu_ps(at, span(0, live), v);
                } else {
                    let seg = pl.seg();
                    for j in 0..pl.group {
                        let n = live.saturating_sub(j * pl.cols).min(pl.cols);
                        let base = at.wrapping_add(j * pl.cols).wrapping_sub(j * seg);
                        _mm512_mask_storeu_ps(base, span(j * seg, j * seg + n), v);
                    }
                }
            }
        }
        #[inline(always)]
        unsafe fn add(a: __m512, b: __m512) -> __m512 {
            // SAFETY: see the impl.
            unsafe { _mm512_add_ps(a, b) }
        }
        #[inline(always)]
        unsafe fn and(a: __m512, b: __m512) -> __m512 {
            // SAFETY: see the impl; a bitwise AND through the integer view.
            unsafe {
                _mm512_castsi512_ps(_mm512_and_si512(
                    _mm512_castps_si512(a),
                    _mm512_castps_si512(b),
                ))
            }
        }
    }

    /// The `k` mask of lanes `lo..hi` (`lo ≤ hi ≤ 16`).
    #[inline(always)]
    fn span(lo: usize, hi: usize) -> __mmask16 {
        (((1u32 << hi) - 1) & !((1u32 << lo) - 1)) as __mmask16
    }

    /// The 8×8 blocks of [`super::transpose_into`]: channels `0..c8` ×
    /// pixels `0..p8` of the planes `src` (`hw` floats each) into rows of
    /// `cr` floats of `dst`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA; `c8` and `p8` are multiples of [`NARROW`];
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
            for c0 in (0..c8).step_by(NARROW) {
                for p0 in (0..p8).step_by(NARROW) {
                    let mut rows = [_mm256_setzero_ps(); NARROW];
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

    /// `acc[r][v] ← fma(w[r], b[v], acc[r][v])` for the `R` weights at `wt`
    /// and the `V` runs `b`.
    ///
    /// # Safety
    ///
    /// Requires `L`'s features; `wt` must be readable for `R` floats.
    #[inline(always)]
    unsafe fn fma_rows<L: Lanes, const R: usize, const V: usize>(
        acc: &mut [[L::V; V]; R],
        wt: *const f32,
        b: [L::V; V],
    ) {
        // SAFETY: the caller guarantees `R` readable weights.
        unsafe {
            for (r, acc) in acc.iter_mut().enumerate() {
                let a = L::splat(wt.add(r));
                for (acc, &b) in acc.iter_mut().zip(&b) {
                    *acc = L::fma(a, b, *acc);
                }
            }
        }
    }

    /// The `V` runs at `at[v] + off`.
    ///
    /// # Safety
    ///
    /// Requires `L`'s features; each run must be readable as
    /// [`Runs::load_run`] reads it.
    #[inline(always)]
    unsafe fn load_runs<L: Runs, const V: usize, const SPLIT: bool>(
        at: [*const f32; V],
        off: usize,
        split: L::Split,
    ) -> [L::V; V] {
        // SAFETY: the caller's contract.
        unsafe {
            let mut b = [L::zero(); V];
            for (b, &at) in b.iter_mut().zip(&at) {
                *b = L::load_run::<SPLIT>(at.add(off), split);
            }
            b
        }
    }

    /// `count · R` result planes of `pl` at `y`, one register tile — `R`
    /// output channels × two runs, or one for a last, odd run — at a time:
    /// `acc ← fma(w, x, acc)` in ascending `(ci, ky, kx)` from `+0.0`,
    /// stored straight into the planes.
    ///
    /// # Safety
    ///
    /// Requires `L`'s features. `wt` must hold `count` tiles of
    /// `c · taps.count()` rows of `R` weights; the run at
    /// `x + src + ci·pitch + ty + tx` must be readable as [`Planes::load`]
    /// reads it for every run's `src`, channel and tap; `y` must be writable
    /// for `count · R · pl.len()` floats.
    #[inline(always)]
    unsafe fn forward_rows<L: Runs, const R: usize, const SPLIT: bool>(args: Forward) {
        let (count, taps, (c, pitch), wt, x, pl, y) = args;
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee.
        unsafe {
            let split = L::split(pl);
            for tile in 0..count {
                let (wt, y) = (wt.add(tile * R * c * taps.count()), y.add(tile * R * pl.len()));
                for (src, dst) in pl.tiles() {
                    let at = (taps, (c, pitch), wt, x, split);
                    if dst[1].1 > 0 {
                        let acc = forward_tile::<L, R, 2, SPLIT>(at, [src[0], src[1]]);
                        store_rows::<L, R, 2, SPLIT>(&acc, y, pl.len(), pl, dst);
                    } else {
                        let acc = forward_tile::<L, R, 1, SPLIT>(at, [src[0]]);
                        store_rows::<L, R, 1, SPLIT>(&acc, y, pl.len(), pl, [dst[0]]);
                    }
                }
            }
        }
    }

    /// The chains of one forward register tile of `R` rows × `V` runs at
    /// `src`, from `+0.0`.
    ///
    /// # Safety
    ///
    /// [`forward_rows`]'s contract for these runs and one tile's weights.
    #[inline(always)]
    #[allow(clippy::type_complexity)]
    unsafe fn forward_tile<L: Runs, const R: usize, const V: usize, const SPLIT: bool>(
        (taps, (c, pitch), mut wt, x, split): (
            &Taps,
            (usize, usize),
            *const f32,
            *const f32,
            L::Split,
        ),
        src: [usize; V],
    ) -> [[L::V; V]; R] {
        // SAFETY: the caller's contract.
        unsafe {
            let mut acc = [[L::zero(); V]; R];
            if taps.count() == 1 {
                // One tap (1×1): a plain walk over the channels.
                let mut at = src.map(|s| x.add(taps.ty[0] + taps.tx[0] + s));
                for _ in 0..c {
                    fma_rows::<L, R, V>(&mut acc, wt, load_runs::<L, V, SPLIT>(at, 0, split));
                    wt = wt.add(R);
                    at = at.map(|at| at.add(pitch));
                }
            } else {
                for ci in 0..c {
                    let plane = x.add(ci * pitch);
                    for &ty in &taps.ty[..taps.ny] {
                        let at = src.map(|s| plane.add(ty + s));
                        for &tx in &taps.tx[..taps.nx] {
                            let b = load_runs::<L, V, SPLIT>(at, tx, split);
                            fma_rows::<L, R, V>(&mut acc, wt, b);
                            wt = wt.add(R);
                        }
                    }
                }
            }
            acc
        }
    }

    /// Stores the `R` rows × `V` runs of `acc` into the result planes at
    /// `out`, `plane_len` apart, each run at its `dst` with its `live`
    /// results.
    ///
    /// # Safety
    ///
    /// Requires `L`'s features; every live result's address writable.
    #[inline(always)]
    unsafe fn store_rows<L: Runs, const R: usize, const V: usize, const SPLIT: bool>(
        acc: &[[L::V; V]; R],
        out: *mut f32,
        plane_len: usize,
        pl: &Planes,
        dst: [(usize, usize); V],
    ) {
        // SAFETY: the caller's contract.
        unsafe {
            for (r, acc) in acc.iter().enumerate() {
                let plane = out.add(r * plane_len);
                for (&v, &(at, live)) in acc.iter().zip(&dst) {
                    L::store_run::<SPLIT>(plane.add(at), live, pl, v);
                }
            }
        }
    }

    /// `count · R` input channels' results of one input-gradient phase, one
    /// register tile — `R` channels × two runs, or one for a last, odd run
    /// — at a time: per tap in ascending `(ky, kx)` the chain
    /// `acc ← fma(w, dOut, acc)` over ascending `co` from `+0.0`, masked,
    /// then added to the pixel's sum from `+0.0`; the sums are stored
    /// straight into the planes.
    ///
    /// # Safety
    ///
    /// Requires `L`'s features. With `(count, taps, pl, (k, c, pitch,
    /// plane_len))` the first argument: `wt` must hold `count` tiles of
    /// `k²·c` rows of `R` weights and every tap's kernel indices must be
    /// below `k`; the run at `d + src + co·pitch + ty + tx` must be
    /// readable as [`Planes::load`] reads it for every run's `src`, channel
    /// and tap; `valid` must hold `L::N` floats per tap and run of `pl`, and
    /// `out` must be writable for `(count·R − 1)·plane_len + pl.len()`
    /// floats.
    #[inline(always)]
    unsafe fn grad_input_rows<L: Runs, const R: usize, const SPLIT: bool>(args: GradInput) {
        let ((count, taps, pl, (k, c, pitch, plane_len)), wt, d, valid, out) = args;
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee.
        unsafe {
            let (split, run_count) = (L::split(pl), pl.run_count());
            for tile in 0..count {
                let (wt, out) = (wt.add(tile * R * c * k * k), out.add(tile * R * plane_len));
                for (t, (src, dst)) in pl.tiles().enumerate() {
                    let geo = (taps, (k, c, pitch), wt, d, split);
                    // Each run's masks start at its first tap's.
                    let mask = |run: usize| valid.add(run * L::N);
                    let step = run_count * L::N;
                    let to = (out, plane_len, pl);
                    if dst[1].1 > 0 {
                        let runs = ([src[0], src[1]], [mask(2 * t), mask(2 * t + 1)], dst);
                        grad_input_tile::<L, R, 2, SPLIT>(geo, runs, step, to);
                    } else {
                        let runs = ([src[0]], [mask(2 * t)], [dst[0]]);
                        grad_input_tile::<L, R, 1, SPLIT>(geo, runs, step, to);
                    }
                }
            }
        }
    }

    /// One input-gradient register tile of `R` rows × `V` runs: the runs'
    /// `src`, their masks — `step` floats apart from tap to tap — and their
    /// `dst`; its sums are stored into the result planes at `out`,
    /// `plane_len` apart.
    ///
    /// # Safety
    ///
    /// [`grad_input_rows`]'s contract for these runs and one tile's weights.
    #[inline(always)]
    #[allow(clippy::type_complexity)]
    unsafe fn grad_input_tile<L: Runs, const R: usize, const V: usize, const SPLIT: bool>(
        (taps, (k, c, pitch), wt, d, split): (
            &Taps,
            (usize, usize, usize),
            *const f32,
            *const f32,
            L::Split,
        ),
        (src, masks, dst): ([usize; V], [*const f32; V], [(usize, usize); V]),
        step: usize,
        (out, plane_len, pl): (*mut f32, usize, &Planes),
    ) {
        const { assert!(R <= MAX_ROWS && V * L::N <= 2 * WIDE) };
        // SAFETY: the caller's contract; the sums stay inside the tile.
        unsafe {
            // Twelve (24) chains keep both FMA ports busy; the pixels' sums
            // live in memory meanwhile, row `r`'s run `v` `(2r + v)·L::N`
            // floats in, and are touched once per tap.
            let mut sums: Tile = [[0.0; 2 * WIDE]; MAX_ROWS];
            let base = sums.as_mut_ptr().cast::<f32>();
            let sum = |r: usize, v: usize| base.add((2 * r + v) * L::N);
            let mut tap = 0;
            for (&ty, &ky) in taps.ty[..taps.ny].iter().zip(&taps.ky) {
                for (&tx, &kx) in taps.tx[..taps.nx].iter().zip(&taps.kx) {
                    let mut w = wt.add((ky * k + kx) * c * R);
                    let mut acc = [[L::zero(); V]; R];
                    let mut at = src.map(|s| d.add(ty + tx + s));
                    for _ in 0..c {
                        fma_rows::<L, R, V>(&mut acc, w, load_runs::<L, V, SPLIT>(at, 0, split));
                        w = w.add(R);
                        at = at.map(|at| at.add(pitch));
                    }
                    let m = masks.map(|m| L::load(m.add(tap * step)));
                    for (r, acc) in acc.iter().enumerate() {
                        for (v, (&acc, &m)) in acc.iter().zip(&m).enumerate() {
                            let s = sum(r, v);
                            L::store(s, L::add(L::load(s), L::and(acc, m)));
                        }
                    }
                    tap += 1;
                }
            }
            let mut acc = [[L::zero(); V]; R];
            for (r, acc) in acc.iter_mut().enumerate() {
                for (v, acc) in acc.iter_mut().enumerate() {
                    *acc = L::load(sum(r, v));
                }
            }
            store_rows::<L, R, V, SPLIT>(&acc, out, plane_len, pl, dst);
        }
    }

    /// `NT` taps × `NV` vectors of output channels over the pixels of
    /// `imgs` images: `acc ← fma(dOut, x, acc)` in ascending `(img, oy, ox)`,
    /// continuing from and stored back to `acc`.
    ///
    /// # Safety
    ///
    /// Requires `L`'s features. `dt + pixel·cr` must hold `NV · L::N` floats
    /// for every pixel of every image, `acc` as many per tap, and
    /// `x + img·x_len + at[t] + oy·wp + ox` must be readable for every
    /// image, tap `t < NT` and pixel.
    #[inline(always)]
    unsafe fn grad_weight_tile<L: Lanes, const NT: usize, const NV: usize>(args: GradWeight) {
        const { assert!(NT * NV <= DW_ACCS) };
        let (pl, imgs, x_len, x, at, dt, cr, acc) = args;
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee.
        unsafe {
            let mut sums = [[L::zero(); NV]; NT];
            for (t, sums) in sums.iter_mut().enumerate() {
                for (v, sum) in sums.iter_mut().enumerate() {
                    *sum = L::load(acc.add((t * NV + v) * L::N));
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
                        let mut dv = [L::zero(); NV];
                        for (v, dv) in dv.iter_mut().enumerate() {
                            *dv = L::load(d.add(v * L::N));
                        }
                        for (sums, tap) in sums.iter_mut().zip(&taps) {
                            let b = L::splat(tap.add(ox));
                            for (sum, &dv) in sums.iter_mut().zip(&dv) {
                                *sum = L::fma(dv, b, *sum);
                            }
                        }
                        d = d.add(cr);
                    }
                }
            }
            for (t, sums) in sums.iter().enumerate() {
                for (v, &sum) in sums.iter().enumerate() {
                    L::store(acc.add((t * NV + v) * L::N), sum);
                }
            }
        }
    }

    /// `NT` groups of `G` adjacent taps × `16 / G` output channels over
    /// the pixels of `imgs` images, lane `co·G + j` the chain of channel
    /// `co` and tap `j` of its group: `acc ← fma(dOut, x, acc)` in
    /// ascending `(img, oy, ox)`, continuing from and stored back to `acc`.
    /// A pixel's `dOut` channels are spread to their lanes by one
    /// permutation, a group's `G` floats of `x` broadcast by one load.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F, AVX2 and FMA. `dt + pixel·cr` must hold `16 / G`
    /// floats for every pixel of every image, `acc` 16 per group, and
    /// `x + img·x_len + at[t] + oy·wp + ox` must be readable for `G` floats
    /// for every image, group `t < NT` and pixel.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn grad_weight_packed_z16<const NT: usize, const G: usize>(args: GradWeight) {
        const { assert!(NT <= DW_ACCS && (G == 2 || G == 4)) };
        let (pl, imgs, x_len, x, at, dt, cr, acc) = args;
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee.
        unsafe {
            let mut idx = [0i32; WIDE];
            for (l, idx) in idx.iter_mut().enumerate() {
                *idx = (l / G) as i32;
            }
            let (idx, chans) = (_mm512_loadu_si512(idx.as_ptr().cast()), span(0, WIDE / G));
            let mut sums = [_mm512_setzero_ps(); NT];
            for (t, sum) in sums.iter_mut().enumerate() {
                *sum = _mm512_loadu_ps(acc.add(t * WIDE));
            }
            let mut d = dt;
            for img in 0..imgs {
                let mut taps = [x; NT];
                for (tap, &at) in taps.iter_mut().zip(at) {
                    *tap = x.add(img * x_len + at);
                }
                for oy in 0..pl.rows {
                    for ox in oy * pl.wp..oy * pl.wp + pl.cols {
                        let dv = _mm512_permutexvar_ps(idx, _mm512_maskz_loadu_ps(chans, d));
                        for (sum, tap) in sums.iter_mut().zip(&taps) {
                            let b = if G == 4 {
                                _mm512_broadcast_f32x4(_mm_loadu_ps(tap.add(ox)))
                            } else {
                                let pair = tap.add(ox).cast::<i64>().read_unaligned();
                                _mm512_castsi512_ps(_mm512_set1_epi64(pair))
                            };
                            *sum = _mm512_fmadd_ps(dv, b, *sum);
                        }
                        d = d.add(cr);
                    }
                }
            }
            for (t, &sum) in sums.iter().enumerate() {
                _mm512_storeu_ps(acc.add(t * WIDE), sum);
            }
        }
    }

    /// Defines the `#[target_feature]` entry points of one width: each
    /// runs its generic kernel with that width's instructions enabled.
    macro_rules! entry_points {
        (
            $lanes:ty,
            [$($feature:literal),*],
            [$forward:ident, $grad_input:ident, $grad_weight:ident]
        ) => {
            /// [`forward_rows`] at this width.
            ///
            /// # Safety
            ///
            /// Requires this width's features at runtime, and
            /// [`forward_rows`]'s contract.
            #[target_feature($(enable = $feature),*)]
            pub unsafe fn $forward<const R: usize, const SPLIT: bool>(args: Forward) {
                // SAFETY: the caller's contract, and the features are enabled
                // here.
                unsafe { forward_rows::<$lanes, R, SPLIT>(args) }
            }

            /// [`grad_input_rows`] at this width.
            ///
            /// # Safety
            ///
            /// Requires this width's features at runtime, and
            /// [`grad_input_rows`]'s contract.
            #[target_feature($(enable = $feature),*)]
            pub unsafe fn $grad_input<const R: usize, const SPLIT: bool>(args: GradInput) {
                // SAFETY: as above.
                unsafe { grad_input_rows::<$lanes, R, SPLIT>(args) }
            }

            /// [`grad_weight_tile`] at this width.
            ///
            /// # Safety
            ///
            /// Requires this width's features at runtime, and
            /// [`grad_weight_tile`]'s contract.
            #[target_feature($(enable = $feature),*)]
            pub unsafe fn $grad_weight<const NT: usize, const NV: usize>(args: GradWeight) {
                // SAFETY: as above.
                unsafe { grad_weight_tile::<$lanes, NT, NV>(args) }
            }

        };
    }

    entry_points!(Y8, ["avx2", "fma"], [forward_rows_y8, grad_input_rows_y8, grad_weight_tile_y8]);
    entry_points!(
        Z16,
        ["avx512f", "avx2", "fma"],
        [forward_rows_z16, grad_input_rows_z16, grad_weight_tile_z16]
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{host_tier, Tier};

    /// The width is chosen, not fallen back to: on a 512-bit host, a 16×16
    /// forward lays out 16-lane runs (one per row) that the `zmm` tiles
    /// run, the 8×8 and 4×4 stages put two and four rows in a run, and a
    /// weight gradient of 16 output channels takes the 16-lane tile — one
    /// of 8 keeps the 8-lane one. A tier that silently ran the `ymm` tiles
    /// fails here rather than only running slower.
    #[test]
    fn the_512_bit_tier_picks_the_16_lane_tiles() {
        let geo =
            |h: usize, k: usize| ConvGeometry { c_in: 16, h, w: h, k, stride: 1, padding: k / 2 };
        let avx2 = Isa::clamped(Tier::Avx2);
        let pl = forward_planes(avx2, &geo(16, 3));
        assert_eq!((pl.lanes, pl.group), (NARROW, 1));
        if host_tier() < Tier::Avx512 {
            return;
        }
        let isa = Isa::clamped(Tier::Avx512);
        let runs = |h, k| {
            let pl = forward_planes(isa, &geo(h, k));
            (pl.lanes, pl.group, pl.run_count())
        };
        assert_eq!(runs(16, 3), (WIDE, 1, 16));
        assert_eq!(runs(8, 3), (WIDE, 2, 4));
        assert_eq!(runs(4, 3), (WIDE, 4, 1));
        // A 1×1 layer reads its plane as one row.
        assert_eq!(runs(4, 1), (WIDE, 1, 1));
        assert_eq!(tile_rows(runs(16, 3).0), 12);
        assert_eq!((dw_lanes(isa, 16), dw_lanes(isa, 9), dw_lanes(isa, 8)), (WIDE, WIDE, NARROW));
        assert_eq!((dw_lanes(avx2, 16), run_lanes(avx2)), (NARROW, NARROW));
        // 16 lanes: a 1×1 layer of 4 input channels runs one tile of its 4
        // taps, not 8 repeats of the last.
        assert_eq!(dw_tile_taps(WIDE, 1, 4), 4);
        assert_eq!(dw_tile_taps(WIDE, 2, 27), 9);
        assert_eq!(dw_tile_taps(WIDE, 1, 144), 12);
        // A stride-1 3×3 layer of at most 8 output channels packs taps into
        // its 16 lanes: 4 × 4 channels, or 2 × 8; stride 2, a wider layer,
        // an `x` read in place and the AVX2 tier do not.
        let s1 = geo(16, 3);
        let s2 = ConvGeometry { stride: 2, ..s1 };
        assert_eq!((dw_packing(isa, &s1, 4, false), dw_packing(isa, &s1, 8, false)), (4, 2));
        assert_eq!(dw_packing(isa, &s1, 9, false), 1);
        assert_eq!((dw_packing(isa, &s2, 4, false), dw_packing(isa, &s1, 4, true)), (1, 1));
        assert_eq!(dw_packing(avx2, &s1, 4, false), 1);
    }
}
