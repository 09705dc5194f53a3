//! BLIS-style cache-blocked GEMM engine with a runtime-detected SIMD
//! micro-kernel.
//!
//! This module is the single dense-compute core of the repository: the
//! products of [`crate::matmul`] (plain, `ᵀ·` and `·ᵀ` variants) and the
//! implicit-GEMM convolution primitives of [`crate::conv`] all
//! funnel into [`gemm`]. The engine follows the classic three-level
//! blocking hierarchy (Goto/BLIS), packing each operand block right where
//! it is consumed:
//!
//! ```text
//! for jc in 0..n step NC         # B column block
//!   for pc in 0..k step KC       #   pack B[pc.., jc..] → KC×NC block, L2-resident
//!     for ic in 0..m step MC     #     pack A[ic.., pc..] → MC×KC block
//!       for jr (NR-wide panels)  #       B micro-panel → L1-resident (KC×NR)
//!         for ir (MR-wide panels)
//!           MR×NR register-tile micro-kernel over p = pc..pc+kc
//! ```
//!
//! # Panel sources
//!
//! The engine never sees an operand's storage. It asks a [`PanelSource`]
//! for one micro-panel at a time — `kc` rows of `r` lanes — and the source
//! writes it straight into the block. A strided [`View`] is one source
//! (row-major and transposed matrices); the convolution sources in
//! [`crate::conv`] read edge-clipped runs of pixels from the NCHW
//! activation, so no patch matrix is ever materialised. Where a C element
//! lives is a [`CLayout`]: plain row-major, or an NCHW activation addressed
//! as its `C × N·H·W` matrix, so a convolution's output needs no reshuffle
//! either.
//!
//! A `View` with unit depth stride (the A of `matmul` and `matmul_nt`, the B
//! of `matmul_nt`, a convolution's weight) packs through in-register 8×8
//! transposes — eight depth rows of eight lanes loaded lane by lane, stored
//! as eight whole panel rows — and one with unit lane stride and `r = MR`
//! (the A of `matmul_tn`) through one masked 8-lane load and store per depth
//! row; a unit-lane-stride B panel moves 16-float rows, and everything else
//! takes the scalar loops, which are also the `PUFFER_SIMD=0` path and the
//! oracle of `tests/pack_bitwise.rs`. The choice is the product's [`Isa`],
//! read once per [`gemm`] call. Either way a panel only *copies*: shuffles,
//! loads and stores move bit patterns, so NaN payloads, signed zeros and
//! subnormals arrive unchanged and no result can depend on the path. The
//! vector paths read through raw pointers behind two asserts — `dst` is
//! `kc·r` floats, and the panel's last source index, the largest it reads,
//! is inside the view's slice — and masked loads never touch a lane past
//! it.
//!
//! Block scratch comes from the per-thread arenas ([`crate::workspace`]) and
//! is sized `min(KC, k) × min(NC, n)`, so steady-state steps allocate
//! nothing fresh and a small product holds a small block. It is taken
//! unfilled: every panel the kernel reads was packed just before, and
//! [`PanelSource::pack_panel`] overwrites its panel element for element. Threads split the
//! panels of the larger of `n` and `m`; each packs the blocks of its own
//! range, so there is no shared packed operand and no barrier.
//!
//! # The micro-kernel
//!
//! The register tile is MR=6 × NR=16: twelve 8-lane f32 accumulators, two
//! B vectors and one A broadcast fill 15 of the 16 AVX2 `ymm` registers,
//! and every `p` step issues 12 FMAs against 8 load-port µops — the
//! FMA-throughput-bound shape on every AVX2 core. The kernel is selected
//! at runtime via `is_x86_feature_detected!("avx2")/("fma")` and can be
//! forced off with `PUFFER_SIMD=0` (or [`set_simd_enabled`]); the scalar
//! fallback computes the *identical* fused chain through [`f32::mul_add`],
//! which (like the hardware FMA) rounds once per step, so SIMD-on and
//! SIMD-off results are **bitwise identical**.
//!
//! # Determinism
//!
//! Every output element is one accumulator, started at `+0.0` and reduced
//! over `p = 0..k` in ascending order with a single rounding per step:
//! `c ← fma(a[i,p], b[p,j], c)`. The first KC block starts its accumulators
//! in registers instead of loading them, so C is written, never read first,
//! and needs no zero fill. Vectorization is across the NR *column
//! lanes* — different output elements — so lane order never touches any
//! element's reduction order. KC blocking stores the accumulator to C at a
//! block boundary and reloads the same bits for the next block, which is
//! bit-for-bit the uninterrupted chain; MC/NC/thread partitioning only picks
//! *which thread* owns an element, and packing is pure copying, so a
//! panel's contents do not depend on which block or thread packed it.
//! Results are therefore bitwise invariant to thread count, SIMD on/off,
//! **and** the KC/MC/NC choices — pinned by
//! `crates/tensor/tests/simd_bitwise.rs` against the scalar `mul_add`
//! reference.

use crate::{pool, workspace};
use std::ops::Range;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

/// Register-tile height: rows of C held in accumulators by the micro-kernel.
pub const MR: usize = 6;

/// Register-tile width: columns of C held in accumulators (two 8-lane
/// vectors in the AVX2 kernel).
pub const NR: usize = 16;

/// Default K-dimension block: one packed B micro-panel is `KC×NR` f32
/// (16 KiB) — half of a 32 KiB L1d — and stays resident across the whole
/// `ir` loop.
const KC_DEFAULT: usize = 256;

/// Default M-dimension block: the packed `MC×KC` A block is 96 KiB, sized
/// to sit in L2 while the micro-kernel streams it NR columns at a time.
const MC_DEFAULT: usize = 96;

/// Default N-dimension block: the packed `KC×NC` B slab is 2 MiB, sized
/// for an L3 share; one `(jc, ic)` tile of C is the unit of thread work.
const NC_DEFAULT: usize = 2048;

// Block edges must coincide with register-tile edges; `set_blocking` rounds,
// the defaults have to be round already.
const _: () = assert!(MC_DEFAULT.is_multiple_of(MR) && NC_DEFAULT.is_multiple_of(NR));

static KC: AtomicUsize = AtomicUsize::new(KC_DEFAULT);
static MC: AtomicUsize = AtomicUsize::new(MC_DEFAULT);
static NC: AtomicUsize = AtomicUsize::new(NC_DEFAULT);

/// `0` = unresolved, `1` = scalar fallback, `2` = AVX2+FMA kernel.
static SIMD: AtomicU8 = AtomicU8::new(0);

/// Whether this build/host can run the vector micro-kernel at all
/// (compile-time x86-64 and runtime AVX2 + FMA detection).
pub fn simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the vector micro-kernel is currently in use. Resolves lazily:
/// `PUFFER_SIMD=0` (or `false`/`off`) forces the scalar fallback, otherwise
/// runtime feature detection decides. Results are bitwise identical either
/// way; the switch exists for A/B benchmarking and fallback testing.
pub fn simd_enabled() -> bool {
    match SIMD.load(Ordering::Relaxed) {
        0 => {
            let env_off = std::env::var("PUFFER_SIMD")
                .map(|v| matches!(v.trim(), "0" | "false" | "off"))
                .unwrap_or(false);
            let on = !env_off && simd_supported();
            // Losing the race means `set_simd_enabled` or another resolver
            // already stored the answer, which the load below reads.
            SIMD.compare_exchange(0, if on { 2 } else { 1 }, Ordering::Relaxed, Ordering::Relaxed)
                .ok();
            SIMD.load(Ordering::Relaxed) == 2
        }
        s => s == 2,
    }
}

/// Forces the micro-kernel choice at runtime. Requesting SIMD on a host
/// without AVX2+FMA keeps the scalar fallback (the setting is effective,
/// not aspirational). The bitwise-equality tests toggle this to compare
/// both paths in one process.
pub fn set_simd_enabled(on: bool) {
    SIMD.store(if on && simd_supported() { 2 } else { 1 }, Ordering::Relaxed);
}

/// The kernel choice of one product, read from [`simd_enabled`] once per
/// [`gemm`] call and handed to every micro-kernel call and every
/// [`PanelSource::pack_panel`]. [`Isa::current`] is the only constructor,
/// so an `Isa` that selects the AVX2 paths was made on a host that has
/// AVX2 + FMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa {
    avx2: bool,
}

impl Isa {
    /// The choice [`simd_enabled`] makes now.
    pub fn current() -> Self {
        Isa { avx2: simd_enabled() }
    }
}

/// The effective `(KC, MC, NC)` blocking: the defaults above unless
/// [`set_blocking`] changed them. MC is a multiple of MR and NC a multiple
/// of NR, so block edges coincide with register-tile edges.
pub fn blocking() -> (usize, usize, usize) {
    (KC.load(Ordering::Relaxed), MC.load(Ordering::Relaxed), NC.load(Ordering::Relaxed))
}

/// Overrides the blocking hierarchy at runtime (MC rounded up to a multiple
/// of MR, NC of NR). Results are bitwise invariant to these choices — the
/// boundary proptests shrink them to force multi-block paths on small
/// matrices.
pub fn set_blocking(kc: usize, mc: usize, nc: usize) {
    KC.store(kc.max(1), Ordering::Relaxed);
    MC.store(mc.div_ceil(MR).max(1) * MR, Ordering::Relaxed);
    NC.store(nc.div_ceil(NR).max(1) * NR, Ordering::Relaxed);
}

/// A logical `k×d` operand the engine pulls micro-panels from: `k` is the
/// reduction depth, `d` the operand's extent along C (`m` for A, whose
/// lanes are rows of C; `n` for B, whose lanes are columns of C).
pub trait PanelSource: Sync {
    /// Packs rows `p0..p0+kc` of lanes `j0..j0+w` into `dst` as `kc`
    /// consecutive rows of `r` lanes (`dst.len() == kc·r`, `w ≤ r`) with
    /// zeros in lanes `w..r`. Must overwrite every element of `dst` — the
    /// block it belongs to is reused — and must only copy, so packed
    /// contents cannot depend on who packs them, nor on `isa`, which only
    /// says whether vector copies may be used.
    #[allow(clippy::too_many_arguments)]
    fn pack_panel(
        &self,
        p0: usize,
        kc: usize,
        j0: usize,
        w: usize,
        r: usize,
        dst: &mut [f32],
        isa: Isa,
    );
}

/// Copies a run of lanes. The lengths panels are usually cut into move as
/// fixed-size arrays — vector loads and stores instead of a `memcpy` call.
#[inline]
pub(crate) fn copy_run(dst: &mut [f32], src: &[f32]) {
    #[inline]
    fn fixed<const N: usize>(dst: &mut [f32], src: &[f32]) {
        let (Ok(d), Ok(s)) = (<&mut [f32; N]>::try_from(dst), <&[f32; N]>::try_from(src)) else {
            unreachable!("copy_run matched both lengths");
        };
        *d = *s;
    }
    assert_eq!(dst.len(), src.len(), "copy_run: length mismatch");
    match dst.len() {
        NR => fixed::<NR>(dst, src),
        8 => fixed::<8>(dst, src),
        4 => fixed::<4>(dst, src),
        _ => dst.copy_from_slice(src),
    }
}

/// A strided read-only view of a row-major operand: element `(i, j)` lives
/// at `data[i * rs + j * cs]`. `matmul` passes `(k, 1)`-strided A and
/// `(n, 1)`-strided B; the fused-transpose variants swap strides instead of
/// materializing the transpose.
#[derive(Clone, Copy)]
pub struct View<'a> {
    /// Backing storage.
    pub data: &'a [f32],
    /// Row stride (elements between `(i, j)` and `(i+1, j)`).
    pub rs: usize,
    /// Column stride (elements between `(i, j)` and `(i, j+1)`).
    pub cs: usize,
}

impl<'a> View<'a> {
    /// A view over a row-major `rows×cols` matrix.
    pub fn row_major(data: &'a [f32], cols: usize) -> Self {
        View { data, rs: cols, cs: 1 }
    }

    /// The transposed view (no data movement).
    pub fn t(self) -> Self {
        View { data: self.data, rs: self.cs, cs: self.rs }
    }

    /// Index in `data` of element `(i, j)`; `None` where it overflows.
    fn index(&self, i: usize, j: usize) -> Option<usize> {
        i.checked_mul(self.rs)?.checked_add(j.checked_mul(self.cs)?)
    }

    /// The vector half of [`View::pack_panel`]: unit depth stride with
    /// `r ∈ {MR, NR}` goes through in-register 8×8 transposes, unit lane
    /// stride with `r = MR` through one masked row copy per depth row.
    /// Returns `false`, having touched nothing, for every other panel.
    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    fn pack_avx(
        &self,
        p0: usize,
        kc: usize,
        j0: usize,
        w: usize,
        r: usize,
        dst: &mut [f32],
        isa: Isa,
    ) -> bool {
        let lane_contiguous = self.cs == 1 && r == MR;
        let depth_contiguous = self.cs != 1 && self.rs == 1 && (r == MR || r == NR);
        if !isa.avx2 || !(lane_contiguous || depth_contiguous) || kc == 0 || w == 0 {
            return false;
        }
        // Every element the panel reads is (p0 + p, j0 + q) with p < kc and
        // q < w; with non-negative strides the first is the smallest index
        // and the last the largest, so these two bound every read.
        let first = self.index(p0, j0);
        let last =
            (p0.checked_add(kc - 1).zip(j0.checked_add(w - 1))).and_then(|(i, j)| self.index(i, j));
        assert!(w <= r && kc.checked_mul(r) == Some(dst.len()), "pack_panel: dst is not kc·r");
        let (Some(first), Some(last)) = (first, last) else {
            panic!("pack_panel: panel index overflows");
        };
        assert!(last < self.data.len(), "pack_panel: panel reads past its view");
        let src = self.data[first..].as_ptr();
        if lane_contiguous {
            // SAFETY: `isa.avx2` comes from `Isa::current`, true only after
            // runtime detection found AVX2 + FMA. Reads are src + p·rs + q
            // for p < kc, q < w — element (p0 + p, j0 + q), at most `last`,
            // which is inside `data` — and writes are the kc·MR floats of
            // `dst`, asserted above.
            unsafe { avx::pack_lane_contiguous(src, self.rs, kc, w, dst.as_mut_ptr()) };
        } else if r == MR {
            // SAFETY: as above; reads are src + q·cs + p for q < w, p < kc,
            // and writes the kc·MR floats of `dst`.
            unsafe { avx::pack_depth_contiguous::<MR>(src, self.cs, kc, w, dst.as_mut_ptr()) };
        } else {
            // SAFETY: as above, with r = NR.
            unsafe { avx::pack_depth_contiguous::<NR>(src, self.cs, kc, w, dst.as_mut_ptr()) };
        }
        true
    }
}

/// Rows of the view are the reduction depth, columns the lanes. Unit lane
/// stride (a row-major B) copies whole rows; unit depth stride (a row-major
/// A seen through [`View::t`]) zips each lane's contiguous source run into
/// its strided panel column. With AVX2 both take vector paths instead
/// ([`View::pack_avx`]) where the panel shape has one; the scalar code is
/// the fallback and the test oracle, and both copy the same bits.
impl PanelSource for View<'_> {
    fn pack_panel(
        &self,
        p0: usize,
        kc: usize,
        j0: usize,
        w: usize,
        r: usize,
        dst: &mut [f32],
        isa: Isa,
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.pack_avx(p0, kc, j0, w, r, dst, isa) {
            return;
        }
        let _ = isa;
        let base = p0 * self.rs + j0 * self.cs;
        if self.cs == 1 {
            for (p, row) in dst.chunks_exact_mut(r).enumerate() {
                copy_run(&mut row[..w], &self.data[base + p * self.rs..][..w]);
                row[w..].fill(0.0);
            }
            return;
        }
        if w < r {
            dst.fill(0.0);
        }
        for q in 0..w {
            let lane = dst[q..].iter_mut().step_by(r);
            let start = base + q * self.cs;
            if self.rs == 1 {
                for (d, &v) in lane.zip(&self.data[start..start + kc]) {
                    *d = v;
                }
            } else {
                for (d, &v) in lane.zip(self.data[start..].iter().step_by(self.rs)) {
                    *d = v;
                }
            }
        }
    }
}

/// Where element `(i, j)` of the `m×n` product lives in the output buffer.
/// Columns come in segments of `seg` consecutive `j`; inside a segment a
/// row is contiguous and rows are `seg` apart; segment `s` starts at
/// `s · seg_stride`. Row-major is the one-segment case.
#[derive(Debug, Clone, Copy)]
pub struct CLayout {
    seg: usize,
    seg_stride: usize,
}

impl CLayout {
    /// Row-major `m×n`.
    pub fn row_major(n: usize) -> Self {
        CLayout { seg: n.max(1), seg_stride: 0 }
    }

    /// An `[N, channels, H, W]` activation addressed as its
    /// `channels × N·H·W` matrix: `(c, (img, sp))` lives at
    /// `(img·channels + c)·hw + sp`.
    pub fn nchw(channels: usize, hw: usize) -> Self {
        CLayout { seg: hw.max(1), seg_stride: channels * hw }
    }

    #[inline]
    fn offset(&self, i: usize, j: usize) -> usize {
        (j / self.seg) * self.seg_stride + i * self.seg + j % self.seg
    }
}

/// Shared pointer to an output buffer, handed to pool workers that write
/// disjoint regions of it.
pub(crate) struct SendPtr(pub(crate) *mut f32);
// SAFETY: every user derives only disjoint regions from distinct part
// indices through this pointer, and the dispatching call joins all workers
// before the buffer's borrow ends.
unsafe impl Send for SendPtr {}
// SAFETY: shared references to SendPtr only read the pointer value; the
// disjoint-region argument above covers every derived write.
unsafe impl Sync for SendPtr {}

/// `C = A · B` for an `m×k` A and a `k×n` B, both given as depth-major
/// [`PanelSource`]s — `a_cols` is the logical `k×m` operand `Aᵀ` (for a
/// [`View`] of A, `a.t()`), `b` the logical `k×n` operand — stored into `c`
/// through `layout`. Every element of the product is overwritten with its
/// fused chain from `+0.0` (all `+0.0` when `k = 0`); what `c` held is never
/// read, so it may come from [`workspace::take_unfilled_vec`]. `parallel`
/// splits the panels of the larger of `n` and `m` across the worker pool;
/// results are bitwise identical for every thread count and for SIMD on/off.
///
/// # Panics
///
/// Panics if `c` is too short for `layout`, or `layout`'s segments overlap
/// for an `m`-row product.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    a_cols: &dyn PanelSource,
    b: &dyn PanelSource,
    c: &mut [f32],
    layout: CLayout,
    m: usize,
    k: usize,
    n: usize,
    parallel: bool,
) {
    if m == 0 || n == 0 {
        return;
    }
    let eng = Engine::new(a_cols, b, c, layout, m, k, n);
    if k == 0 {
        return eng.store_zeros();
    }
    // Threads split the panels of the longer side of C. All block scratch
    // is taken here, on the calling thread, and handed out by part: which
    // pool thread runs a part is up to the scheduler, and scratch drawn
    // from the workers' own arenas would make a warmed-up step allocate
    // whenever a part lands on a thread that has not run one before.
    let split = Split::new(eng.blocking, m, k, n, if parallel { pool::num_threads() } else { 1 });
    let mut scratch = workspace::take_unfilled(split.parts * split.scratch_len());
    pool::run_chunked(&mut scratch, split.scratch_len(), |first, chunk| {
        for (part, blocks) in (first..).zip(chunk.chunks_exact_mut(split.scratch_len())) {
            eng.run_part(&split, part, blocks);
        }
    });
}

/// Floats of block scratch [`gemm_in`] needs for an `m×k×n` product.
pub(crate) fn scratch_len(m: usize, k: usize, n: usize) -> usize {
    Split::new(blocking(), m, k, n, 1).scratch_len()
}

/// [`gemm`] on the calling thread alone, packing into `scratch` (at least
/// [`scratch_len`] floats) instead of this thread's arena: for callers that
/// are themselves one part of a pool dispatch and were handed their scratch
/// by the dispatching thread; the scratch need not be filled. Same bits as
/// [`gemm`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_in(
    a_cols: &dyn PanelSource,
    b: &dyn PanelSource,
    c: &mut [f32],
    layout: CLayout,
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    let eng = Engine::new(a_cols, b, c, layout, m, k, n);
    if k == 0 {
        return eng.store_zeros();
    }
    let split = Split::new(eng.blocking, m, k, n, 1);
    eng.run_part(&split, 0, &mut scratch[..split.scratch_len()]);
}

/// How one product is cut into parts and how large each part's packed
/// blocks are.
struct Split {
    /// Whether parts are ranges of B (column) panels rather than A panels.
    cols: bool,
    /// Panels along the split side, and along the other one.
    panels: usize,
    others: usize,
    parts: usize,
    b_len: usize,
    a_len: usize,
}

impl Split {
    fn new(
        (kc, mc, nc): (usize, usize, usize),
        m: usize,
        k: usize,
        n: usize,
        threads: usize,
    ) -> Self {
        let (pm, pn) = (m.div_ceil(MR), n.div_ceil(NR));
        let cols = n >= m;
        let (panels, others) = if cols { (pn, pm) } else { (pm, pn) };
        let parts = threads.min(panels).max(1);
        let per_part = panels.div_ceil(parts);
        // MC is a multiple of MR and NC of NR, so blocks are whole panels.
        let b_panels = (nc / NR).min(if cols { per_part } else { pn });
        let a_panels = (mc / MR).min(if cols { pm } else { per_part });
        Split {
            cols,
            panels,
            others,
            parts,
            b_len: b_panels * NR * kc.min(k),
            a_len: a_panels * MR * kc.min(k),
        }
    }

    fn scratch_len(&self) -> usize {
        self.b_len + self.a_len
    }
}

/// Packs panels `panels` (each `r` lanes of the `d`-lane operand `src`) of
/// depth rows `p0..p0+kc` back to back into `block`.
#[allow(clippy::too_many_arguments)]
fn pack_block(
    src: &dyn PanelSource,
    p0: usize,
    kc: usize,
    panels: Range<usize>,
    r: usize,
    d: usize,
    block: &mut [f32],
    isa: Isa,
) {
    for (dst, id) in block.chunks_exact_mut(r * kc).zip(panels) {
        let j0 = id * r;
        src.pack_panel(p0, kc, j0, r.min(d - j0), r, dst, isa);
    }
}

/// Everything a worker needs to compute its share of C.
struct Engine<'a> {
    a: &'a dyn PanelSource,
    b: &'a dyn PanelSource,
    c: SendPtr,
    layout: CLayout,
    m: usize,
    k: usize,
    n: usize,
    /// `(KC, MC, NC)`, read once: the split and the loop nest of one
    /// product must agree on it whatever `set_blocking` does meanwhile.
    blocking: (usize, usize, usize),
    isa: Isa,
}

impl<'a> Engine<'a> {
    /// Checks that `c` can hold the product through `layout` and captures
    /// the current blocking and kernel choice.
    fn new(
        a: &'a dyn PanelSource,
        b: &'a dyn PanelSource,
        c: &mut [f32],
        layout: CLayout,
        m: usize,
        k: usize,
        n: usize,
    ) -> Self {
        // Memory safety of every tile store rests on these two: distinct
        // (i, j) map to distinct offsets, and the largest one is in bounds.
        assert!(n <= layout.seg || layout.seg_stride >= m * layout.seg, "gemm: C segments overlap");
        assert!(layout.offset(m - 1, n - 1) < c.len(), "gemm: C buffer too short for its layout");
        Engine {
            a,
            b,
            c: SendPtr(c.as_mut_ptr()),
            layout,
            m,
            k,
            n,
            blocking: blocking(),
            isa: Isa::current(),
        }
    }

    /// The product of an empty depth: `+0.0` in every element.
    fn store_zeros(&self) {
        for i in 0..self.m {
            for j in 0..self.n {
                // SAFETY: `new` checked that every (i, j) of the product is
                // in bounds, and no worker is running.
                unsafe { *self.c.0.add(self.layout.offset(i, j)) = 0.0 };
            }
        }
    }

    /// Runs part `part` of `split` with `blocks` as its B and A block
    /// scratch.
    fn run_part(&self, split: &Split, part: usize, blocks: &mut [f32]) {
        let (b_block, a_block) = blocks.split_at_mut(split.b_len);
        let own = pool::chunk_range(split.panels, split.parts, part);
        let (rows, cols) = if split.cols { (0..split.others, own) } else { (own, 0..split.others) };
        self.run(rows, cols, a_block, b_block);
    }

    /// Computes the C elements of A panels `rows` × B panels `cols` with
    /// the full `jc → pc → ic` nest, packing each B block and each A block
    /// into this part's scratch just before sweeping it; the blocks hold as
    /// many whole panels as the scratch has room for. Per element the KC
    /// loop continues the same fused accumulator chain — started at `+0.0`
    /// in the first block, stored to C at a block edge and reloaded
    /// bit-for-bit — so the result is independent of the blocking and of
    /// which thread owns the range.
    fn run(
        &self,
        rows: Range<usize>,
        cols: Range<usize>,
        a_block: &mut [f32],
        b_block: &mut [f32],
    ) {
        let kc_max = self.blocking.0;
        let kc_cap = kc_max.min(self.k);
        let nb = b_block.len() / (NR * kc_cap);
        let mb = a_block.len() / (MR * kc_cap);
        for jb in cols.clone().step_by(nb.max(1)) {
            let jb_end = (jb + nb).min(cols.end);
            for p0 in (0..self.k).step_by(kc_max) {
                let kc = kc_max.min(self.k - p0);
                pack_block(self.b, p0, kc, jb..jb_end, NR, self.n, b_block, self.isa);
                for ib in rows.clone().step_by(mb.max(1)) {
                    let ib_end = (ib + mb).min(rows.end);
                    pack_block(self.a, p0, kc, ib..ib_end, MR, self.m, a_block, self.isa);
                    for (pb, jp) in b_block.chunks_exact(NR * kc).zip(jb..jb_end) {
                        let j = jp * NR;
                        let cols_live = NR.min(self.n - j);
                        let in_one_segment = j % self.layout.seg + cols_live <= self.layout.seg;
                        for (pa, ip) in a_block.chunks_exact(MR * kc).zip(ib..ib_end) {
                            let i = ip * MR;
                            let rows_live = MR.min(self.m - i);
                            if rows_live == MR && cols_live == NR && in_one_segment {
                                // SAFETY: (i..i+MR) × (j..j+NR) is inside
                                // this worker's panel range, its NR columns
                                // are contiguous within one segment, and
                                // gemm() checked that the layout's largest
                                // offset is in bounds.
                                let tile = unsafe { self.c.0.add(self.layout.offset(i, j)) };
                                kernel(self.isa, p0 > 0, kc, pa, pb, tile, self.layout.seg);
                            } else {
                                self.edge_tile(p0 > 0, kc, pa, pb, (i, rows_live), (j, cols_live));
                            }
                        }
                    }
                }
            }
        }
    }

    /// Runs the register-tile kernel on a tile that is short (the last
    /// rows or columns of C) or whose columns straddle a layout segment.
    /// The tile stages through a stack buffer: valid C elements are loaded
    /// into it (`resume`; the first KC block starts from the buffer's
    /// `+0.0`), the same full-size kernel runs (padded lanes compute over
    /// packed zeros and are discarded), and the valid region is stored back
    /// — per element the identical fused chain, so edge handling never
    /// perturbs results.
    fn edge_tile(
        &self,
        resume: bool,
        kc: usize,
        pa: &[f32],
        pb: &[f32],
        (i, rows): (usize, usize),
        (j, cols): (usize, usize),
    ) {
        let mut tile = [0.0f32; MR * NR];
        let mut col = [0usize; NR];
        for (q, off) in col.iter_mut().enumerate().take(cols) {
            *off = self.layout.offset(i, j + q);
        }
        if resume {
            for t in 0..rows {
                for q in 0..cols {
                    // SAFETY: (i+t, j+q) is a valid element of this worker's
                    // panel range; gemm() checked the layout's bounds.
                    unsafe { tile[t * NR + q] = *self.c.0.add(col[q] + t * self.layout.seg) };
                }
            }
        }
        kernel(self.isa, true, kc, pa, pb, tile.as_mut_ptr(), NR);
        for t in 0..rows {
            for q in 0..cols {
                // SAFETY: same element set as the loads above.
                unsafe { *self.c.0.add(col[q] + t * self.layout.seg) = tile[t * NR + q] };
            }
        }
    }
}

/// Dispatches one MR×NR register tile to the vector or scalar kernel. The
/// accumulators continue from the tile's values in C (`resume`) or start at
/// `+0.0` without reading C — what a zero-filled C would have loaded.
#[inline]
fn kernel(isa: Isa, resume: bool, kc: usize, pa: &[f32], pb: &[f32], c: *mut f32, ldc: usize) {
    #[cfg(target_arch = "x86_64")]
    if isa.avx2 {
        // SAFETY: `isa.avx2` is only true when is_x86_feature_detected!
        // reported AVX2+FMA (see Isa::current), and the pointer contract is
        // the same as kernel_scalar's, upheld by Engine::run.
        unsafe { avx::kernel_6x16(resume, kc, pa.as_ptr(), pb.as_ptr(), c, ldc) };
        return;
    }
    let _ = isa;
    kernel_scalar(resume, kc, pa, pb, c, ldc);
}

/// Scalar micro-kernel: the identical fused chain as the AVX2 kernel,
/// `acc ← f32::mul_add(a, b, acc)`, which rounds once per step exactly like
/// `_mm256_fmadd_ps` — so the two paths are bitwise interchangeable.
fn kernel_scalar(resume: bool, kc: usize, pa: &[f32], pb: &[f32], c: *mut f32, ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    if resume {
        for (t, row) in acc.iter_mut().enumerate() {
            for (q, slot) in row.iter_mut().enumerate() {
                // SAFETY: Engine hands a tile with MR rows of stride ldc and
                // NR valid columns per row.
                *slot = unsafe { *c.add(t * ldc + q) };
            }
        }
    }
    for p in 0..kc {
        let arow = &pa[p * MR..(p + 1) * MR];
        let brow = &pb[p * NR..(p + 1) * NR];
        for (t, row) in acc.iter_mut().enumerate() {
            let a = arow[t];
            for (slot, &bv) in row.iter_mut().zip(brow) {
                *slot = a.mul_add(bv, *slot);
            }
        }
    }
    for (t, row) in acc.iter().enumerate() {
        for (q, &v) in row.iter().enumerate() {
            // SAFETY: same tile contract as the loads above.
            unsafe { *c.add(t * ldc + q) = v };
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx {
    //! The AVX2+FMA register-tile kernel and the two vector packers of
    //! [`super::View`]. Everything here is reachable only through an
    //! [`super::Isa`] that runtime feature detection made.

    use super::{MR, NR};
    use core::arch::x86_64::{
        __m256, __m256i, _mm256_broadcast_ss, _mm256_cmpgt_epi32, _mm256_fmadd_ps, _mm256_loadu_ps,
        _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_permute2f128_ps, _mm256_set1_epi32,
        _mm256_setr_epi32, _mm256_setzero_ps, _mm256_shuffle_ps, _mm256_storeu_ps,
        _mm256_unpackhi_ps, _mm256_unpacklo_ps,
    };

    /// A mask of lanes `0..n` (all eight for `n ≥ 8`) for the masked loads
    /// and stores, which neither read nor write the lanes it leaves out.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn lanes_below(n: usize) -> __m256i {
        let n = n.min(8) as i32;
        _mm256_cmpgt_epi32(_mm256_set1_epi32(n), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
    }

    /// Transposes an 8×8 block held as eight row vectors: lane `i` of
    /// result `t` is lane `t` of row `i`. Only shuffles, so every bit
    /// pattern — NaN payloads, signed zeros, subnormals — moves unchanged.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn transpose8(v: [__m256; 8]) -> [__m256; 8] {
        // Pairs of rows interleaved: lanes (i, i+1) of rows 2a and 2a+1.
        let t0 = _mm256_unpacklo_ps(v[0], v[1]);
        let t1 = _mm256_unpackhi_ps(v[0], v[1]);
        let t2 = _mm256_unpacklo_ps(v[2], v[3]);
        let t3 = _mm256_unpackhi_ps(v[2], v[3]);
        let t4 = _mm256_unpacklo_ps(v[4], v[5]);
        let t5 = _mm256_unpackhi_ps(v[4], v[5]);
        let t6 = _mm256_unpacklo_ps(v[6], v[7]);
        let t7 = _mm256_unpackhi_ps(v[6], v[7]);
        // Quads: column c of rows 0–3 (resp. 4–7) in each 128-bit half,
        // columns c and c + 4 in the two halves.
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ]
    }

    /// Packs a panel of `R ∈ {MR, NR}` lanes whose depth is contiguous:
    /// lane `q` holds its `kc` depth values at `src + q·cs`, and panel row
    /// `p` goes to `dst + p·R`. Per block of 8 depth rows and group of 8
    /// lanes, each live lane is one 8-wide load (a masked one for the last
    /// `kc % 8` rows), the block is transposed in registers and its rows
    /// are stored whole; lanes `w..` are zero vectors, never read. With
    /// `R = MR` a row store also writes two zeros into the next row, which
    /// that row's store overwrites after it; the panel's last row is stored
    /// masked. Full blocks of full panels — all but the last block of all
    /// but the last panel of an operand — take the branch-free loops.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA at runtime; `1 ≤ w ≤ R` and `kc ≥ 1`;
    /// `src + q·cs + p` must be readable for every `q < w`, `p < kc`, and
    /// `dst` writable for `kc·R` floats.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn pack_depth_contiguous<const R: usize>(
        src: *const f32,
        cs: usize,
        kc: usize,
        w: usize,
        dst: *mut f32,
    ) {
        const { assert!((R == MR || R == NR) && MR <= 8 && NR == 16) };
        for p0 in (0..kc).step_by(8) {
            let rows = (kc - p0).min(8);
            for g in (0..R).step_by(8) {
                let mut block = [_mm256_setzero_ps(); 8];
                let lanes = &mut block[..R.min(8)];
                let at = |q: usize| src.add((g + q) * cs + p0);
                if w == R && rows == 8 {
                    for (q, lane) in lanes.iter_mut().enumerate() {
                        *lane = _mm256_loadu_ps(at(q));
                    }
                } else {
                    let depth = lanes_below(rows);
                    for (q, lane) in lanes.iter_mut().enumerate().take(w.saturating_sub(g)) {
                        *lane = _mm256_maskload_ps(at(q), depth);
                    }
                }
                let block = transpose8(block);
                let at = |t: usize| dst.add((p0 + t) * R + g);
                if rows == 8 && (R == NR || p0 + 8 < kc) {
                    for (t, row) in block.into_iter().enumerate() {
                        _mm256_storeu_ps(at(t), row);
                    }
                } else {
                    for (t, row) in block.into_iter().enumerate().take(rows) {
                        if R == MR && p0 + t + 1 == kc {
                            _mm256_maskstore_ps(at(t), lanes_below(MR), row);
                        } else {
                            _mm256_storeu_ps(at(t), row);
                        }
                    }
                }
            }
        }
    }

    /// Packs a panel of `r = MR` lanes whose lanes are contiguous: depth row
    /// `p` is `w` floats at `src + p·rs`, moved by one masked 8-lane load
    /// (lanes `w..` read nothing and load zeros) and one store to
    /// `dst + p·MR`, whose two extra lanes the next row's store overwrites;
    /// the last row is stored masked.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA at runtime; `1 ≤ w ≤ MR` and `kc ≥ 1`;
    /// `src + p·rs + q` must be readable for every `p < kc`, `q < w`, and
    /// `dst` writable for `kc·MR` floats.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn pack_lane_contiguous(
        src: *const f32,
        rs: usize,
        kc: usize,
        w: usize,
        dst: *mut f32,
    ) {
        let live = lanes_below(w);
        for p in 0..kc - 1 {
            _mm256_storeu_ps(dst.add(p * MR), _mm256_maskload_ps(src.add(p * rs), live));
        }
        let row = _mm256_maskload_ps(src.add((kc - 1) * rs), live);
        _mm256_maskstore_ps(dst.add((kc - 1) * MR), lanes_below(MR), row);
    }

    /// 6×16 micro-kernel: twelve accumulators (`MR` rows × two 8-lane
    /// halves) are loaded from C (`resume`) or start at `+0.0`, swept by
    /// `kc` fused multiply–adds each —
    /// `acc ← fma(broadcast(a), b, acc)`, one rounding per step, ascending
    /// `p` — and stored back. Lanes are distinct output columns, so
    /// vector width never reorders any element's reduction.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA at runtime; `pa`/`pb` must hold `kc` packed
    /// rows of MR / NR elements, and `c` must address an MR×NR tile with
    /// row stride `ldc` that no other thread touches.
    // SAFETY: the target_feature promise is discharged by the runtime
    // detection gate in super::kernel; all pointer accesses stay inside the
    // packed panels and the caller's C tile per the contract above.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn kernel_6x16(
        resume: bool,
        kc: usize,
        pa: *const f32,
        pb: *const f32,
        c: *mut f32,
        ldc: usize,
    ) {
        const { assert!(NR == 16) };
        let mut acc: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
        if resume {
            for (t, row) in acc.iter_mut().enumerate() {
                row[0] = _mm256_loadu_ps(c.add(t * ldc));
                row[1] = _mm256_loadu_ps(c.add(t * ldc + 8));
            }
        }
        for p in 0..kc {
            let b0 = _mm256_loadu_ps(pb.add(p * NR));
            let b1 = _mm256_loadu_ps(pb.add(p * NR + 8));
            let ap = pa.add(p * MR);
            for (t, row) in acc.iter_mut().enumerate() {
                let a = _mm256_broadcast_ss(&*ap.add(t));
                row[0] = _mm256_fmadd_ps(a, b0, row[0]);
                row[1] = _mm256_fmadd_ps(a, b1, row[1]);
            }
        }
        for (t, row) in acc.iter().enumerate() {
            _mm256_storeu_ps(c.add(t * ldc), row[0]);
            _mm256_storeu_ps(c.add(t * ldc + 8), row[1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-element contract in its simplest form: one fused chain over
    /// ascending p. Everything the engine does must equal this bitwise.
    fn fma_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc = a[i * k + p].mul_add(b[p * n + j], acc);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    /// The product into a C full of NaN: the engine must not read it.
    fn run_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![f32::NAN; m * n];
        gemm(
            &View::row_major(a, k).t(),
            &View::row_major(b, n),
            &mut c,
            CLayout::row_major(n),
            m,
            k,
            n,
            false,
        );
        c
    }

    fn filled(len: usize, seed: u64) -> Vec<f32> {
        // Cheap deterministic pseudo-random values with varied magnitudes.
        (0..len)
            .map(|i| {
                let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
                ((x >> 33) as i32 % 1000) as f32 / 97.0
            })
            .collect()
    }

    #[test]
    fn matches_fma_reference_bitwise_across_shapes_and_blockings() {
        let shapes =
            [(1, 1, 1), (6, 16, 16), (7, 17, 18), (13, 40, 33), (64, 64, 64), (97, 130, 51)];
        for &(m, k, n) in &shapes {
            let a = filled(m * k, 1);
            let b = filled(k * n, 2);
            let want = fma_reference(&a, &b, m, k, n);
            for &(kc, mc, nc) in &[(256usize, 96usize, 2048usize), (8, 12, 32), (1, 6, 16)] {
                set_blocking(kc, mc, nc);
                for simd in [true, false] {
                    set_simd_enabled(simd);
                    let got = run_gemm(&a, &b, m, k, n);
                    assert_eq!(
                        got, want,
                        "(m,k,n)=({m},{k},{n}) kc={kc} mc={mc} nc={nc} simd={simd}"
                    );
                }
            }
            set_blocking(KC_DEFAULT, MC_DEFAULT, NC_DEFAULT);
            set_simd_enabled(true);
        }
    }

    #[test]
    fn empty_depth_stores_zeros() {
        for simd in [true, false] {
            set_simd_enabled(simd);
            let c = run_gemm(&[], &[], 7, 0, 18);
            assert!(c.iter().all(|v| v.to_bits() == 0), "simd={simd}");
        }
        set_simd_enabled(true);
    }

    #[test]
    fn transposed_views_match_explicit_transpose() {
        let (m, k, n) = (9, 21, 14);
        let at = filled(k * m, 3); // stored k×m, viewed as m×k
        let b = filled(k * n, 4);
        let mut a = vec![0.0f32; m * k];
        for p in 0..k {
            for i in 0..m {
                a[i * k + p] = at[p * m + i];
            }
        }
        let want = run_gemm(&a, &b, m, k, n);
        let mut got = vec![f32::NAN; m * n];
        gemm(
            &View::row_major(&at, m),
            &View::row_major(&b, n),
            &mut got,
            CLayout::row_major(n),
            m,
            k,
            n,
            false,
        );
        assert_eq!(got, want);
    }

    #[test]
    fn env_rounding_rules() {
        set_blocking(100, 50, 100);
        let (kc, mc, nc) = blocking();
        assert_eq!(kc, 100);
        assert_eq!(mc % MR, 0);
        assert!(mc >= 50);
        assert_eq!(nc % NR, 0);
        assert!(nc >= 100);
        set_blocking(KC_DEFAULT, MC_DEFAULT, NC_DEFAULT);
        assert_eq!(blocking(), (KC_DEFAULT, MC_DEFAULT, NC_DEFAULT));
    }

    #[test]
    fn simd_switch_is_effective_only_when_supported() {
        set_simd_enabled(true);
        assert_eq!(simd_enabled(), simd_supported());
        set_simd_enabled(false);
        assert!(!simd_enabled());
        set_simd_enabled(true);
    }
}
