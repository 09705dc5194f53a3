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
//! of `matmul_nt`, a convolution's weight) packs through in-register
//! transposes — depth rows of lanes loaded lane by lane, stored as whole
//! panel rows: 16×16 in `zmm` for a 16-lane panel on the 512-bit tier, 8×8
//! in `ymm` otherwise — and one with unit lane stride (the A of `matmul_tn`,
//! the B of `matmul`) through one masked row copy per depth row (8 lanes
//! for `r = MR`, and 16 `k`-masked lanes for `r = NR` on the 512-bit tier);
//! everything else takes the scalar loops, which are also the
//! `PUFFER_SIMD=0` path and the oracle of `tests/pack_bitwise.rs`. The
//! convolution sources gather or transpose (`conv.rs`). The choice is the product's [`Isa`], read once per [`gemm`]
//! call. Either way a panel only *copies*: shuffles, gathers, loads and
//! stores move bit patterns, so NaN payloads, signed zeros and subnormals
//! arrive unchanged and no result can depend on the path. The vector paths
//! read through raw pointers behind two asserts — `dst` is `kc·r` floats,
//! and the panel's last source index, the largest it reads, is inside the
//! view's slice — and masked loads never touch a lane past it.
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
//! The engine runs one of three [`Tier`]s, resolved once from runtime
//! feature detection (`PUFFER_SIMD=0` forces the scalar one; [`set_tier`]
//! picks one in-process, clamped to what the host has). The register tile
//! is written once, generic over the lane width (`avx::tile`):
//!
//! * **AVX-512F** — 12×32, two A panels × two B panels: 24 `zmm`
//!   accumulators, two B vectors and one broadcast in 27 of the 32
//!   registers, 24 FMAs per `p` step. Panels a block has left over take the
//!   12×16, 6×32 and 6×16 forms of the same tile.
//! * **AVX2 + FMA** — 6×16, one panel pair: twelve `ymm` accumulators, two B
//!   vectors and one broadcast in 15 of the 16 registers, 12 FMAs against 8
//!   load-port µops.
//! * **Scalar** — the *identical* fused chain through [`f32::mul_add`],
//!   which (like the hardware FMA) rounds once per step.
//!
//! MR, NR and every packing layout are the same on all three, and lanes are
//! distinct output elements, so all three are **bitwise identical**. A tile
//! whose rows are all live and whose vectors each land whole in one segment
//! of the [`CLayout`] moves them with plain loads and stores; a short tile,
//! or one straddling NCHW segments (every tile when `H·W < 16`), moves each
//! row run by run with masked stores (`k`-masks on the 512-bit tier), so
//! edges run the full tile too.
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

// Scratch comes from the workspace arena, never from `vec![x; n]` or
// `Vec::with_capacity` (crates/tensor/clippy.toml, DESIGN.md §8).
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

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

/// A kernel tier: how wide the vector code the engine runs is. Ordered, so
/// a tier includes every one below it — the 512-bit tier also runs the
/// 8-lane packers and the AVX2 kernels of the direct convolutions and of
/// attention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// The `f32::mul_add` loops: the test oracle and the `PUFFER_SIMD=0`
    /// path.
    Scalar,
    /// 8-lane `ymm` kernels: AVX2 + FMA.
    Avx2,
    /// 16-lane `zmm` kernels: AVX-512F, with AVX2 + FMA.
    Avx512,
}

impl Tier {
    /// Every tier, narrowest first.
    pub const ALL: [Tier; 3] = [Tier::Scalar, Tier::Avx2, Tier::Avx512];

    /// The name reports and tables print.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }

    /// f32 lanes of one vector register (1 for the scalar loops).
    pub fn lanes(self) -> usize {
        match self {
            Tier::Scalar => 1,
            Tier::Avx2 => 8,
            Tier::Avx512 => 16,
        }
    }

    fn code(self) -> u8 {
        self as u8 + 1
    }

    fn from_code(code: u8) -> Self {
        Tier::ALL[usize::from(code.clamp(1, 3) - 1)]
    }
}

/// `0` = unresolved, otherwise [`Tier::code`] of the tier in use.
static TIER: AtomicU8 = AtomicU8::new(0);

/// The widest tier this build and host can run, from runtime feature
/// detection: AVX-512F with AVX2 and FMA, AVX2 with FMA, or scalar.
pub fn host_tier() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return if is_x86_feature_detected!("avx512f") { Tier::Avx512 } else { Tier::Avx2 };
        }
    }
    Tier::Scalar
}

/// Whether this build/host can run vector kernels at all (compile-time
/// x86-64 and runtime AVX2 + FMA detection).
pub fn simd_supported() -> bool {
    host_tier() >= Tier::Avx2
}

/// The tiers this host can run, narrowest first: what the bitwise suites
/// and `gemm-scaling` step through.
pub fn host_tiers() -> impl Iterator<Item = Tier> {
    Tier::ALL.into_iter().filter(|&t| t <= host_tier())
}

/// The tier in use. Resolves lazily: `PUFFER_SIMD=0` (or `false`/`off`)
/// forces the scalar loops, otherwise it is [`host_tier`]. Results are
/// bitwise identical on every tier; the switch exists for A/B benchmarking
/// and fallback testing.
pub fn tier() -> Tier {
    match TIER.load(Ordering::Relaxed) {
        0 => {
            let env_off = std::env::var("PUFFER_SIMD")
                .map(|v| matches!(v.trim(), "0" | "false" | "off"))
                .unwrap_or(false);
            let resolved = if env_off { Tier::Scalar } else { host_tier() };
            // Losing the race means `set_tier` or another resolver already
            // stored the answer, which the load below reads.
            TIER.compare_exchange(0, resolved.code(), Ordering::Relaxed, Ordering::Relaxed).ok();
            Tier::from_code(TIER.load(Ordering::Relaxed))
        }
        code => Tier::from_code(code),
    }
}

/// Sets the tier for the rest of the process, clamped to [`host_tier`] (the
/// setting is effective, not aspirational), and returns the tier now in
/// use. The bitwise-equality tests and `gemm-scaling` step through the
/// tiers with it in one process.
pub fn set_tier(want: Tier) -> Tier {
    let tier = want.min(host_tier());
    TIER.store(tier.code(), Ordering::Relaxed);
    tier
}

/// The kernel choice of one product, read from [`tier`] once per [`gemm`]
/// call and handed to every micro-kernel call and every
/// [`PanelSource::pack_panel`]. Both constructors, [`Isa::current`] and
/// [`Isa::clamped`], stay within [`host_tier`], so an `Isa` that selects a
/// vector path was made on a host that has the features it needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa {
    tier: Tier,
}

impl Isa {
    /// The choice [`tier`] makes now.
    pub fn current() -> Self {
        Isa { tier: tier() }
    }

    /// `tier`, clamped to [`host_tier`] like [`set_tier`], without touching
    /// the process-wide setting: for driving one packer on every tier.
    pub fn clamped(tier: Tier) -> Self {
        Isa { tier: tier.min(host_tier()) }
    }

    /// The tier this choice runs.
    pub fn tier(self) -> Tier {
        self.tier
    }

    /// Whether the AVX2 + FMA paths may run (the 512-bit tier includes
    /// them).
    pub(crate) fn avx2(self) -> bool {
        self.tier >= Tier::Avx2
    }

    /// Whether the AVX-512F paths may run.
    pub(crate) fn avx512(self) -> bool {
        self.tier == Tier::Avx512
    }

    /// The largest register tile, in `(A, B)` panels: 2 × 2 (12 × 32) at
    /// 16 lanes, one MR × NR panel pair otherwise.
    fn tile_panels(self) -> (usize, usize) {
        if self.avx512() {
            (2, 2)
        } else {
            (1, 1)
        }
    }

    /// Lanes per vector of the tier's tile; the scalar kernel treats a
    /// whole NR-wide panel as its one "vector".
    fn vector_lanes(self) -> usize {
        match self.tier {
            Tier::Scalar => NR,
            tier => tier.lanes(),
        }
    }
}

/// Runs a register-only fused multiply–add loop on `tier` (clamped to the
/// host): `iters` steps of twelve independent accumulators, one vector of
/// the tier's lanes each, and no memory traffic. Returns the floating-point
/// operations it ran (two per lane per FMA) and a sum of its accumulators,
/// which keeps the loop observable. Timed on one thread (`gemm-scaling`), it
/// is the core's FMA peak at that width: the bound every kernel of the tier
/// reads against.
pub fn fma_peak_loop(tier: Tier, iters: usize) -> (f64, f32) {
    const ACCS: usize = 12;
    let tier = tier.min(host_tier());
    let flops = (2 * ACCS * tier.lanes() * iters) as f64;
    #[cfg(target_arch = "x86_64")]
    {
        if tier == Tier::Avx512 {
            // SAFETY: the tier is clamped to what runtime detection found,
            // so this host has AVX-512F, AVX2 and FMA.
            return (flops, unsafe { avx::fma_loop_avx512::<ACCS>(iters) });
        }
        if tier == Tier::Avx2 {
            // SAFETY: as above, with AVX2 and FMA.
            return (flops, unsafe { avx::fma_loop_avx2::<ACCS>(iters) });
        }
    }
    let mut acc = [0.0f32; ACCS];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = x.mul_add(0.999_999, 1e-7);
        }
    }
    (flops, acc.iter().sum())
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
    /// `r ∈ {MR, NR}` goes through in-register transposes (16×16 for
    /// `r = NR` on the 512-bit tier, 8×8 otherwise), unit lane stride with
    /// `r = MR` through one masked 8-lane row copy per depth row, and with
    /// `r = NR` on the 512-bit tier through one masked 16-lane one. Returns
    /// `false`, having touched nothing, for every other panel.
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
        let lane_contiguous = self.cs == 1 && (r == MR || (r == NR && isa.avx512()));
        let depth_contiguous = self.cs != 1 && self.rs == 1 && (r == MR || r == NR);
        if !isa.avx2() || !(lane_contiguous || depth_contiguous) || kc == 0 || w == 0 {
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
        let (src, out) = (self.data[first..].as_ptr(), dst.as_mut_ptr());
        // SAFETY (every call below): `isa.avx2()` / `isa.avx512()` hold
        // only on a tier runtime detection found, so this CPU has AVX2 + FMA
        // / AVX-512F as well. Reads are element (p0 + p, j0 + q)
        // for p < kc, q < w — src + p·rs + q·cs, at most `last`, which is
        // inside `data` — and writes are the kc·r floats of `dst`, all
        // asserted above.
        if lane_contiguous && r == NR {
            // SAFETY: see above; only the 512-bit tier takes r = NR here.
            unsafe { avx::pack_lane_contiguous16(src, self.rs, kc, w, out) };
        } else if lane_contiguous {
            // SAFETY: see above; r = MR.
            unsafe { avx::pack_lane_contiguous(src, self.rs, kc, w, out) };
        } else if r == MR {
            // SAFETY: see above.
            unsafe { avx::pack_depth_contiguous::<MR>(src, self.cs, kc, w, out) };
        } else if isa.avx512() {
            // SAFETY: see above; r = NR.
            unsafe { avx::pack_depth_contiguous16(src, self.cs, kc, w, out) };
        } else {
            // SAFETY: see above; r = NR.
            unsafe { avx::pack_depth_contiguous::<NR>(src, self.cs, kc, w, out) };
        }
        true
    }
}

/// Rows of the view are the reduction depth, columns the lanes. Unit lane
/// stride (a row-major B) copies whole rows; unit depth stride (a row-major
/// A seen through [`View::t`]) zips each lane's contiguous source run into
/// its strided panel column. With AVX2 both take vector paths instead
/// (`View::pack_avx`) where the panel shape has one; the scalar code is
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
        let (ap_max, bp_max) = self.isa.tile_panels();
        for jb in cols.clone().step_by(nb.max(1)) {
            let jb_end = (jb + nb).min(cols.end);
            for p0 in (0..self.k).step_by(kc_max) {
                let kc = kc_max.min(self.k - p0);
                pack_block(self.b, p0, kc, jb..jb_end, NR, self.n, b_block, self.isa);
                for ib in rows.clone().step_by(mb.max(1)) {
                    let ib_end = (ib + mb).min(rows.end);
                    pack_block(self.a, p0, kc, ib..ib_end, MR, self.m, a_block, self.isa);
                    // Tiles of up to `ap_max × bp_max` panels: the register
                    // tile of the tier, and narrower ones for the panels a
                    // block has left over.
                    let mut jp = jb;
                    while jp < jb_end {
                        let bp = bp_max.min(jb_end - jp);
                        let pb = &b_block[(jp - jb) * NR * kc..][..bp * NR * kc];
                        let tile_cols = self.tile_cols(jp * NR, bp * NR);
                        let mut ip = ib;
                        while ip < ib_end {
                            let ap = ap_max.min(ib_end - ip);
                            let pa = &a_block[(ip - ib) * MR * kc..][..ap * MR * kc];
                            let i = ip * MR;
                            let live = (ap * MR).min(self.m - i);
                            // SAFETY: row i < m starts at offset i·seg, at
                            // most the offset of (m − 1, 0), which gemm()
                            // checked is inside C.
                            let c = unsafe { self.c.0.add(i * self.layout.seg) };
                            let tile =
                                Tile { c, ldc: self.layout.seg, rows: live, cols: &tile_cols };
                            kernel(self.isa, (ap, bp), p0 > 0, kc, pa, pb, &tile);
                            ip += ap;
                        }
                        jp += bp;
                    }
                }
            }
        }
    }

    /// Where columns `j..j + width` of C go, cut into the tier's vectors
    /// and each vector into runs that stay inside one layout segment; lanes
    /// at or past `n` are in no run.
    fn tile_cols(&self, j: usize, width: usize) -> TileCols {
        let (seg, seg_stride) = (self.layout.seg, self.layout.seg_stride);
        let lanes = self.isa.vector_lanes();
        let mut out = TileCols { runs: [Run::default(); 2 * NR], ends: [0; 2], dense: true };
        let mut count = 0;
        for v in 0..width / lanes {
            let j0 = j + v * lanes;
            let live = lanes.min(self.n.saturating_sub(j0));
            let (mut s, mut r, mut q) = (j0 / seg, j0 % seg, 0);
            while q < live {
                let len = (seg - r).min(live - q);
                out.runs[count] = Run { lo: q, hi: q + len, off: s * seg_stride + r };
                (count, q, s, r) = (count + 1, q + len, s + 1, 0);
            }
            let first = if v == 0 { 0 } else { out.ends[v - 1] };
            out.dense &= live == lanes && count == first + 1;
            out.ends[v] = count;
        }
        out
    }
}

/// Lanes `lo..hi` of a tile row's vector live at `off..off + (hi − lo)` from
/// the start of the row in C.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Run {
    lo: usize,
    hi: usize,
    off: usize,
}

/// The columns of one register tile: at most two vectors (two `ymm` halves
/// of one B panel, or one `zmm` per B panel of a pair; the scalar kernel's
/// one 16-lane "vector"), each cut into [`Run`]s.
pub(crate) struct TileCols {
    runs: [Run; 2 * NR],
    /// Vector `v`'s runs are `runs[ends[v − 1]..ends[v]]`.
    ends: [usize; 2],
    /// Every vector is one run of all its lanes: plain loads and stores.
    dense: bool,
}

impl TileCols {
    #[inline]
    fn vector(&self, v: usize) -> &[Run] {
        &self.runs[if v == 0 { 0 } else { self.ends[v - 1] }..self.ends[v]]
    }
}

/// One register tile of C: rows `0..rows` (of the kernel's `ROWS`) start
/// `ldc` apart from `c`, and each row's columns go where `cols` says.
pub(crate) struct Tile<'a> {
    c: *mut f32,
    ldc: usize,
    rows: usize,
    cols: &'a TileCols,
}

/// Dispatches one register tile of `ap` A panels × `bp` B panels to the
/// tier's kernel. The accumulators continue from the tile's values in C
/// (`resume`) or start at `+0.0` without reading C — what a zero-filled C
/// would have loaded. Rows past `tile.rows` and lanes in no run are computed
/// over packed zeros and never stored, so a short or straddling tile runs
/// the same chains as a full one.
#[inline]
fn kernel(
    isa: Isa,
    (ap, bp): (usize, usize),
    resume: bool,
    kc: usize,
    pa: &[f32],
    pb: &[f32],
    tile: &Tile,
) {
    assert!(pa.len() >= ap * MR * kc && pb.len() >= bp * NR * kc, "kernel: short panels");
    #[cfg(target_arch = "x86_64")]
    {
        if isa.avx512() {
            // SAFETY: `isa.avx512()` holds only on a tier runtime
            // detection found, so this CPU has AVX-512F, AVX2 and FMA; the panels are asserted above and the
            // tile's rows and runs are elements of C that this worker owns
            // (Engine::run and Engine::tile_cols).
            unsafe { avx::tile_avx512((ap, bp), resume, kc, pa.as_ptr(), pb.as_ptr(), tile) };
            return;
        }
        if isa.avx2() {
            // SAFETY: as above, with AVX2 and FMA; the AVX2 tier runs
            // single-panel tiles only (Isa::tile_panels).
            unsafe { avx::tile_avx2(resume, kc, pa.as_ptr(), pb.as_ptr(), tile) };
            return;
        }
    }
    kernel_scalar(resume, kc, pa, pb, tile);
}

/// Scalar micro-kernel: the identical fused chain as the vector kernels,
/// `acc ← f32::mul_add(a, b, acc)`, which rounds once per step exactly like
/// `vfmadd` — so every tier is bitwise interchangeable. One MR × NR tile.
fn kernel_scalar(resume: bool, kc: usize, pa: &[f32], pb: &[f32], tile: &Tile) {
    let mut acc = [[0.0f32; NR]; MR];
    let elements = |t: usize| {
        tile.cols.vector(0).iter().flat_map(move |run| {
            (run.lo..run.hi).map(move |q| (q, t * tile.ldc + run.off + q - run.lo))
        })
    };
    if resume {
        for (t, row) in acc.iter_mut().enumerate().take(tile.rows) {
            for (q, at) in elements(t) {
                // SAFETY: Engine::run hands a tile whose live rows and runs
                // are elements of C that this worker owns.
                row[q] = unsafe { *tile.c.add(at) };
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
    for (t, row) in acc.iter().enumerate().take(tile.rows) {
        for (q, at) in elements(t) {
            // SAFETY: same elements as the loads above.
            unsafe { *tile.c.add(at) = row[q] };
        }
    }
}

/// The lane mask and 8×8 transpose of the vector packers and the vector
/// widths of the register tile, shared with the direct convolutions'
/// kernels, and the gathering packer of the
/// convolution sources.
#[cfg(target_arch = "x86_64")]
pub(crate) use avx::{gather_panel, lanes_below, transpose8, Coord, Lanes, Y8, Z16};

#[cfg(target_arch = "x86_64")]
mod avx {
    //! The AVX2+FMA register-tile kernel and the two vector packers of
    //! [`super::View`]. Everything here is reachable only through an
    //! [`super::Isa`] that runtime feature detection made.

    use super::{Run, Tile, MR, NR};
    use core::arch::x86_64::*;

    /// A mask of lanes `0..n` (all eight for `n ≥ 8`) for the masked loads
    /// and stores, which neither read nor write the lanes it leaves out.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) fn lanes_below(n: usize) -> __m256i {
        let n = n.min(8) as i32;
        _mm256_cmpgt_epi32(_mm256_set1_epi32(n), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
    }

    /// Transposes an 8×8 block held as eight row vectors: lane `i` of
    /// result `t` is lane `t` of row `i`. Only shuffles, so every bit
    /// pattern — NaN payloads, signed zeros, subnormals — moves unchanged.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) fn transpose8(v: [__m256; 8]) -> [__m256; 8] {
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
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee.
        unsafe {
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
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee.
        unsafe {
            let live = lanes_below(w);
            for p in 0..kc - 1 {
                _mm256_storeu_ps(dst.add(p * MR), _mm256_maskload_ps(src.add(p * rs), live));
            }
            let row = _mm256_maskload_ps(src.add((kc - 1) * rs), live);
            _mm256_maskstore_ps(dst.add((kc - 1) * MR), lanes_below(MR), row);
        }
    }

    /// One vector register's worth of f32 lanes and the operations the
    /// register tile needs, so [`tile`] is written once and instantiated at
    /// 8 lanes ([`Y8`], AVX2) and 16 ([`Z16`], AVX-512F). Every method is
    /// `#[inline(always)]` and only reached from a `#[target_feature]`
    /// wrapper that enables its instructions.
    ///
    /// # Safety
    ///
    /// Every method needs its type's features at runtime; the pointer ones
    /// need their lanes readable / writable.
    pub(crate) trait Lanes {
        const N: usize;
        type V: Copy;
        unsafe fn zero() -> Self::V;
        unsafe fn load(p: *const f32) -> Self::V;
        unsafe fn store(p: *mut f32, v: Self::V);
        unsafe fn splat(p: *const f32) -> Self::V;
        unsafe fn fma(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
        /// A vector whose lanes `run.lo..run.hi` come from `c + run.off..`
        /// for each of `runs`; other lanes are unspecified.
        unsafe fn load_runs(c: *const f32, runs: &[Run]) -> Self::V;
        /// Lanes `run.lo..run.hi` of `v` to `c + run.off..` for each of
        /// `runs`; nothing else written.
        unsafe fn store_runs(c: *mut f32, runs: &[Run], v: Self::V);
    }

    /// 8-lane `ymm` (AVX2 + FMA).
    pub(crate) struct Y8;

    /// 16-lane `zmm` (AVX-512F).
    pub(crate) struct Z16;

    // SAFETY (every block in the two impls): the trait's contract — the
    // caller runs with the type's features and hands pointers whose lanes
    // are in bounds.
    impl Lanes for Y8 {
        const N: usize = 8;
        type V = __m256;
        #[inline(always)]
        unsafe fn zero() -> __m256 {
            // SAFETY: see the impl.
            unsafe { _mm256_setzero_ps() }
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m256 {
            // SAFETY: see the impl.
            unsafe { _mm256_loadu_ps(p) }
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m256) {
            // SAFETY: see the impl.
            unsafe { _mm256_storeu_ps(p, v) }
        }
        #[inline(always)]
        unsafe fn splat(p: *const f32) -> __m256 {
            // SAFETY: see the impl.
            unsafe { _mm256_broadcast_ss(&*p) }
        }
        #[inline(always)]
        unsafe fn fma(a: __m256, b: __m256, c: __m256) -> __m256 {
            // SAFETY: see the impl.
            unsafe { _mm256_fmadd_ps(a, b, c) }
        }
        #[inline(always)]
        unsafe fn load_runs(c: *const f32, runs: &[Run]) -> __m256 {
            // SAFETY: see the impl.
            unsafe { y8_load_runs(c, runs) }
        }
        #[inline(always)]
        unsafe fn store_runs(c: *mut f32, runs: &[Run], v: __m256) {
            // SAFETY: see the impl.
            unsafe { y8_store_runs(c, runs, v) }
        }
    }

    impl Lanes for Z16 {
        const N: usize = 16;
        type V = __m512;
        #[inline(always)]
        unsafe fn zero() -> __m512 {
            // SAFETY: see the impl.
            unsafe { _mm512_setzero_ps() }
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m512 {
            // SAFETY: see the impl.
            unsafe { _mm512_loadu_ps(p) }
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m512) {
            // SAFETY: see the impl.
            unsafe { _mm512_storeu_ps(p, v) }
        }
        #[inline(always)]
        unsafe fn splat(p: *const f32) -> __m512 {
            // SAFETY: see the impl.
            unsafe { _mm512_set1_ps(*p) }
        }
        #[inline(always)]
        unsafe fn fma(a: __m512, b: __m512, c: __m512) -> __m512 {
            // SAFETY: see the impl.
            unsafe { _mm512_fmadd_ps(a, b, c) }
        }
        #[inline(always)]
        unsafe fn load_runs(c: *const f32, runs: &[Run]) -> __m512 {
            // SAFETY: see the impl.
            unsafe { z16_load_runs(c, runs) }
        }
        #[inline(always)]
        unsafe fn store_runs(c: *mut f32, runs: &[Run], v: __m512) {
            // SAFETY: see the impl.
            unsafe { z16_store_runs(c, runs, v) }
        }
    }

    // The run-by-run moves of a tile that is short or straddles segments,
    // kept out of line: the tile's accumulators must stay in registers,
    // which a loop over runs inside the tile would keep them from.

    /// [`Lanes::load_runs`] of [`Y8`], through a spill.
    ///
    /// # Safety
    ///
    /// Requires AVX2 at runtime; every run's floats readable.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline(never)]
    unsafe fn y8_load_runs(c: *const f32, runs: &[Run]) -> __m256 {
        let mut lanes = [0.0f32; 8];
        for run in runs {
            for (q, lane) in lanes.iter_mut().enumerate().take(run.hi).skip(run.lo) {
                // SAFETY: the caller's contract.
                *lane = unsafe { *c.add(run.off + q - run.lo) };
            }
        }
        // SAFETY: `lanes` holds eight floats.
        unsafe { _mm256_loadu_ps(lanes.as_ptr()) }
    }

    /// [`Lanes::store_runs`] of [`Y8`], through a spill.
    ///
    /// # Safety
    ///
    /// Requires AVX2 at runtime; every run's floats writable.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline(never)]
    unsafe fn y8_store_runs(c: *mut f32, runs: &[Run], v: __m256) {
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` holds eight floats.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), v) };
        for run in runs {
            for (q, &lane) in lanes.iter().enumerate().take(run.hi).skip(run.lo) {
                // SAFETY: the caller's contract.
                unsafe { *c.add(run.off + q - run.lo) = lane };
            }
        }
    }

    /// [`Lanes::load_runs`] of [`Z16`]: per run, a `k`-masked load of its
    /// floats, expanded into its lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F at runtime; every run's floats readable.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    #[inline(never)]
    unsafe fn z16_load_runs(c: *const f32, runs: &[Run]) -> __m512 {
        let mut v = _mm512_setzero_ps();
        for run in runs {
            // SAFETY: the caller's contract; the masked load reads exactly
            // the run's `hi − lo` floats.
            let x = unsafe { _mm512_maskz_loadu_ps(span(0, run.hi - run.lo), c.add(run.off)) };
            v = _mm512_mask_expand_ps(v, span(run.lo, run.hi), x);
        }
        v
    }

    /// [`Lanes::store_runs`] of [`Z16`]: per run, its lanes compressed to
    /// the bottom and stored `k`-masked.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F at runtime; every run's floats writable.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    #[inline(never)]
    unsafe fn z16_store_runs(c: *mut f32, runs: &[Run], v: __m512) {
        for run in runs {
            let x = _mm512_maskz_compress_ps(span(run.lo, run.hi), v);
            // SAFETY: the caller's contract; the masked store writes exactly
            // the run's `hi − lo` floats.
            unsafe { _mm512_mask_storeu_ps(c.add(run.off), span(0, run.hi - run.lo), x) };
        }
    }

    /// The `k` mask of lanes `lo..hi` (`hi ≤ 16`).
    #[inline(always)]
    fn span(lo: usize, hi: usize) -> __mmask16 {
        (((1u32 << hi) - 1) & !((1u32 << lo) - 1)) as __mmask16
    }

    /// Expands `$row!(r)` for each row `r` of an A panel: the row loops of
    /// [`tile`] written out, so no accumulator is ever indexed by a loop
    /// variable and all of them stay in registers.
    macro_rules! panel_rows {
        ($row:ident) => {
            const { assert!(MR == 6) };
            $row!(0);
            $row!(1);
            $row!(2);
            $row!(3);
            $row!(4);
            $row!(5);
        };
    }

    /// The register tile, `AP` A panels (`pa` and on at `MR·kc` apart) ×
    /// `VECS` vectors of `L::N` lanes (`VECS·L::N / NR` B panels, `pb` and
    /// on at `NR·kc` apart): `AP·MR·VECS` accumulators are loaded from C
    /// (`resume`) or start at `+0.0`, swept by `kc` fused multiply–adds each
    /// — `acc ← fma(broadcast(a), b, acc)`, one rounding per step, ascending
    /// `p` — and stored back. Lanes are distinct output columns, so vector
    /// width never reorders any element's reduction. A tile whose rows are
    /// all live and whose vectors each land whole in one layout segment
    /// moves them with plain loads and stores; any other moves its rows
    /// `< out.rows` run by run ([`Lanes::store_runs`]).
    ///
    /// # Safety
    ///
    /// Requires `L`'s features at runtime; `pa` must hold `AP` and `pb`
    /// `VECS·L::N / NR` packed panels of `kc` rows, and the tile's live rows
    /// and runs must be elements of C that no other thread touches.
    #[inline(always)]
    unsafe fn tile<L: Lanes, const AP: usize, const VECS: usize>(
        resume: bool,
        kc: usize,
        pa: *const f32,
        pb: *const f32,
        out: &Tile,
    ) {
        const { assert!(AP <= 2 && VECS <= 2) };
        let (cols, whole) = (out.cols, out.rows == AP * MR && out.cols.dense);
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee.
        unsafe {
            let mut acc = [[[L::zero(); VECS]; MR]; AP];
            if resume {
                for (ai, panel) in acc.iter_mut().enumerate() {
                    macro_rules! load_row {
                        ($r:literal) => {
                            if ai * MR + $r < out.rows {
                                let c = out.c.add((ai * MR + $r) * out.ldc);
                                for (v, x) in panel[$r].iter_mut().enumerate() {
                                    *x = if whole {
                                        L::load(c.add(cols.runs[v].off))
                                    } else {
                                        L::load_runs(c, cols.vector(v))
                                    };
                                }
                            }
                        };
                    }
                    panel_rows!(load_row);
                }
            }
            let b_at = |v: usize| pb.add((v * L::N / NR) * NR * kc + (v * L::N) % NR);
            for p in 0..kc {
                let mut b = [L::zero(); VECS];
                for (v, bv) in b.iter_mut().enumerate() {
                    *bv = L::load(b_at(v).add(p * NR));
                }
                for (ai, panel) in acc.iter_mut().enumerate() {
                    let a = pa.add(ai * MR * kc + p * MR);
                    macro_rules! fma_row {
                        ($r:literal) => {
                            let ar = L::splat(a.add($r));
                            for (x, &bv) in panel[$r].iter_mut().zip(&b) {
                                *x = L::fma(ar, bv, *x);
                            }
                        };
                    }
                    panel_rows!(fma_row);
                }
            }
            for (ai, panel) in acc.iter().enumerate() {
                macro_rules! store_row {
                    ($r:literal) => {
                        if ai * MR + $r < out.rows {
                            let c = out.c.add((ai * MR + $r) * out.ldc);
                            for (v, &x) in panel[$r].iter().enumerate() {
                                if whole {
                                    L::store(c.add(cols.runs[v].off), x);
                                } else {
                                    L::store_runs(c, cols.vector(v), x);
                                }
                            }
                        }
                    };
                }
                panel_rows!(store_row);
            }
        }
    }

    /// The AVX2 tier's 6×16 tile: twelve `ymm` accumulators (`MR` rows × two
    /// 8-lane halves), two B vectors and one A broadcast fill 15 of the 16
    /// `ymm` registers, 12 FMAs per `p` against 8 load-port µops.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA at runtime, and [`tile`]'s contract for one A
    /// and one B panel.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tile_avx2(resume: bool, kc: usize, pa: *const f32, pb: *const f32, out: &Tile) {
        const { assert!(NR == 2 * Y8::N) };
        // SAFETY: the caller's contract, and the features are enabled here.
        unsafe { tile::<Y8, 1, 2>(resume, kc, pa, pb, out) }
    }

    /// The AVX-512 tier's tiles: `ap ∈ {1, 2}` A panels × `bp ∈ {1, 2}` B
    /// panels, one `zmm` per B panel and row. The full 2 × 2 tile is 12×32:
    /// 24 accumulators, two B vectors and a broadcast in 27 of the 32 `zmm`
    /// registers, 24 FMAs per `p` against 14 loads. The narrower ones take
    /// the panels a block has left over.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F, AVX2 and FMA at runtime, and [`tile`]'s contract
    /// for `ap` A and `bp` B panels.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn tile_avx512(
        (ap, bp): (usize, usize),
        resume: bool,
        kc: usize,
        pa: *const f32,
        pb: *const f32,
        out: &Tile,
    ) {
        const { assert!(NR == Z16::N) };
        // SAFETY: the caller's contract, and the features are enabled here.
        unsafe {
            match (ap, bp) {
                (2, 2) => tile::<Z16, 2, 2>(resume, kc, pa, pb, out),
                (2, _) => tile::<Z16, 2, 1>(resume, kc, pa, pb, out),
                (_, 2) => tile::<Z16, 1, 2>(resume, kc, pa, pb, out),
                _ => tile::<Z16, 1, 1>(resume, kc, pa, pb, out),
            }
        }
    }

    /// `iters` steps of `x ← fma(x, m, a)` on `ACCS` independent
    /// accumulators — enough to cover the FMA latency on both ports — with
    /// `m` just under one, so the values settle instead of overflowing.
    /// Returns lane 0 of each accumulator, summed.
    ///
    /// # Safety
    ///
    /// Requires `L`'s features at runtime.
    #[inline(always)]
    unsafe fn fma_loop<L: Lanes, const ACCS: usize>(iters: usize) -> f32 {
        let (m, a) = (0.999_999f32, 1e-7f32);
        let mut lanes = [0.0f32; 16];
        // SAFETY: the caller's contract; `lanes` holds a vector of either
        // width.
        unsafe {
            let (vm, va) = (L::splat(&m), L::splat(&a));
            let mut acc = [L::zero(); ACCS];
            for _ in 0..iters {
                for x in acc.iter_mut() {
                    *x = L::fma(*x, vm, va);
                }
            }
            let mut sum = 0.0;
            for x in acc {
                L::store(lanes.as_mut_ptr(), x);
                sum += lanes[0];
            }
            sum
        }
    }

    /// [`fma_loop`] in `ymm`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn fma_loop_avx2<const ACCS: usize>(iters: usize) -> f32 {
        // SAFETY: the features are enabled here.
        unsafe { fma_loop::<Y8, ACCS>(iters) }
    }

    /// [`fma_loop`] in `zmm`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F, AVX2 and FMA at runtime.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn fma_loop_avx512<const ACCS: usize>(iters: usize) -> f32 {
        // SAFETY: the features are enabled here.
        unsafe { fma_loop::<Z16, ACCS>(iters) }
    }

    /// Transposes a 16×16 block held as sixteen row vectors: lane `i` of
    /// result `t` is lane `t` of row `i`. Pairs, then quads inside each
    /// 128-bit block, then the 4×4 transpose of the 128-bit blocks. Only
    /// shuffles, so every bit pattern moves unchanged.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    fn transpose16(r: [__m512; 16]) -> [__m512; 16] {
        let mut t = [_mm512_setzero_ps(); 16];
        for i in 0..8 {
            t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
            t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
        }
        // u[4i + c]: column 4L + c of rows 4i..4i+4 in 128-bit block L.
        let mut u = [_mm512_setzero_ps(); 16];
        for i in 0..4 {
            u[4 * i] = _mm512_shuffle_ps::<0x44>(t[4 * i], t[4 * i + 2]);
            u[4 * i + 1] = _mm512_shuffle_ps::<0xEE>(t[4 * i], t[4 * i + 2]);
            u[4 * i + 2] = _mm512_shuffle_ps::<0x44>(t[4 * i + 1], t[4 * i + 3]);
            u[4 * i + 3] = _mm512_shuffle_ps::<0xEE>(t[4 * i + 1], t[4 * i + 3]);
        }
        let mut out = [_mm512_setzero_ps(); 16];
        for c in 0..4 {
            let v0 = _mm512_shuffle_f32x4::<0x44>(u[c], u[4 + c]);
            let v1 = _mm512_shuffle_f32x4::<0xEE>(u[c], u[4 + c]);
            let v2 = _mm512_shuffle_f32x4::<0x44>(u[8 + c], u[12 + c]);
            let v3 = _mm512_shuffle_f32x4::<0xEE>(u[8 + c], u[12 + c]);
            out[c] = _mm512_shuffle_f32x4::<0x88>(v0, v2);
            out[4 + c] = _mm512_shuffle_f32x4::<0xDD>(v0, v2);
            out[8 + c] = _mm512_shuffle_f32x4::<0x88>(v1, v3);
            out[12 + c] = _mm512_shuffle_f32x4::<0xDD>(v1, v3);
        }
        out
    }

    /// [`pack_depth_contiguous`] at 16 lanes, for `R = NR`: per block of 16
    /// depth rows, each live lane is one `k`-masked load of the block's rows
    /// (lanes `w..` are zero vectors, never read), the block is transposed
    /// in registers and its live rows are stored whole.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F at runtime; `1 ≤ w ≤ NR` and `kc ≥ 1`;
    /// `src + q·cs + p` must be readable for every `q < w`, `p < kc`, and
    /// `dst` writable for `kc·NR` floats.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn pack_depth_contiguous16(
        src: *const f32,
        cs: usize,
        kc: usize,
        w: usize,
        dst: *mut f32,
    ) {
        const { assert!(NR == 16) };
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee.
        unsafe {
            for p0 in (0..kc).step_by(16) {
                let rows = (kc - p0).min(16);
                let depth = span(0, rows);
                let mut block = [_mm512_setzero_ps(); 16];
                for (q, lane) in block.iter_mut().enumerate().take(w) {
                    *lane = _mm512_maskz_loadu_ps(depth, src.add(q * cs + p0));
                }
                for (t, row) in transpose16(block).into_iter().enumerate().take(rows) {
                    _mm512_storeu_ps(dst.add((p0 + t) * NR), row);
                }
            }
        }
    }

    /// Packs a panel of `NR` lanes whose lanes are contiguous: depth row
    /// `p` is `w` floats at `src + p·rs`, moved by one `k`-masked load
    /// (lanes `w..` read nothing and load zeros) and one store to
    /// `dst + p·NR`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F at runtime; `w ≤ NR`; `src + p·rs + q` must be
    /// readable for every `p < kc`, `q < w`, and `dst` writable for `kc·NR`
    /// floats.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn pack_lane_contiguous16(
        src: *const f32,
        rs: usize,
        kc: usize,
        w: usize,
        dst: *mut f32,
    ) {
        const { assert!(NR == 16) };
        let live = span(0, w);
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee.
        unsafe {
            for p in 0..kc {
                _mm512_storeu_ps(dst.add(p * NR), _mm512_maskz_loadu_ps(live, src.add(p * rs)));
            }
        }
    }

    /// Where a gathered panel reads, per lane or per depth row: an offset
    /// into the source and the input row and column it stands for (`off`
    /// of a lane plus `off` of a row is the element's index; `y`s and `x`s
    /// add likewise, and the element is a zero of the padding unless both
    /// sums are inside the plane).
    #[derive(Debug, Clone, Copy, Default)]
    pub(crate) struct Coord {
        pub off: i32,
        pub y: i32,
        pub x: i32,
    }

    /// Packs one depth row per item of `rows`, `r ≤ 16` lanes each, by one
    /// `k`-masked gather: lane `q < lanes.len()` of row `p` is
    /// `src[lanes[q].off + rows[p].off]` where `lanes[q].y + rows[p].y` is
    /// in `0..h` and `lanes[q].x + rows[p].x` in `0..w`, else `+0.0`, as are
    /// lanes `lanes.len()..r`. The gather reads only the lanes its mask
    /// keeps, and the row is stored with one `k`-masked store of `r` lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F at runtime; `lanes.len() ≤ r ≤ 16`; every index a
    /// kept lane forms must be readable from `src`, and `dst` writable for
    /// `r` floats per row.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn gather_panel(
        src: *const f32,
        (h, w): (i32, i32),
        lanes: &[Coord],
        rows: impl Iterator<Item = Coord>,
        r: usize,
        dst: *mut f32,
    ) {
        let mut coords = [[0i32; 16]; 3];
        for (q, lane) in lanes.iter().enumerate() {
            (coords[0][q], coords[1][q], coords[2][q]) = (lane.off, lane.y, lane.x);
        }
        let (live, row_mask) = (span(0, lanes.len()), span(0, r));
        // SAFETY: every pointer below is offset, read and written only within
        // the ranges the `# Safety` section above makes the caller guarantee;
        // `coords` holds three rows of sixteen.
        unsafe {
            let lane_off = _mm512_loadu_epi32(coords[0].as_ptr());
            let lane_y = _mm512_loadu_epi32(coords[1].as_ptr());
            let lane_x = _mm512_loadu_epi32(coords[2].as_ptr());
            let (vh, vw) = (_mm512_set1_epi32(h), _mm512_set1_epi32(w));
            for (p, row) in rows.enumerate() {
                // Unsigned compares: a negative sum wraps past h and w.
                let y = _mm512_add_epi32(lane_y, _mm512_set1_epi32(row.y));
                let x = _mm512_add_epi32(lane_x, _mm512_set1_epi32(row.x));
                let keep =
                    _mm512_mask_cmplt_epu32_mask(_mm512_cmplt_epu32_mask(y, vh) & live, x, vw);
                let idx = _mm512_add_epi32(lane_off, _mm512_set1_epi32(row.off));
                let v = _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), keep, idx, src);
                _mm512_mask_storeu_ps(dst.add(p * r), row_mask, v);
            }
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
                for tier in host_tiers() {
                    set_tier(tier);
                    let got = run_gemm(&a, &b, m, k, n);
                    assert_eq!(
                        got, want,
                        "(m,k,n)=({m},{k},{n}) kc={kc} mc={mc} nc={nc} tier={tier:?}"
                    );
                }
            }
            set_blocking(KC_DEFAULT, MC_DEFAULT, NC_DEFAULT);
            set_tier(Tier::Avx512);
        }
    }

    #[test]
    fn empty_depth_stores_zeros() {
        for tier in host_tiers() {
            set_tier(tier);
            let c = run_gemm(&[], &[], 7, 0, 18);
            assert!(c.iter().all(|v| v.to_bits() == 0), "tier={tier:?}");
        }
        set_tier(Tier::Avx512);
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
    fn the_tier_setter_clamps_to_the_host() {
        for want in Tier::ALL {
            let got = set_tier(want);
            assert_eq!(got, want.min(host_tier()));
            assert_eq!(tier(), got);
            assert_eq!(Isa::current().tier(), got);
            assert_eq!(Isa::clamped(want), Isa::current());
        }
        assert_eq!(simd_supported(), host_tier() >= Tier::Avx2);
        set_tier(Tier::Avx512);
    }
}
