//! The GEMM operand packer against a per-element oracle, bit for bit.
//!
//! `View::pack_panel` has vector paths (an in-register 8×8 transpose when
//! depth is contiguous, masked row copies when lanes are) and the scalar
//! loops they replaced, chosen by the engine's SIMD switch. Packing only
//! copies, so both must write `dst[p·r + q] = v(p0 + p, j0 + q)` for
//! `q < w` and `+0.0` for `q ≥ w`, for every bit pattern — NaN payloads,
//! signed zeros, infinities and subnormals included — and must read nothing
//! past the end of the view's slice: every source here ends exactly at the
//! last element its panel reads, and on Linux both it and `dst` end where
//! an inaccessible page begins, so one lane read or written past either end
//! faults instead of passing. Then the three `matmul*` variants, whose
//! operands cover every orientation, against the fused-chain oracle.
//!
//! The SIMD switch is process-global, so every test serializes on one lock.

#![allow(
    clippy::disallowed_methods,
    reason = "the oracles build plain buffers; the arena rule binds the kernel modules"
)]

use std::sync::Mutex;

use puffer_tensor::gemm::{self, Isa, PanelSource, View, MR, NR};
use puffer_tensor::matmul::{
    matmul, matmul_nt, matmul_tn, parallel_threshold, set_parallel_threshold,
};
use puffer_tensor::pool::{num_threads, set_num_threads};
use puffer_tensor::Tensor;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
use guarded::PageEnd;

/// Floats that end exactly where a `PROT_NONE` page begins.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod guarded {
    use std::ffi::c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    const PAGE: usize = 4096;
    const PROT_NONE: i32 = 0;
    const PROT_READ_WRITE: i32 = 1 | 2;
    const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

    pub struct PageEnd {
        map: *mut u8,
        map_len: usize,
        len: usize,
    }

    impl PageEnd {
        /// A copy of `values` whose last element is the last 4 bytes
        /// before the guard page.
        pub fn new(values: &[f32]) -> Self {
            let bytes = (std::mem::size_of_val(values)).div_ceil(PAGE).max(1) * PAGE;
            let map_len = bytes + PAGE;
            // SAFETY: an anonymous private mapping at an address of the
            // kernel's choosing touches no existing memory.
            let map = unsafe {
                mmap(std::ptr::null_mut(), map_len, PROT_READ_WRITE, MAP_PRIVATE_ANONYMOUS, -1, 0)
            };
            assert!(map as isize != -1, "mmap failed");
            let map = map.cast::<u8>();
            // SAFETY: `map + bytes` is the mapping's last page, which
            // nothing references yet.
            let rc = unsafe { mprotect(map.add(bytes).cast(), PAGE, PROT_NONE) };
            assert_eq!(rc, 0, "mprotect failed");
            let mut out = PageEnd { map, map_len, len: values.len() };
            out.as_mut_slice().copy_from_slice(values);
            out
        }

        fn start(&self) -> *mut f32 {
            // SAFETY: `len` floats end at the guard page, inside the
            // readable part of the mapping, which starts page-aligned.
            unsafe { self.map.add(self.map_len - PAGE - 4 * self.len).cast() }
        }

        pub fn as_slice(&self) -> &[f32] {
            // SAFETY: `start()` is 4-aligned and the `len` floats after it
            // are mapped read-write, initialised by `new`, and borrowed
            // through `self` only.
            unsafe { std::slice::from_raw_parts(self.start(), self.len) }
        }

        pub fn as_mut_slice(&mut self) -> &mut [f32] {
            // SAFETY: as in `as_slice`, with `self` borrowed mutably.
            unsafe { std::slice::from_raw_parts_mut(self.start(), self.len) }
        }
    }

    impl Drop for PageEnd {
        fn drop(&mut self) {
            // SAFETY: the whole mapping `new` made; no slice of it outlives
            // `self`.
            unsafe { munmap(self.map.cast(), self.map_len) };
        }
    }
}

/// Elsewhere, a plain copy: the same checks, without the fault.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
struct PageEnd(Vec<f32>);

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
impl PageEnd {
    fn new(values: &[f32]) -> Self {
        PageEnd(values.to_vec())
    }
    fn as_slice(&self) -> &[f32] {
        &self.0
    }
    fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.0
    }
}

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Restores the engine's global knobs when a test ends, pass or fail.
struct Knobs {
    simd: bool,
    threads: usize,
    threshold: usize,
    blocking: (usize, usize, usize),
}

impl Knobs {
    fn save() -> Self {
        Knobs {
            simd: gemm::simd_enabled(),
            threads: num_threads(),
            threshold: parallel_threshold(),
            blocking: gemm::blocking(),
        }
    }
}

impl Drop for Knobs {
    fn drop(&mut self) {
        gemm::set_simd_enabled(self.simd);
        set_num_threads(self.threads);
        set_parallel_threshold(self.threshold);
        let (kc, mc, nc) = self.blocking;
        gemm::set_blocking(kc, mc, nc);
    }
}

/// Bit patterns a copy must carry through unchanged: quiet and signalling
/// NaNs with payloads and either sign, ±0, ±Inf, the smallest and largest
/// subnormals, and the extremes of the normal range.
const SPECIALS: [u32; 12] = [
    0x7fc0_0000, // quiet NaN
    0xffc0_1234, // negative quiet NaN with a payload
    0x7f80_0001, // signalling NaN
    0xff80_4321, // negative signalling NaN with a payload
    0x0000_0000, // +0
    0x8000_0000, // −0
    0x7f80_0000, // +Inf
    0xff80_0000, // −Inf
    0x0000_0001, // smallest subnormal
    0x807f_ffff, // largest negative subnormal
    0x7f7f_ffff, // f32::MAX
    0x0080_0000, // f32::MIN_POSITIVE
];

/// `len` elements: every fifth a special pattern, the rest distinct
/// ordinary values, so a misplaced element shows as a wrong bit pattern.
fn payload(len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| match i % 5 {
            0 => f32::from_bits(SPECIALS[(i / 5) % SPECIALS.len()]),
            _ => i as f32 * 0.25 - 100.0,
        })
        .collect()
}

/// The contract, element by element, as bit patterns.
fn oracle(v: &View, (p0, kc): (usize, usize), (j0, w): (usize, usize), r: usize) -> Vec<u32> {
    let mut want = vec![0u32; kc * r];
    for p in 0..kc {
        for q in 0..w {
            want[p * r + q] = v.data[(p0 + p) * v.rs + (j0 + q) * v.cs].to_bits();
        }
    }
    want
}

/// The storage orientations a `View` meets, as `(rs, cs)` for a logical
/// `k × d` operand: lane-contiguous (a row-major B, A of `matmul_tn`),
/// depth-contiguous (a row-major A through `.t()`, B of `matmul_nt`), and
/// fully strided, with both strides longer than the panel.
fn orientations(k: usize, d: usize) -> [(&'static str, usize, usize); 3] {
    [("lane-contiguous", d, 1), ("depth-contiguous", 1, k), ("strided", 2 * d + 3, 3)]
}

#[test]
fn every_orientation_packs_the_oracle_bits_with_simd_on_and_off() {
    let _g = lock();
    let _knobs = Knobs::save();
    let mut checked = 0usize;
    for kc in [1usize, 7, 8, 9, 255, 256] {
        for r in [MR, NR] {
            for w in 1..=r {
                // A panel at the origin and one deep inside a larger operand.
                for (p0, j0) in [(0usize, 0usize), (5, 3)] {
                    let (k, d) = (p0 + kc + 2, j0 + r + 1);
                    let full = payload(k * (2 * d + 3) + 3 * d);
                    for (name, rs, cs) in orientations(k, d) {
                        // The slice ends at the last element the panel reads.
                        let last = (p0 + kc - 1) * rs + (j0 + w - 1) * cs;
                        let src = PageEnd::new(&full[..=last]);
                        let v = View { data: src.as_slice(), rs, cs };
                        let want = oracle(&v, (p0, kc), (j0, w), r);
                        for simd in [true, false] {
                            gemm::set_simd_enabled(simd);
                            let mut dst = PageEnd::new(&vec![f32::NAN; kc * r]);
                            let dst = dst.as_mut_slice();
                            v.pack_panel(p0, kc, j0, w, r, dst, Isa::current());
                            let got: Vec<u32> = dst.iter().map(|x| x.to_bits()).collect();
                            assert!(
                                got == want,
                                "{name} kc={kc} r={r} w={w} p0={p0} j0={j0} simd={simd}: \
                                 first difference at {:?}",
                                got.iter().zip(&want).position(|(g, w)| g != w)
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(checked, 6 * (MR + NR) * 2 * 3 * 2);
}

/// The vector paths' bounds asserts, on the two orientations that have
/// vector paths: a view one element short of its panel panics before
/// anything is read, as the scalar slices do.
#[test]
fn a_panel_reading_past_its_view_panics_on_both_paths() {
    let _g = lock();
    let _knobs = Knobs::save();
    let (kc, r, w) = (9, MR, MR);
    for (name, rs, cs) in orientations(kc, w).into_iter().take(2) {
        let last = (kc - 1) * rs + (w - 1) * cs;
        let short = payload(last);
        let v = View { data: &short, rs, cs };
        for simd in [true, false] {
            gemm::set_simd_enabled(simd);
            let mut dst = vec![0.0f32; kc * r];
            let packed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                v.pack_panel(0, kc, 0, w, r, &mut dst, Isa::current());
            }));
            assert!(packed.is_err(), "{name} simd={simd}: read one element past its view");
        }
    }
}

/// One accumulator per output element, ascending-depth fused chain: the
/// arithmetic every `matmul*` variant promises bit for bit.
fn fma_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<u32> {
    let mut c = vec![0u32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = a[i * k + p].mul_add(b[p * n + j], acc);
            }
            c[i * n + j] = acc.to_bits();
        }
    }
    c
}

fn transpose(t: &Tensor) -> Tensor {
    let (rows, cols) = (t.rows(), t.cols());
    let mut out = Tensor::zeros(&[cols, rows]);
    for i in 0..rows {
        for j in 0..cols {
            out.as_mut_slice()[j * rows + i] = t.as_slice()[i * cols + j];
        }
    }
    out
}

/// A random operand with exact zeros of both signs and subnormals mixed
/// in — finite, so every product is a number and the comparison is about
/// which elements were packed, not how NaNs propagate through an FMA.
fn operand(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut t = Tensor::randn(&[rows, cols], 1.0, seed);
    for (i, x) in t.as_mut_slice().iter_mut().enumerate() {
        match i % 7 {
            2 => *x = -0.0,
            4 => *x = f32::from_bits(0x0000_0003 + i as u32 % 1000),
            _ => {}
        }
    }
    t
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// The shapes of `simd_bitwise.rs`: straddling MR = 6 / NR = 16, KC = 256
/// and MC = 96.
const SHAPES: [(usize, usize, usize); 6] =
    [(1, 1, 1), (6, 16, 16), (7, 257, 18), (96, 96, 96), (101, 260, 130), (5, 300, 1)];

#[test]
fn all_three_matmul_variants_match_the_fma_oracle_through_every_packer() {
    let _g = lock();
    let _knobs = Knobs::save();
    set_parallel_threshold(0);
    for &(m, k, n) in &SHAPES {
        let (a, b) = (operand(m, k, 41), operand(k, n, 42));
        let (at, bt) = (transpose(&a), transpose(&b));
        let want = fma_reference(a.as_slice(), b.as_slice(), m, k, n);
        // The default blocking, and one whose depth blocks leave kc % 8
        // tails at every offset.
        for (kc, mc, nc) in [(256, 96, 2048), (13, 12, 32)] {
            gemm::set_blocking(kc, mc, nc);
            for threads in [1usize, 2] {
                set_num_threads(threads);
                for simd in [true, false] {
                    gemm::set_simd_enabled(simd);
                    let ctx = format!("{m}x{k}x{n} kc={kc} threads={threads} simd={simd}");
                    assert_eq!(bits(&matmul(&a, &b).unwrap()), want, "matmul {ctx}");
                    assert_eq!(bits(&matmul_tn(&at, &b).unwrap()), want, "matmul_tn {ctx}");
                    assert_eq!(bits(&matmul_nt(&a, &bt).unwrap()), want, "matmul_nt {ctx}");
                }
            }
        }
    }
}
