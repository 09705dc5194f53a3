//! Profile-dispatched dense matrix multiplication.
//!
//! Two execution profiles mirror the paper's two cuDNN settings (Table 6 vs
//! Table 20): [`MatmulProfile::Reproducible`] uses a straightforward,
//! strictly sequential ikj loop, while [`MatmulProfile::Optimized`] routes
//! through the BLIS-style cache-blocked SIMD engine in [`crate::gemm`] —
//! KC/MC/NC blocking, micro-panels packed block by block into workspace
//! scratch, a runtime-detected AVX2+FMA 6×16 register-tile kernel, and
//! thread partitioning over panel ranges. The fused-transpose variants
//! ([`matmul_tn`], [`matmul_nt`]) feed the same engine through strided
//! views, as do the implicit-GEMM convolutions of [`crate::conv`], so every
//! `puffer-nn` layer hits the fast path too.
//!
//! The engine is **bitwise deterministic across thread counts and SIMD
//! on/off**: every `(i, j)` element is a single accumulator reduced over
//! `p = 0..k` in ascending order with one fused rounding per step,
//! regardless of blocking, tile ownership, or vector width (lanes are
//! distinct output columns). Only the profile switch changes results
//! (within f32 associativity); the thread count never does.

use crate::gemm::{self, CLayout, View};
use crate::pool;
use crate::{Result, Tensor, TensorError};
use puffer_probe as probe;

/// Opens a probe span over a dense kernel and bumps the process-global
/// multiply–add counter. One relaxed atomic load when the probe is off.
#[inline]
pub(crate) fn kernel_span(name: &'static str, m: usize, k: usize, n: usize) -> probe::SpanGuard {
    if !probe::enabled() {
        return probe::span(Q, name); // disabled fast path: returns an empty guard
    }
    probe::counter_add("tensor.macs", (m * k * n) as u64);
    probe::span_with(Q, name, || vec![("m", m.into()), ("k", k.into()), ("n", n.into())])
}

/// Probe category of every dense kernel in this module.
const Q: &str = "tensor";

/// Execution profile for [`matmul_with_profile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum MatmulProfile {
    /// Simple ikj-ordered triple loop; sequential on the caller thread.
    /// Stands in for the paper's "reproducibility optimized cuDNN" setting.
    Reproducible = 0,
    /// Cache-blocked SIMD engine ([`crate::gemm`]); stands in for "speed
    /// optimized cuDNN".
    #[default]
    Optimized = 1,
}

/// Default minimum multiply–add count before a dense kernel fans out to
/// the pool. Recalibrated for the blocked SIMD engine: at ~50 GFLOPS a
/// 2^20-MAC GEMM runs in ~20 µs, about the break-even point against pool
/// dispatch + packing coordination (the old scalar kernel broke even at
/// 2^18).
const PAR_MIN_FLOPS: usize = 1 << 20;

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

static DEFAULT_PROFILE: AtomicU8 = AtomicU8::new(1);

static PAR_THRESHOLD: AtomicUsize = AtomicUsize::new(PAR_MIN_FLOPS);

/// Overrides the multiply–add count above which dense kernels fan out to
/// the worker pool (default `2^20`). `0` parallelizes every eligible call —
/// the determinism test suite uses this to exercise the threaded path at
/// tiny sizes; results are bitwise identical either way.
pub fn set_parallel_threshold(min_flops: usize) {
    PAR_THRESHOLD.store(min_flops, Ordering::Relaxed);
}

/// The current fan-out threshold in multiply–adds.
pub fn parallel_threshold() -> usize {
    PAR_THRESHOLD.load(Ordering::Relaxed)
}

/// Sets the process-wide default profile used by [`matmul`] (and therefore
/// by every layer in `puffer-nn`). Mirrors toggling
/// `cudnn.benchmark`/`cudnn.deterministic` in the paper's Table 6 vs
/// Table 20 runtime benchmarks. Under `Reproducible`, every dense kernel in
/// this crate (including the fused transpose variants, convolution lowering
/// and large elementwise ops) runs strictly sequentially.
pub fn set_default_profile(profile: MatmulProfile) {
    DEFAULT_PROFILE.store(profile as u8, Ordering::Relaxed);
}

/// The current process-wide default profile.
pub fn default_profile() -> MatmulProfile {
    match DEFAULT_PROFILE.load(Ordering::Relaxed) {
        0 => MatmulProfile::Reproducible,
        _ => MatmulProfile::Optimized,
    }
}

/// Whether a dense kernel of `work` multiply–adds should fan out to the
/// worker pool under the process-wide default profile. `Reproducible`
/// always answers no, keeping that regime strictly sequential.
pub(crate) fn parallel_under_default(work: usize) -> bool {
    default_profile() == MatmulProfile::Optimized
        && work >= parallel_threshold()
        && pool::num_threads() > 1
}

/// `C = A · B` for 2-D tensors.
///
/// # Errors
///
/// Returns [`TensorError::WrongDimensions`] if either input is not 2-D and
/// [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use puffer_tensor::{Tensor, matmul::matmul};
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let i = Tensor::eye(2);
/// assert_eq!(matmul(&a, &i)?, a);
/// # Ok::<(), puffer_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_with_profile(a, b, default_profile())
}

/// `C = A · B` under an explicit execution [`MatmulProfile`].
///
/// # Errors
///
/// Same as [`matmul`].
pub fn matmul_with_profile(a: &Tensor, b: &Tensor, profile: MatmulProfile) -> Result<Tensor> {
    check_2d(a, "matmul")?;
    check_2d(b, "matmul")?;
    let (m, ka) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            expected: vec![m, ka],
            got: vec![kb, n],
            op: "matmul",
        });
    }
    let _sp = kernel_span("matmul", m, ka, n);
    // The engine stores every element of its product; the reference loop
    // adds into zeros.
    Ok(match profile {
        MatmulProfile::Reproducible => {
            let mut c = Tensor::zeros(&[m, n]);
            mm_ikj(a.as_slice(), b.as_slice(), c.as_mut_slice(), m, ka, n);
            c
        }
        MatmulProfile::Optimized => {
            let mut c = Tensor::unfilled(&[m, n]);
            gemm::gemm(
                &View::row_major(a.as_slice(), ka).t(),
                &View::row_major(b.as_slice(), n),
                c.as_mut_slice(),
                CLayout::row_major(n),
                m,
                ka,
                n,
                parallel_under_default(m * ka * n),
            );
            c
        }
    })
}

/// `C = Aᵀ · B` without materializing the transpose (`A: k×m`, `B: k×n`).
///
/// Under the `Optimized` default profile this is the blocked engine fed a
/// column-strided view of A — packing absorbs the transpose, so the
/// micro-kernel runs at full speed on the paper's `rᵀ·` backward GEMMs.
///
/// # Errors
///
/// Returns [`TensorError::WrongDimensions`] / [`TensorError::ShapeMismatch`]
/// on rank or inner-dimension mismatch.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_2d(a, "matmul_tn")?;
    check_2d(b, "matmul_tn")?;
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            expected: vec![k, m],
            got: vec![kb, n],
            op: "matmul_tn",
        });
    }
    let _sp = kernel_span("matmul_tn", m, k, n);
    if default_profile() == MatmulProfile::Optimized {
        let mut c = Tensor::unfilled(&[m, n]);
        // A is stored k×m, which is already the depth-major operand.
        gemm::gemm(
            &View::row_major(a.as_slice(), m),
            &View::row_major(b.as_slice(), n),
            c.as_mut_slice(),
            CLayout::row_major(n),
            m,
            k,
            n,
            parallel_under_default(m * k * n),
        );
        return Ok(c);
    }
    let mut c = Tensor::zeros(&[m, n]);
    if m == 0 || n == 0 {
        return Ok(c);
    }
    let (av, bv) = (a.as_slice(), b.as_slice());
    let cv = c.as_mut_slice();
    // Reproducible: sequential outer-product accumulation over k, reusing
    // each B row across all output rows.
    for p in 0..k {
        let arow = &av[p * m..(p + 1) * m];
        let brow = &bv[p * n..(p + 1) * n];
        for (i, &aip) in arow.iter().enumerate() {
            let crow = &mut cv[i * n..(i + 1) * n];
            for (cj, bj) in crow.iter_mut().zip(brow) {
                *cj += aip * bj;
            }
        }
    }
    Ok(c)
}

/// `C = A · Bᵀ` without materializing the transpose (`A: m×k`, `B: n×k`).
///
/// Under the `Optimized` default profile this is the blocked engine fed a
/// column-strided view of B — the layout Linear layers store their weights
/// in, so every forward pass takes this route.
///
/// # Errors
///
/// Returns [`TensorError::WrongDimensions`] / [`TensorError::ShapeMismatch`]
/// on rank or inner-dimension mismatch.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_2d(a, "matmul_nt")?;
    check_2d(b, "matmul_nt")?;
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, kb) = (b.shape()[0], b.shape()[1]);
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            expected: vec![m, k],
            got: vec![n, kb],
            op: "matmul_nt",
        });
    }
    let _sp = kernel_span("matmul_nt", m, k, n);
    if default_profile() == MatmulProfile::Optimized {
        let mut c = Tensor::unfilled(&[m, n]);
        gemm::gemm(
            &View::row_major(a.as_slice(), k).t(),
            &View::row_major(b.as_slice(), k).t(),
            c.as_mut_slice(),
            CLayout::row_major(n),
            m,
            k,
            n,
            parallel_under_default(m * k * n),
        );
        return Ok(c);
    }
    let mut c = Tensor::zeros(&[m, n]);
    if m == 0 || n == 0 {
        return Ok(c);
    }
    let (av, bv) = (a.as_slice(), b.as_slice());
    for (i, crow) in c.as_mut_slice().chunks_exact_mut(n).enumerate() {
        let arow = &av[i * k..(i + 1) * k];
        for (j, cj) in crow.iter_mut().enumerate() {
            *cj = dot_unrolled(arow, &bv[j * k..(j + 1) * k]);
        }
    }
    Ok(c)
}

/// Matrix–vector product `y = A · x` (`A: m×k`, `x: k`).
///
/// Stays on the unrolled-dot path: with one output column there is no
/// register tile to fill, so the blocked engine has nothing to offer.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `x.len() != k`.
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    check_2d(a, "matvec")?;
    let (m, k) = (a.shape()[0], a.shape()[1]);
    if x.len() != k {
        return Err(TensorError::ShapeMismatch {
            expected: vec![k],
            got: x.shape().to_vec(),
            op: "matvec",
        });
    }
    let (av, xv) = (a.as_slice(), x.as_slice());
    let mut y = Tensor::zeros(&[m]);
    if m == 0 {
        return Ok(y);
    }
    let rows = |i0: usize, chunk: &mut [f32]| {
        for (li, yo) in chunk.iter_mut().enumerate() {
            let i = i0 + li;
            *yo = dot_unrolled(&av[i * k..(i + 1) * k], xv);
        }
    };
    if parallel_under_default(m * k) {
        pool::run_chunked(y.as_mut_slice(), 1, rows);
    } else {
        rows(0, y.as_mut_slice());
    }
    Ok(y)
}

/// 4-lane unrolled dot product: independent accumulators keep the FP adder
/// pipeline full; the lane-combination order is fixed, so the result only
/// depends on the inputs.
#[inline]
fn dot_unrolled(x: &[f32], y: &[f32]) -> f32 {
    let xc = x.chunks_exact(4);
    let yc = y.chunks_exact(4);
    let tail: f32 = xc.remainder().iter().zip(yc.remainder()).map(|(a, b)| a * b).sum();
    let mut acc = [0.0f32; 4];
    for (xs, ys) in xc.zip(yc) {
        for l in 0..4 {
            acc[l] += xs[l] * ys[l];
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

fn mm_ikj(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (p, &aip) in arow.iter().enumerate() {
            if aip == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (cj, bj) in crow.iter_mut().zip(brow) {
                *cj += aip * bj;
            }
        }
    }
}

fn check_2d(t: &Tensor, op: &'static str) -> Result<()> {
    if t.ndim() != 2 {
        return Err(TensorError::WrongDimensions { expected: 2, got: t.ndim(), op });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.at2(i, p) * b.at2(p, j);
                }
                *c.at2_mut(i, j) = s;
            }
        }
        c
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive_both_profiles() {
        let a = Tensor::randn(&[37, 53], 1.0, 1);
        let b = Tensor::randn(&[53, 29], 1.0, 2);
        let reference = naive(&a, &b);
        for profile in [MatmulProfile::Reproducible, MatmulProfile::Optimized] {
            let c = matmul_with_profile(&a, &b, profile).unwrap();
            assert_close(&c, &reference, 1e-3);
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::randn(&[5, 5], 1.0, 3);
        let i = Tensor::eye(5);
        assert_close(&matmul(&a, &i).unwrap(), &a, 0.0);
        assert_close(&matmul(&i, &a).unwrap(), &a, 0.0);
    }

    #[test]
    fn transposed_variants_match() {
        let a = Tensor::randn(&[11, 7], 1.0, 4);
        let b = Tensor::randn(&[11, 13], 1.0, 5);
        let tn = matmul_tn(&a, &b).unwrap();
        let explicit = matmul(&a.transpose(), &b).unwrap();
        assert_close(&tn, &explicit, 1e-4);

        let c = Tensor::randn(&[9, 7], 1.0, 6);
        let d = Tensor::randn(&[5, 7], 1.0, 7);
        let nt = matmul_nt(&c, &d).unwrap();
        let explicit = matmul(&c, &d.transpose()).unwrap();
        assert_close(&nt, &explicit, 1e-4);
    }

    #[test]
    fn transposed_variants_match_reproducible_too() {
        let prev = default_profile();
        set_default_profile(MatmulProfile::Reproducible);
        let a = Tensor::randn(&[11, 7], 1.0, 14);
        let b = Tensor::randn(&[11, 13], 1.0, 15);
        let tn = matmul_tn(&a, &b).unwrap();
        let c = Tensor::randn(&[9, 7], 1.0, 16);
        let d = Tensor::randn(&[5, 7], 1.0, 17);
        let nt = matmul_nt(&c, &d).unwrap();
        set_default_profile(prev);
        assert_close(&tn, &matmul(&a.transpose(), &b).unwrap(), 1e-4);
        assert_close(&nt, &matmul(&c, &d.transpose()).unwrap(), 1e-4);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::randn(&[6, 4], 1.0, 8);
        let x = Tensor::randn(&[4], 1.0, 9);
        let y = matvec(&a, &x).unwrap();
        let xm = x.reshape(&[4, 1]).unwrap();
        let ym = matmul(&a, &xm).unwrap();
        assert_close(&y, &ym.reshape(&[6]).unwrap(), 1e-5);
    }

    #[test]
    fn dimension_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 5]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_tn(&a, &b).is_err());
        assert!(matmul_nt(&a, &b).is_err());
        // Non-2-D operands are rejected by every variant alike.
        let v = Tensor::zeros(&[3]);
        assert!(matmul(&a, &v).is_err());
        assert!(matmul(&v, &a).is_err());
        assert!(matmul_tn(&a, &v).is_err());
        assert!(matmul_tn(&v, &a).is_err());
        assert!(matmul_nt(&a, &v).is_err());
        assert!(matmul_nt(&v, &a).is_err());
        assert!(matvec(&a, &Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn panel_boundary_sizes() {
        // Sizes straddling the MR=6 / NR=16 register-tile edges and the
        // KC=256 / MC=96 block edges of the gemm engine.
        for &(m, k, n) in &[
            (1, 1, 1),
            (6, 16, 16),
            (5, 9, 7),
            (7, 17, 18),
            (97, 130, 51),
            (1, 300, 1),
            (130, 2, 70),
        ] {
            let a = Tensor::randn(&[m, k], 1.0, (m * k) as u64);
            let b = Tensor::randn(&[k, n], 1.0, (k * n + 1) as u64);
            assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-2);
        }
    }

    #[test]
    fn optimized_is_bitwise_stable_across_thread_counts() {
        let a = Tensor::randn(&[70, 33], 1.0, 10);
        let b = Tensor::randn(&[33, 41], 1.0, 11);
        let prev_threshold = parallel_threshold();
        set_parallel_threshold(0);
        let prev = pool::num_threads();
        pool::set_num_threads(1);
        let one = matmul_with_profile(&a, &b, MatmulProfile::Optimized).unwrap();
        pool::set_num_threads(4);
        let four = matmul_with_profile(&a, &b, MatmulProfile::Optimized).unwrap();
        pool::set_num_threads(prev);
        set_parallel_threshold(prev_threshold);
        assert_eq!(one, four, "thread count must not change Optimized results");
    }

    #[test]
    fn empty_dimensions() {
        let a = Tensor::zeros(&[0, 4]);
        let b = Tensor::zeros(&[4, 3]);
        assert_eq!(matmul(&a, &b).unwrap().shape(), &[0, 3]);
        let a = Tensor::zeros(&[3, 0]);
        let b = Tensor::zeros(&[0, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[3, 2]);
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }
}
