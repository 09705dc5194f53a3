//! Dense matrix multiplication on the blocked engine.
//!
//! [`matmul`] routes through the BLIS-style cache-blocked SIMD engine in
//! [`crate::gemm`] — KC/MC/NC blocking, micro-panels packed block by block
//! into workspace scratch, a runtime-detected AVX2+FMA 6×16 register-tile
//! kernel, and thread partitioning over panel ranges. The fused-transpose
//! variants ([`matmul_tn`], [`matmul_nt`]) feed the same engine through
//! strided views, as do the implicit-GEMM convolutions of [`crate::conv`],
//! so every `puffer-nn` layer hits the one engine too.
//!
//! The engine is **bitwise deterministic across thread counts and SIMD
//! on/off**: every `(i, j)` element is a single accumulator reduced over
//! `p = 0..k` in ascending order with one fused rounding per step,
//! regardless of blocking, tile ownership, or vector width (lanes are
//! distinct output columns).

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

/// Default minimum multiply–add count before a dense kernel fans out to
/// the pool. Recalibrated for the blocked SIMD engine: at ~50 GFLOPS a
/// 2^20-MAC GEMM runs in ~20 µs, about the break-even point against pool
/// dispatch + packing coordination (the old scalar kernel broke even at
/// 2^18).
const PAR_MIN_FLOPS: usize = 1 << 20;

use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Whether a dense kernel of `work` multiply–adds should fan out to the
/// worker pool.
pub(crate) fn parallel_under_default(work: usize) -> bool {
    work >= parallel_threshold() && pool::num_threads() > 1
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
    // The engine stores every element of its product.
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
    Ok(c)
}

/// `C = Aᵀ · B` without materializing the transpose (`A: k×m`, `B: k×n`).
///
/// The blocked engine fed a column-strided view of A — packing absorbs the
/// transpose, so the micro-kernel runs at full speed on the paper's `rᵀ·`
/// backward GEMMs.
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
    Ok(c)
}

/// `C = A · Bᵀ` without materializing the transpose (`A: m×k`, `B: n×k`).
///
/// The blocked engine fed a column-strided view of B — the layout Linear
/// layers store their weights in, so every forward pass takes this route.
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
    Ok(c)
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
    fn matmul_matches_naive() {
        let a = Tensor::randn(&[37, 53], 1.0, 1);
        let b = Tensor::randn(&[53, 29], 1.0, 2);
        assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-3);
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
    fn bitwise_stable_across_thread_counts() {
        let a = Tensor::randn(&[70, 33], 1.0, 10);
        let b = Tensor::randn(&[33, 41], 1.0, 11);
        let prev_threshold = parallel_threshold();
        set_parallel_threshold(0);
        let prev = pool::num_threads();
        pool::set_num_threads(1);
        let one = matmul(&a, &b).unwrap();
        pool::set_num_threads(4);
        let four = matmul(&a, &b).unwrap();
        pool::set_num_threads(prev);
        set_parallel_threshold(prev_threshold);
        assert_eq!(one, four, "thread count must not change results");
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
