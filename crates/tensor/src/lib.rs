//! Dense f32 tensor substrate for the Pufferfish reproduction.
//!
//! This crate provides the linear-algebra kernel that the rest of the
//! workspace is built on: a row-major dense [`Tensor`], cache-blocked
//! matrix multiplication, convolution primitives (implicit GEMM, direct
//! kernels for thin stride-1/2 and 1×1 layers, and the explicit im2col / col2im
//! lowering kept as their reference), the per-head core of scaled
//! dot-product [`attention`], a one-sided
//! Jacobi [singular value decomposition](svd) (the operation at the heart of
//! Pufferfish's "vanilla warm-up" factorization), IEEE 754 binary16
//! emulation used by the mixed-precision experiments, and the random weight
//! initializers used by the model zoo.
//!
//! Everything is implemented from scratch on `std` — the generator behind
//! every seed is [`rng::Rng`] — with no BLAS or LAPACK dependency, so results
//! are bit-reproducible across machines given a seed.
//!
//! # Threading
//!
//! Dense kernels (GEMM, convolution, large elementwise ops) fan out to a
//! lazily-initialized process-wide worker [`pool`] above a size threshold.
//! `PUFFER_NUM_THREADS` (or
//! [`pool::set_num_threads`]) controls the width; `PUFFER_NUM_THREADS=1`
//! runs everything inline without spawning a single thread. All parallel
//! kernels partition output regions and preserve the sequential per-element
//! reduction order, so results are **bitwise identical for every thread
//! count** — parallelism never costs reproducibility.
//!
//! # Memory reuse
//!
//! Tensor storage and kernel scratch (GEMM operand blocks, convolution
//! scatter blocks) come from per-thread scratch arenas ([`workspace`]) and are
//! returned on drop, so a steady-state training step allocates nothing
//! fresh. Pooled buffers are zeroed or fully overwritten before use —
//! results are bitwise identical to fresh allocation
//! ([`workspace::set_enabled`] toggles reuse off to verify).
//!
//! # Example
//!
//! ```
//! use puffer_tensor::{Tensor, svd::truncated_svd};
//!
//! // Factorize a weight matrix W ≈ U Vᵀ at rank 2, Pufferfish-style.
//! let w = Tensor::randn(&[8, 6], 0.5, 42);
//! let fact = truncated_svd(&w, 2).unwrap();
//! let (u, vt) = fact.split_balanced();
//! assert_eq!(u.shape(), &[8, 2]);
//! assert_eq!(vt.shape(), &[2, 6]);
//! ```

// `crates/tensor/clippy.toml` bans the two fresh-buffer calls; only the
// kernel modules deny them, outside their tests (DESIGN.md §8).
#![allow(
    clippy::disallowed_methods,
    reason = "fresh buffers are banned in the kernel modules, which deny this lint themselves"
)]

pub mod attention;
pub mod conv;
mod conv_direct;
pub mod error;
pub mod f16;
pub mod gemm;
pub mod init;
pub mod io;
pub mod matmul;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod svd;
mod tensor;
pub mod workspace;

pub use error::TensorError;
pub use tensor::Tensor;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;

/// One seeded violation per contract the compiler holds in this crate
/// (DESIGN.md §8). Dropping an entry from `clippy.toml` leaves its
/// `#[expect]` unfulfilled and fails `cargo clippy -- -D warnings` here. An
/// `#[expect]` switches its own lint on, so these only show that the lints
/// still see the patterns; that the kernel modules deny the fresh buffers
/// and `Cargo.toml` the unsafe operations is pinned by the root package's
/// `code_contracts` test.
#[cfg(clippy)]
#[allow(dead_code, reason = "linted, never called")]
mod clippy_canaries {
    #[expect(clippy::disallowed_methods)]
    fn filled(n: usize) -> Vec<f32> {
        vec![0.0; n]
    }
    #[expect(clippy::disallowed_methods)]
    fn reserved(n: usize) -> Vec<f32> {
        Vec::with_capacity(n)
    }
    /// # Safety
    ///
    /// `p` is readable.
    #[expect(unsafe_op_in_unsafe_fn)]
    unsafe fn read(p: *const f32) -> f32 {
        *p
    }
}
