//! Neural-network substrate for the Pufferfish reproduction.
//!
//! A compact deep-learning framework with explicit forward/backward passes
//! (no tape autograd): every layer caches what it needs during
//! [`Layer::forward`] and produces parameter gradients plus the input
//! gradient in [`Layer::backward`]. The framework covers everything the
//! paper trains: fully connected, convolutional (implicit GEMM), batch/layer
//! normalization, LSTM, and Transformer attention blocks — each with a
//! **low-rank factorized twin** (`U·Vᵀ` for FC/LSTM/attention, a thin
//! `k×k` convolution followed by a `1×1` convolution for conv layers),
//! which is the architectural device Pufferfish is built on.
//!
//! # Threading
//!
//! Every layer bottoms out in `puffer-tensor`'s cache-blocked SIMD GEMM —
//! convolutions feed it straight from their NCHW activations — which fans
//! out to the process-wide worker pool
//! (re-exported here as [`threading`], since [`pool`] is pooling layers)
//! under the default `Optimized` matmul profile. Forward/backward results
//! are bitwise identical for every thread count; set
//! `PUFFER_NUM_THREADS=1` (or switch the profile to `Reproducible`) to
//! force strictly sequential execution.
//!
//! # Example
//!
//! ```
//! use puffer_nn::{Layer, Mode, Sequential};
//! use puffer_nn::linear::Linear;
//! use puffer_nn::activation::Relu;
//! use puffer_nn::loss::softmax_cross_entropy;
//! use puffer_tensor::Tensor;
//!
//! let mut net = Sequential::new(vec![
//!     Box::new(Linear::new(4, 16, true, 1)?),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(16, 3, true, 2)?),
//! ]);
//! let x = Tensor::randn(&[8, 4], 1.0, 3);
//! let logits = net.forward(&x, Mode::Train);
//! let (loss, dlogits) = softmax_cross_entropy(&logits, &[0, 1, 2, 0, 1, 2, 0, 1], 0.0)?;
//! net.backward(&dlogits);
//! assert!(loss.is_finite());
//! # Ok::<(), puffer_nn::NnError>(())
//! ```

pub mod activation;
pub mod amp;
pub mod attention;
pub mod checkpoint;
pub mod complexity;
pub mod conv;
pub mod dropout;
pub mod embedding;
pub mod error;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod lstm;
pub mod norm;
pub mod optim;
pub mod param;
pub mod pool;
pub mod schedule;

pub use error::NnError;
pub use layer::{Layer, Mode, Sequential};
pub use param::Param;
pub use puffer_tensor::pool as threading;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NnError>;
