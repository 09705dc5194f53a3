//! Umbrella crate for the Pufferfish reproduction workspace.
//!
//! Re-exports every workspace crate under one root so that the repo-level
//! integration tests (`tests/`) and runnable examples (`examples/`) can span
//! the whole system. Library users should depend on the individual crates
//! (`pufferfish`, `puffer-nn`, ...) directly.
//!
//! # Example
//!
//! ```
//! use pufferfish_repro::tensor::Tensor;
//! let t = Tensor::zeros(&[2, 3]);
//! assert_eq!(t.shape(), &[2, 3]);
//! ```

pub use puffer_compress as compress;
pub use puffer_data as data;
pub use puffer_dist as dist;
pub use puffer_models as models;
pub use puffer_nn as nn;
pub use puffer_prune as prune;
pub use puffer_tensor as tensor;
pub use pufferfish as core;

/// One seeded violation per workspace-wide invariant clippy holds (DESIGN.md
/// §8). Dropping an entry from the root `clippy.toml` leaves its `#[expect]`
/// unfulfilled and fails `cargo clippy -- -D warnings` here. An `#[expect]`
/// switches its own lint on, so the last one only shows that clippy still
/// sees a dropped `write!` result; that `Cargo.toml` still denies it is
/// pinned by the `code_contracts` test.
#[cfg(clippy)]
#[allow(dead_code, reason = "linted, never called")]
mod clippy_canaries {
    #[expect(clippy::disallowed_types)]
    type Clock = std::time::Instant;
    #[expect(clippy::disallowed_types)]
    type WallClock = std::time::SystemTime;
    #[expect(clippy::disallowed_types)]
    type Map = std::collections::HashMap<u32, f32>;
    #[expect(clippy::disallowed_types)]
    type Set = std::collections::HashSet<u32>;
    #[expect(clippy::let_underscore_must_use)]
    fn discard(out: &mut String) {
        let _ = std::fmt::Write::write_str(out, "x");
    }
}
