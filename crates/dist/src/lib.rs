//! Distributed data-parallel substrate for the Pufferfish reproduction.
//!
//! The paper's distributed results (Figure 4, Figures 6–7, appendix F)
//! decompose per-epoch time into *computation* (real gradient work),
//! *encode/decode* (compression overhead), and *communication* (a
//! deterministic function of message bytes, collective type, and node
//! count). This crate reproduces that decomposition:
//!
//! * [`cost`] — the α–β cost model of ring, binary-tree, and two-level
//!   hierarchical allreduce plus allgather (Thakur, Rabenseifner & Gropp
//!   2005), with an EC2-p3.2xlarge-like cluster profile (10 Gbps, the
//!   paper's testbed), selectable per run via [`cost::CollectiveAlgo`];
//! * [`collectives`] — executable simulations of the tree and
//!   hierarchical schedules whose message traces validate the closed
//!   forms;
//! * [`bucket`] — DDP-style reverse-backward bucket assignment over a
//!   flat payload (the packed gradient, or whatever a worker-side codec
//!   encoded), the pinned-order bucketed reducer that is all the
//!   trainer's aggregator does to one, and the serialized-collective
//!   overlap timeline that prices a bucketed round — for the aggregator
//!   and for the paper's Figure 4(c) DDP scaling study alike;
//! * [`breakdown`] — per-epoch breakdown accounting combining measured
//!   compute/encode/decode times — the slowest node's own, at any worker
//!   count — with modeled communication, booked by the trainer's
//!   aggregator round by round;
//! * [`ring`] — an executable ring allreduce whose per-step trace
//!   validates the closed-form cost model;
//! * [`trainer`] — a **real multi-threaded data-parallel trainer**
//!   (scoped worker threads, shared-memory allreduce) whose workers compute
//!   real gradients on data shards and, for allreduce-compatible
//!   compressors, encode and decode them too — a round is a sequence of
//!   linear reduce phases over worker-encoded payloads; under an exact
//!   compressor it is step-equivalent to single-process training.
//!
//! The trainer is **fault-tolerant**: [`fault`] injects deterministic
//! seeded faults (stragglers, crashes, dropped/corrupted messages,
//! non-finite gradients), [`error`] types every failure instead of
//! panicking, and [`checkpoint`] freezes parameters, optimizer momentum,
//! and compressor state for bitwise-identical resume. On a worker crash the
//! aggregator drops the member, re-normalizes the gradient mean over the
//! survivors, and re-prices communication for the surviving member set
//! (optionally under a heterogeneous per-node α–β profile).
//!
//! It is also **elastic**: [`membership`] tracks the active member set
//! through epochs — a [`membership::MembershipPlan`] schedules mid-run
//! joins (catch-up from the latest checkpoint) and voluntary leaves,
//! crashes shrink the set, workers re-shard the data stream on every
//! epoch change, and the hardware threads are re-divided among the current
//! members: the tensor-pool width cap and, with it, how many members may be
//! inside a timed region at once (both only ever touched through
//! [`membership::PoolWidthGuard`], which also holds the crate's one lock).

// The fault-tolerance layer exists to survive worker failure; a panic inside
// it is a failure mode it cannot model. Every fallible step surfaces as
// `DistError` (DESIGN.md §6, §8). Float arithmetic lives in the two owners
// of gradient summation order, `bucket.rs` (pinned id order) and `ring.rs`
// (position order); anywhere else it carries an `expect` saying why it
// sums no gradient.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::too_many_lines,
        clippy::float_arithmetic
    )
)]

pub mod breakdown;
pub mod bucket;
pub mod checkpoint;
pub mod collectives;
pub mod cost;
pub mod error;
pub mod fault;
pub mod membership;
pub mod ring;
pub mod trainer;

/// One seeded violation per invariant clippy holds in this crate (DESIGN.md
/// §8). Dropping an entry from `crates/dist/clippy.toml` leaves its
/// `#[expect]` unfulfilled and fails `cargo clippy -- -D warnings` here. An
/// `#[expect]` switches its own lint on, so the first three only show that
/// clippy still recognizes the pattern; that the crate-level `deny` list
/// still names them is pinned by the root package's `code_contracts` test.
#[cfg(clippy)]
#[allow(dead_code, reason = "linted, never called")]
mod clippy_canaries {
    #[expect(clippy::indexing_slicing)]
    fn indexing(xs: &[f32]) -> f32 {
        xs[0]
    }
    #[expect(clippy::unwrap_used)]
    fn unwrap(x: Option<f32>) -> f32 {
        x.unwrap()
    }
    #[expect(clippy::float_arithmetic)]
    fn accumulate(mean: &mut f32, g: f32) {
        *mean += g;
    }
    #[expect(clippy::disallowed_methods)]
    fn pool_width() {
        puffer_tensor::pool::set_num_threads(1);
    }
    #[expect(clippy::disallowed_types)]
    type Clock = std::time::Instant;
    #[expect(clippy::disallowed_types)]
    type Lock = std::sync::Mutex<()>;
    #[expect(clippy::disallowed_types)]
    type SharedLock = std::sync::RwLock<()>;
    #[expect(clippy::disallowed_types)]
    type Wait = std::sync::Condvar;
}
