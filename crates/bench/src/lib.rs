//! Experiment harness for the Pufferfish reproduction.
//!
//! One binary, `puffer-bench <experiment|all|list> [--quick] [--verbose]
//! [--out FILE]`, over the static tables in [`experiments`]:
//! one module per paper table/figure (see `DESIGN.md` §4 for the full
//! index) plus the system gates (`soak`, `overlap-sweep`, `alloc-churn`)
//! and tools (`gemm-scaling`, `fault-sweep`, `trace-demo`, `insight`,
//! `diff`). Every experiment prints the same rows/series the paper
//! reports, side by side with the paper's reference values where they are
//! published, and returns a [`Record`]; a run writes a file only where
//! `--out`, `PUFFER_TRACE` or `PUFFER_METRICS` names one, and exits 1 if
//! its record carries a failed gate. `all` runs the paper's 24 in one
//! process: a panicking experiment is reported as failed and the rest
//! still run, but warmed arenas and the pool's width carry over, so a
//! number worth quoting comes from running its experiment alone. The gates
//! are also `cargo test` assertions (`tests/gates.rs`), which is how
//! `scripts/check.sh` runs them.
//!
//! Common infrastructure lives here: the [`record`] format, console
//! [`table`] rendering, the arguments and quick/full [`scale`] switch, and
//! the shared bench-scale [`setups`] (datasets and scaled models used
//! consistently across experiments).

pub mod experiments;
pub mod record;
pub mod scale;
pub mod setups;
pub mod table;

pub use record::Record;
pub use scale::Args;
