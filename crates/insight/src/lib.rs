//! `puffer-insight`: the analysis half of the observability stack.
//!
//! `puffer-probe` *records* — spans, counters, histograms, fault events —
//! but interpreting a faulty distributed run still meant eyeballing a
//! Chrome trace. This crate *reads* the probe's own export formats (via
//! probe's JSON parser — no second parser to drift) and answers the
//! questions ROADMAP item 2 asks of every run:
//!
//! * **[`ingest`]** — parse a Chrome trace and/or JSONL metrics file into
//!   a [`ingest::RunData`]: spans, instant events, counters, histogram
//!   rows, and the run-context header stamped by the exporter.
//! * **[`rounds`]** — reassemble per-round, per-worker span trees;
//!   extract each round's critical path (which worker, which phase);
//!   classify rounds compute- vs comm- vs straggler-bound.
//! * **[`alphabeta`]** — least-squares fit of measured α–β per collective
//!   from the `(nodes, bytes, duration)` triples on comm spans, reconciled
//!   against the analytic cost model in `puffer_dist::cost`.
//! * **[`report`]** — render the per-run text report and
//!   its JSON form, with gates a CI check can assert.
//! * **[`diff`](mod@diff)** — compare any two bench records with noise-aware
//!   thresholds (the `puffer-bench diff` regression check).
//!
//! Everything here is deterministic: the same input document produces
//! byte-identical reports, so regression gates can compare runs without
//! chasing formatting noise.

pub mod alphabeta;
pub mod diff;
pub mod ingest;
pub mod report;
pub mod rounds;

pub use diff::{diff, DiffOptions, DiffReport};
pub use ingest::RunData;
pub use report::{analyze, InsightReport};
pub use rounds::{extract_rounds, Bound, Round};
