//! Per-epoch breakdown accounting: the decomposition behind the paper's
//! Figure 4(a)/(b), Figure 6, and Figure 7 bar charts.
//!
//! A breakdown combines **measured** per-batch compute and encode/decode
//! times (real gradient work and real codec halves on the trainer's worker
//! threads, each the slowest node's own time: a member is admitted to its
//! timed regions so that the host is never oversubscribed while its clock
//! runs — [`crate::membership::PoolWidthGuard`]) with **modeled**
//! communication time (the α–β cost model), per synchronization round.
//! [`crate::trainer`] is the only producer: the accumulator is what its
//! aggregator books every round into.

use crate::cost::ClusterProfile;
use puffer_compress::{AggregationKind, RoundStats};
use puffer_probe as probe;
use std::time::Duration;

/// One epoch's time decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochBreakdown {
    /// Forward+backward gradient computation.
    pub compute: Duration,
    /// Gradient encoding (compression).
    pub encode: Duration,
    /// Wire time under the cost model (total, whether or not it overlapped
    /// compute).
    pub comm: Duration,
    /// The part of `comm` **not** hidden behind compute: under bucketed
    /// overlap only the tail of the per-bucket collective timeline that
    /// outlasts the slowest contributor's compute is exposed; on the
    /// synchronous path every comm nanosecond is (`comm_exposed == comm`).
    /// Always `≤ comm`. Informational — [`EpochBreakdown::total`] sums the
    /// serialized phases so span-sum accounting stays exact.
    pub comm_exposed: Duration,
    /// Gradient decoding/aggregation.
    pub decode: Duration,
    /// Steps skipped by the non-finite-gradient guard (compute was paid,
    /// but no synchronization or update happened).
    pub skipped_steps: usize,
}

impl EpochBreakdown {
    /// Total epoch time.
    ///
    /// **Invariant**: steps skipped by the non-finite guard still
    /// contribute their *compute* — the forward/backward work was paid
    /// before the guard tripped — but zero encode/comm/decode, because no
    /// synchronization round was played for them. Every duration summed
    /// here flows through [`BreakdownAccumulator`], which mirrors each one
    /// onto the probe as a `dist`-category span, so `total()` equals the
    /// sum of the probe's `compute`/`encode`/`comm`/`decode` span
    /// durations exactly (same `Duration` values, no re-timing).
    pub fn total(&self) -> Duration {
        self.compute + self.encode + self.comm + self.decode
    }

    /// Scales every time component (e.g. extrapolating from a measured
    /// subset of batches to a full epoch). `skipped_steps` is a count, not
    /// a time, and is left untouched.
    #[expect(clippy::float_arithmetic, reason = "scales timings, not gradients")]
    pub fn scaled(&self, factor: f64) -> EpochBreakdown {
        let s = |d: Duration| Duration::from_secs_f64(d.as_secs_f64() * factor);
        EpochBreakdown {
            compute: s(self.compute),
            encode: s(self.encode),
            comm: s(self.comm),
            comm_exposed: s(self.comm_exposed),
            decode: s(self.decode),
            skipped_steps: self.skipped_steps,
        }
    }
}

/// Communication time of one synchronization round for a compressor's
/// message under the profile.
pub fn round_comm_time(
    profile: &ClusterProfile,
    aggregation: AggregationKind,
    stats: &RoundStats,
) -> Duration {
    match aggregation {
        AggregationKind::AllReduce => profile.allreduce(stats.bytes_per_worker),
        AggregationKind::AllGather => profile.allgather(stats.bytes_per_worker),
    }
}

/// The trace span name of a collective's communication phase. The comm
/// phase is named after the collective that priced it ("allreduce" /
/// "allgather"), so per-collective latency histograms and α–β fits fall
/// out of the span family directly.
pub fn collective_span_name(aggregation: AggregationKind) -> &'static str {
    match aggregation {
        AggregationKind::AllReduce => "allreduce",
        AggregationKind::AllGather => "allgather",
    }
}

/// One bucket's priced communication within an overlapped round: what the
/// α–β model charged for its collective and how much of that outlasted the
/// round's compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BucketComm {
    /// Bytes each worker contributed to this bucket.
    pub bytes_per_worker: usize,
    /// Total bytes this bucket moved across all contributors.
    pub wire_bytes: usize,
    /// Modeled collective time for this bucket.
    pub comm: Duration,
    /// The share of `comm` not hidden behind compute
    /// (`max(0, end − max(start, slowest_compute))` on the round's
    /// modeled timeline). Always `≤ comm`.
    pub exposed: Duration,
}

/// Accumulates an epoch breakdown from measured per-round quantities.
#[derive(Debug, Default)]
pub struct BreakdownAccumulator {
    acc: EpochBreakdown,
    rounds: usize,
}

impl BreakdownAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one round with an explicitly priced communication time —
    /// used by the trainer when the effective profile varies per round
    /// (surviving member set, heterogeneous links, comm jitter). `nodes`
    /// is the participant count the comm phase was priced at; together
    /// with the byte counts on the collective span it makes the measured
    /// α–β fit in `puffer-insight` well-posed. The round's decode is booked
    /// apart, by [`BreakdownAccumulator::record_decode`]: in the threaded
    /// trainer every node decodes for itself after the round's last
    /// broadcast, and the slowest one is only known later.
    pub fn record_with_comm(
        &mut self,
        step: usize,
        aggregation: AggregationKind,
        nodes: usize,
        comm: Duration,
        compute: Duration,
        stats: &RoundStats,
    ) {
        self.acc.compute += compute;
        self.acc.encode += stats.encode_time;
        self.acc.comm += comm;
        // The synchronous round serializes after compute: every comm
        // nanosecond is exposed.
        self.acc.comm_exposed += comm;
        self.rounds += 1;
        if probe::enabled() {
            // Mirror the exact durations just accumulated onto the trace:
            // the Fig.-4 bins and the probe's span sums are the same
            // numbers by construction, not two timing paths. Every phase
            // span carries its step so a round can be reassembled from the
            // trace alone; the comm span is named after its collective.
            probe::emit_span("dist", "compute", compute, vec![("step", step.into())]);
            probe::emit_span("dist", "encode", stats.encode_time, vec![("step", step.into())]);
            probe::emit_span(
                "dist",
                collective_span_name(aggregation),
                comm,
                vec![
                    ("step", step.into()),
                    ("nodes", nodes.into()),
                    ("bytes", stats.encoded_bytes.into()),
                    ("bytes_per_worker", stats.bytes_per_worker.into()),
                    ("exposed_ns", (comm.as_nanos() as u64).into()),
                ],
            );
            probe::counter_add("dist.rounds", 1);
            probe::counter_add("dist.wire_bytes", stats.encoded_bytes as u64);
        }
    }

    /// Records one **overlapped** round: the comm phase ran as a pipeline
    /// of per-bucket collectives whose start times were gated by gradient
    /// readiness during backward, so part of the wire time hid behind
    /// compute. One collective span is emitted per bucket — named after
    /// the pricing algorithm (`span_name`, see
    /// [`crate::cost::CollectiveAlgo::span_name`]) and carrying its bucket
    /// index, per-worker bytes, and the `exposed_ns` share that outlasted
    /// compute — so the trace's span sum still equals the breakdown's
    /// `comm` exactly, while `Σ exposed_ns` reproduces `comm_exposed`.
    /// `group` stamps the intra-group size on hierarchical spans. Decode is
    /// booked apart, as for [`BreakdownAccumulator::record_with_comm`].
    #[allow(clippy::too_many_arguments)]
    pub fn record_overlapped(
        &mut self,
        step: usize,
        span_name: &'static str,
        group: Option<usize>,
        nodes: usize,
        buckets: &[BucketComm],
        compute: Duration,
        stats: &RoundStats,
    ) {
        self.acc.compute += compute;
        self.acc.encode += stats.encode_time;
        for b in buckets {
            self.acc.comm += b.comm;
            self.acc.comm_exposed += b.exposed;
        }
        self.rounds += 1;
        if probe::enabled() {
            probe::emit_span("dist", "compute", compute, vec![("step", step.into())]);
            probe::emit_span("dist", "encode", stats.encode_time, vec![("step", step.into())]);
            for (i, b) in buckets.iter().enumerate() {
                let mut args = vec![
                    ("step", step.into()),
                    ("nodes", nodes.into()),
                    ("bytes", b.wire_bytes.into()),
                    ("bytes_per_worker", b.bytes_per_worker.into()),
                    ("bucket", i.into()),
                    ("exposed_ns", (b.exposed.as_nanos() as u64).into()),
                ];
                if let Some(g) = group {
                    args.push(("group", g.into()));
                }
                probe::emit_span("dist", span_name, b.comm, args);
            }
            probe::counter_add("dist.rounds", 1);
            probe::counter_add("dist.wire_bytes", stats.encoded_bytes as u64);
        }
    }

    /// Books the decode phase of the round recorded at `step`: the
    /// per-node decode wall-clock (for worker-side codecs the slowest
    /// node's, i.e. the round's critical path).
    pub fn record_decode(&mut self, step: usize, decode: Duration) {
        self.acc.decode += decode;
        probe::emit_span("dist", "decode", decode, vec![("step", step.into())]);
    }

    /// Records a step skipped by the non-finite-gradient guard: compute
    /// happened, but no round was played (see [`EpochBreakdown::total`]).
    pub fn record_skipped(&mut self, step: usize, compute: Duration) {
        self.acc.compute += compute;
        self.acc.skipped_steps += 1;
        if probe::enabled() {
            probe::emit_span(
                "dist",
                "compute",
                compute,
                vec![("step", step.into()), ("skipped", 1usize.into())],
            );
            probe::counter_add("dist.skipped_steps", 1);
        }
    }

    /// Number of recorded rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The accumulated breakdown.
    pub fn breakdown(&self) -> EpochBreakdown {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_compress::none::NoCompression;
    use puffer_compress::signum::Signum;
    use puffer_compress::GradCompressor;
    use puffer_tensor::Tensor;

    /// Books one synchronous round the way the trainer does: the round's
    /// collective priced by the α–β model, then its decode.
    fn book(
        acc: &mut BreakdownAccumulator,
        profile: &ClusterProfile,
        kind: AggregationKind,
        stats: &RoundStats,
    ) {
        let comm = round_comm_time(profile, kind, stats);
        acc.record_with_comm(0, kind, profile.nodes, comm, Duration::from_millis(3), stats);
        acc.record_decode(0, stats.decode_time);
    }

    #[test]
    fn total_is_sum() {
        let b = EpochBreakdown {
            compute: Duration::from_millis(10),
            encode: Duration::from_millis(1),
            comm: Duration::from_millis(5),
            comm_exposed: Duration::from_millis(2),
            decode: Duration::from_millis(2),
            skipped_steps: 3,
        };
        // `comm_exposed` is a subset of `comm`, not an extra phase.
        assert_eq!(b.total(), Duration::from_millis(18));
        assert_eq!(b.scaled(2.0).total(), Duration::from_millis(36));
        assert_eq!(b.scaled(2.0).comm_exposed, Duration::from_millis(4));
        // Skip counts are not times; scaling leaves them alone.
        assert_eq!(b.scaled(2.0).skipped_steps, 3);
    }

    #[test]
    fn sync_rounds_expose_all_comm_and_overlapped_rounds_less() {
        let profile = ClusterProfile::p3_like(4);
        let mut vanilla = NoCompression::new();
        let grads: Vec<Vec<Tensor>> =
            (0..4).map(|w| vec![Tensor::randn(&[64, 64], 1.0, w as u64)]).collect();
        let (_, stats) = vanilla.round(&grads);

        let mut sync = BreakdownAccumulator::new();
        book(&mut sync, &profile, vanilla.aggregation(), &stats);
        assert_eq!(sync.breakdown().comm_exposed, sync.breakdown().comm);

        let mut over = BreakdownAccumulator::new();
        let buckets = [
            BucketComm {
                bytes_per_worker: 8 << 10,
                wire_bytes: 32 << 10,
                comm: Duration::from_millis(2),
                exposed: Duration::ZERO, // fully hidden behind compute
            },
            BucketComm {
                bytes_per_worker: 8 << 10,
                wire_bytes: 32 << 10,
                comm: Duration::from_millis(2),
                exposed: Duration::from_millis(1), // half hidden
            },
        ];
        over.record_overlapped(0, "allreduce", None, 4, &buckets, Duration::from_millis(3), &stats);
        let b = over.breakdown();
        assert_eq!(b.comm, Duration::from_millis(4));
        assert_eq!(b.comm_exposed, Duration::from_millis(1));
        assert!(b.comm_exposed < b.comm);
        assert_eq!(over.rounds(), 1);
    }

    #[test]
    fn accumulator_records_real_rounds() {
        let profile = ClusterProfile::p3_like(4);
        let mut vanilla = NoCompression::new();
        let mut signum = Signum::new(0.9);
        let grads: Vec<Vec<Tensor>> =
            (0..4).map(|w| vec![Tensor::randn(&[256, 256], 1.0, w as u64)]).collect();

        let mut acc_v = BreakdownAccumulator::new();
        let (_, stats) = vanilla.round(&grads);
        book(&mut acc_v, &profile, vanilla.aggregation(), &stats);

        let mut acc_s = BreakdownAccumulator::new();
        let (_, stats) = signum.round(&grads);
        book(&mut acc_s, &profile, signum.aggregation(), &stats);

        // Signum moves 32× fewer bytes; on 4 nodes its comm must be smaller.
        assert!(acc_s.breakdown().comm < acc_v.breakdown().comm);
        // Signum's majority-vote decode is measured (nonzero).
        assert!(acc_s.breakdown().decode > Duration::ZERO);
        assert_eq!(acc_v.rounds(), 1);
    }
}
