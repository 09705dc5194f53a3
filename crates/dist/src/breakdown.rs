//! Per-epoch breakdown accounting: the decomposition behind the paper's
//! Figure 4(a)/(b), Figure 6, and Figure 7 bar charts.
//!
//! A breakdown combines **measured** per-batch compute and encode/decode
//! times (from real gradient work and real compressor rounds) with
//! **modeled** communication time (the α–β cost model), per synchronization
//! round.

use crate::cost::ClusterProfile;
use puffer_compress::{AggregationKind, GradCompressor, RoundStats};
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

    /// Records one synchronization round at global step `step`.
    pub fn record(
        &mut self,
        step: usize,
        profile: &ClusterProfile,
        compressor: &dyn GradCompressor,
        compute: Duration,
        stats: &RoundStats,
    ) {
        let comm = round_comm_time(profile, compressor.aggregation(), stats);
        self.record_with_comm(step, compressor.aggregation(), profile.nodes, comm, compute, stats);
        self.record_decode(step, stats.decode_time);
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

/// Measures one data-parallel epoch **sequentially**: worker shards are
/// computed one after another on the calling thread (so compute timings are
/// free of thread contention), the compressor plays a real round per step,
/// and communication is modeled. The model is actually updated each step
/// with the decoded mean gradient, so repeated calls converge like real
/// training. Per-step compute is the *maximum* shard time (the synchronous
/// straggler).
///
/// Returns the epoch's breakdown and the mean training loss.
///
/// # Errors
///
/// Returns [`DistError::BatchTooSmall`] if a batch cannot feed `nodes`
/// shards and [`DistError::WorkerFailed`] if a loss evaluation rejects its
/// inputs.
pub fn measure_sequential_epoch<M: Layer>(
    model: &mut M,
    global_batches: &[(Tensor, Vec<usize>)],
    nodes: usize,
    compressor: &mut dyn GradCompressor,
    profile: &ClusterProfile,
    lr: f32,
) -> DistResult<(EpochBreakdown, f32)> {
    use puffer_nn::loss::softmax_cross_entropy;
    let mut acc = BreakdownAccumulator::new();
    let mut loss_sum = 0.0f64;
    let mut steps = 0usize;
    let mut opt = puffer_nn::optim::Sgd::new(lr, 0.9, 1e-4);
    for batch in global_batches {
        let mut worker_grads: Vec<Vec<Tensor>> = Vec::with_capacity(nodes);
        let mut slowest = Duration::ZERO;
        let mut loss_mean = 0.0f32;
        for w in 0..nodes {
            let (images, labels) = crate::trainer::shard_batch(batch, w, nodes)?;
            let sp = probe::timed_span_with("dist", "shard_compute", || vec![("worker", w.into())]);
            model.zero_grad();
            let logits = model.forward(&images, Mode::Train);
            let (loss, dl) = softmax_cross_entropy(&logits, &labels, 0.0)
                .map_err(|e| DistError::WorkerFailed { worker: w, reason: e.to_string() })?;
            let _ = model.backward(&dl);
            slowest = slowest.max(sp.finish());
            loss_mean += loss / nodes as f32;
            worker_grads.push(model.params().iter().map(|p| p.grad.clone()).collect());
        }
        let (mean, stats) = compressor.round(&worker_grads);
        acc.record(steps, profile, compressor, slowest, &stats);
        model.zero_grad();
        for (p, g) in model.params_mut().into_iter().zip(mean) {
            p.grad = g;
        }
        opt.step(&mut model.params_mut());
        loss_sum += loss_mean as f64;
        steps += 1;
    }
    Ok((acc.breakdown(), (loss_sum / steps.max(1) as f64) as f32))
}

use crate::error::{DistError, DistResult};
use puffer_nn::layer::{Layer, Mode};
use puffer_tensor::Tensor;

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_compress::none::NoCompression;
    use puffer_compress::signum::Signum;
    use puffer_tensor::Tensor;

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
        sync.record(0, &profile, &vanilla, Duration::from_millis(3), &stats);
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
        acc_v.record(0, &profile, &vanilla, Duration::from_millis(3), &stats);

        let mut acc_s = BreakdownAccumulator::new();
        let (_, stats) = signum.round(&grads);
        acc_s.record(0, &profile, &signum, Duration::from_millis(3), &stats);

        // Signum moves 32× fewer bytes; on 4 nodes its comm must be smaller.
        assert!(acc_s.breakdown().comm < acc_v.breakdown().comm);
        // Signum's majority-vote decode is measured (nonzero).
        assert!(acc_s.breakdown().decode > Duration::ZERO);
        assert_eq!(acc_v.rounds(), 1);
    }
}
