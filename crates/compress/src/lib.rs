//! Gradient-compression baselines for the Pufferfish reproduction.
//!
//! The paper compares Pufferfish against gradient-compression methods that
//! operate on the *gradients* of a full-rank model:
//!
//! * [`powersgd`] — PowerSGD (Vogels et al. 2019): rank-`r` power-iteration
//!   factorization with error feedback and warm-started query matrices;
//!   allreduce-compatible.
//! * [`signum`] — SignSGD with majority vote / Signum (Bernstein et al.
//!   2018): 1 bit per coordinate of the momentum, **not** allreduce-
//!   compatible (allgather), as the paper emphasizes in §4.2.
//! * [`quant`] — stochastic binary quantization (Suresh et al. 2016), the
//!   appendix-F case study whose decompression cost scales with the number
//!   of workers.
//! * [`atomo`] — ATOMO-style per-step spectral (SVD) compression (Wang et
//!   al. 2018), the intro's motivating example of prohibitive per-batch
//!   compression compute.
//! * [`none`] — uncompressed baseline (vanilla allreduce SGD).
//! * [`pack`] — flat-buffer packing: the paper's implementation-level
//!   optimization of issuing **one** allreduce per iteration over a single
//!   flattened gradient buffer (§4.1).
//!
//! Every method hands out a **worker-side half**
//! ([`GradCompressor::worker_codec`] → [`WorkerCodec`]) and that is where
//! its arithmetic lives: every node encodes its own gradient into a flat
//! payload, the payloads of a phase are combined the way the method's
//! collective does it ([`combine_in_order`]) — a pinned-order mean for an
//! allreduce, the messages laid end to end in worker order for an allgather
//! — and every node decodes the result itself. A round is a short sequence
//! of such *phases* — one for the uncompressed baseline and for the
//! allgather methods (Signum, binary quantization, ATOMO), two for
//! PowerSGD (`P`, then `Q`) — so a trainer never moves a full-size gradient
//! to run them, and an allgather method's decode costs every node `p`
//! messages (the appendix-F asymmetry).
//!
//! [`GradCompressor::round`] plays one synchronization round in-process
//! over those halves: it consumes each worker's per-layer gradients and
//! returns the aggregated gradient every worker decodes, along with
//! measured encode/decode times and the exact message size in bytes (fed to
//! the `puffer-dist` communication cost model).
//!
//! The linear-algebra-heavy compressors — PowerSGD's power iteration /
//! Gram–Schmidt orthogonalization and ATOMO's per-step SVD — run on
//! `puffer-tensor`'s threaded cache-blocked SIMD GEMM, so their measured
//! encode/decode times reflect a genuinely optimized compute side rather
//! than a single-threaded strawman (the comparison the paper's §4.2 and
//! Fig. 6 hinge on). Thread count never changes their numerical output.

pub mod atomo;
pub mod none;
pub mod pack;
pub mod powersgd;
pub mod quant;
pub mod signum;

use crate::pack::PackLayout;
use puffer_probe as probe;
use puffer_probe::Stopwatch;
use puffer_tensor::{Result, Tensor, TensorError};
use std::time::Duration;

/// Which collective the encoded messages are compatible with. This drives
/// the communication cost model: allgather traffic grows with the worker
/// count while ring-allreduce bandwidth does not (paper appendix F).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregationKind {
    /// Messages can be summed component-wise in flight.
    AllReduce,
    /// Every worker must receive every other worker's message.
    AllGather,
}

/// Measured/derived statistics of one synchronization round, expressed as
/// **per-node wall-clock**: `encode_time` is what one node spends encoding
/// its own gradient (the mean across workers), while `decode_time` is the
/// full aggregation cost, which every node pays — for allgather methods it
/// grows with the worker count (the appendix-F asymmetry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// Bytes each worker puts on the wire.
    pub bytes_per_worker: usize,
    /// Total bytes encoded this round across all workers
    /// (`bytes_per_worker · workers`).
    pub encoded_bytes: usize,
    /// Bytes one node must decode after aggregation: the reduced message
    /// for allreduce methods, every worker's message for allgather ones
    /// (the appendix-F asymmetry, in bytes).
    pub decoded_bytes: usize,
    /// Per-node encode wall-clock (mean across workers).
    pub encode_time: Duration,
    /// Per-node decode/aggregation wall-clock.
    pub decode_time: Duration,
}

impl RoundStats {
    /// Builds the stats of one round from the per-worker message size,
    /// deriving the encoded/decoded byte totals from the collective kind,
    /// and surfaces them on the probe's `compress.*` counters.
    pub fn new(
        bytes_per_worker: usize,
        workers: usize,
        aggregation: AggregationKind,
        encode_time: Duration,
        decode_time: Duration,
    ) -> Self {
        let encoded_bytes = bytes_per_worker * workers;
        let decoded_bytes = match aggregation {
            AggregationKind::AllReduce => bytes_per_worker,
            AggregationKind::AllGather => bytes_per_worker * workers,
        };
        if probe::enabled() {
            probe::counter_add("compress.rounds", 1);
            probe::counter_add("compress.encoded_bytes", encoded_bytes as u64);
            probe::counter_add("compress.decoded_bytes", decoded_bytes as u64);
        }
        RoundStats { bytes_per_worker, encoded_bytes, decoded_bytes, encode_time, decode_time }
    }
}

/// A gradient-compression scheme playing full synchronization rounds.
///
/// `worker_grads[w]` is worker `w`'s per-layer gradient list; all workers
/// must present identical shapes. The return value is the aggregated
/// (mean) gradient list as every worker decodes it.
pub trait GradCompressor {
    /// Human-readable method name (used by the bench harness tables).
    fn name(&self) -> &'static str;

    /// The collective the method's messages support.
    fn aggregation(&self) -> AggregationKind;

    /// Plays one round in-process: worker halves `0..n` are taken out of
    /// `self`, encode, have their payloads combined by
    /// [`combine_in_order`] and decode, and their states go back in.
    ///
    /// # Panics
    ///
    /// Panics if there are no workers or they disagree on layer shapes.
    fn round(&mut self, worker_grads: &[Vec<Tensor>]) -> (Vec<Tensor>, RoundStats) {
        drive_halves(self, worker_grads).expect("workers must agree on layer shapes")
    }

    /// Freezes the method's cross-round state (error-feedback memory,
    /// warm-started queries, momentum) as named tensors so a trainer
    /// checkpoint can restore it and resume bitwise identically. Stateless
    /// methods return the empty list.
    fn state_snapshot(&self) -> Vec<(String, Tensor)> {
        Vec::new()
    }

    /// Restores state captured by [`GradCompressor::state_snapshot`].
    /// Returns `false` if the state does not belong to this method (a
    /// stateless method accepts only the empty list).
    fn restore_state(&mut self, state: &[(String, Tensor)]) -> bool {
        state.is_empty()
    }

    /// The worker-side half of the method for worker `worker`, carrying
    /// that worker's share of the cross-round state (which leaves `self`:
    /// hand the halves' [`WorkerCodec::state_snapshot`]s back through
    /// [`GradCompressor::restore_state`] to make `self` whole again). A
    /// worker first seen now gets the shared state and none of its own.
    fn worker_codec(&mut self, worker: usize) -> Box<dyn WorkerCodec>;
}

/// One node's half of a compressor.
///
/// A round runs [`WorkerCodec::phases`] phases. In phase `p` every node
/// calls [`WorkerCodec::encode`] with the combination of the previous
/// phase's payloads (`None` in phase 0) and contributes the payload it
/// wrote to the next one; after the last phase [`WorkerCodec::decode`]
/// turns the last combination into the round's gradient, in place. What a
/// combination is depends on the method's [`AggregationKind`]
/// ([`combine_in_order`]): under `AllReduce` the mean of the payloads (sum
/// in a pinned order, one scale by `1/n`), as long as one payload; under
/// `AllGather` the contributors' payloads one after the other in worker-id
/// order, `n` payloads long, each a message of bit patterns
/// ([`f32::from_bits`]) nobody may do arithmetic on. Nodes that see the
/// same combinations hold the same shared state afterwards, whatever their
/// own gradients were.
///
/// `encode` may overwrite `grads` (the round's gradient is whatever
/// `decode` writes there); state that outlives the round changes only in
/// `decode`, so a round dropped by [`WorkerCodec::abort`] leaves no trace.
pub trait WorkerCodec: Send {
    /// Number of phases per round (at least 1; one unless the codec says
    /// otherwise). A one-phase `AllReduce` codec's payload must be
    /// tensor-by-tensor linear in the gradient list, so a trainer may ship
    /// a payload tensor as soon as backward has produced the gradient
    /// tensor of the same index.
    fn phases(&self) -> usize {
        1
    }

    /// The tensors `phase`'s payload is made of, for gradients shaped
    /// like `grads`. Buckets are cut along these boundaries.
    fn payload_layout(&self, phase: usize, grads: &[&Tensor]) -> PackLayout;

    /// Writes this node's `phase` payload into `out`
    /// (`payload_layout(phase, ..).total_len()` elements, all overwritten).
    ///
    /// # Errors
    ///
    /// Returns the tensor error of the first shape that does not fit:
    /// `out`, `reduced_prev` or a gradient that changed shape mid-run.
    fn encode(
        &mut self,
        phase: usize,
        grads: &mut [&mut Tensor],
        reduced_prev: Option<&[f32]>,
        out: &mut [f32],
    ) -> Result<()>;

    /// Writes the round's mean gradient into `grads` from the combination
    /// of the last phase's payloads and commits the cross-round state.
    /// `contributed` is false when this node's payloads did not reach the
    /// combinations (lost, late or rejected): it still decodes the same
    /// gradient and shared state as everyone else, but its own memory
    /// (error feedback, momentum, random stream) keeps the value it had
    /// before the round.
    ///
    /// # Errors
    ///
    /// As [`WorkerCodec::encode`].
    fn decode(
        &mut self,
        reduced_last: &[f32],
        grads: &mut [&mut Tensor],
        contributed: bool,
    ) -> Result<()>;

    /// Drops the round in flight (a skipped step). Cross-round state is
    /// bit-for-bit what it was before the round's first `encode`.
    fn abort(&mut self) {}

    /// This node's share of the compressor's cross-round state, under the
    /// names [`GradCompressor::state_snapshot`] uses. Shared entries are
    /// identical on every node.
    fn state_snapshot(&self) -> Vec<(String, Tensor)> {
        Vec::new()
    }
}

/// The error of a flat buffer that is not as long as the tensors it is
/// packed from or unpacked into.
pub(crate) fn length_mismatch(expected: usize, got: usize, op: &'static str) -> TensorError {
    TensorError::ShapeMismatch { expected: vec![expected], got: vec![got], op }
}

/// The `m×n` matrix the low-rank methods factorize a gradient as
/// (`c_out × rest` for conv weights) and the rank it gets, or `None` for the
/// tensors sent raw.
pub(crate) fn factor_dims(t: &Tensor, rank: usize) -> Option<(usize, usize, usize)> {
    if t.ndim() < 2 || t.is_empty() {
        return None;
    }
    let &m = t.shape().first()?;
    let n = t.len() / m;
    Some((m, n, rank.min(m).min(n)))
}

/// Gives `t` a new shape over the same storage (no copy, unlike
/// [`Tensor::reshape`]).
pub(crate) fn reshape(t: &mut Tensor, shape: &[usize]) -> Result<()> {
    *t = Tensor::from_vec(std::mem::take(t).into_vec(), shape)?;
    Ok(())
}

/// Coordinates of a gradient list, i.e. the length of its packed buffer.
pub(crate) fn total_len<T: std::ops::Deref<Target = Tensor>>(grads: &[T]) -> usize {
    grads.iter().map(|g| g.len()).sum()
}

/// `src` copied over `dst`, or the error of their lengths differing.
pub(crate) fn copy_exact(dst: &mut [f32], src: &[f32], op: &'static str) -> Result<()> {
    if dst.len() != src.len() {
        return Err(length_mismatch(dst.len(), src.len(), op));
    }
    dst.copy_from_slice(src);
    Ok(())
}

/// The messages, `len` words each, an allgather laid end to end.
pub(crate) fn messages<'a>(
    gathered: &'a [f32],
    len: usize,
    op: &'static str,
) -> Result<std::slice::ChunksExact<'a, f32>> {
    if len == 0 || gathered.is_empty() || !gathered.len().is_multiple_of(len) {
        return Err(length_mismatch(len, gathered.len(), op));
    }
    Ok(gathered.chunks_exact(len))
}

/// A 64-bit word as the two payload words that carry it (low half first).
pub(crate) fn words_of(x: u64) -> [f32; 2] {
    [f32::from_bits(x as u32), f32::from_bits((x >> 32) as u32)]
}

/// Inverse of [`words_of`]; missing words read as zero.
pub(crate) fn u64_of(pair: &[f32]) -> u64 {
    let half = |i: usize| u64::from(pair.get(i).map_or(0, |w| w.to_bits()));
    half(0) | half(1) << 32
}

/// One round over one half per worker, in-process (the provided
/// [`GradCompressor::round`]).
fn drive_halves<C: GradCompressor + ?Sized>(
    compressor: &mut C,
    worker_grads: &[Vec<Tensor>],
) -> Result<(Vec<Tensor>, RoundStats)> {
    let n_workers = worker_grads.len();
    let kind = compressor.aggregation();
    let mut halves: Vec<Box<dyn WorkerCodec>> =
        (0..n_workers).map(|w| compressor.worker_codec(w)).collect();
    // The halves work in place, so each gets its own copy to work on.
    let mut grads: Vec<Vec<Tensor>> = worker_grads.to_vec();
    let no_workers = length_mismatch(1, 0, "round");
    let shapes: Vec<&Tensor> = worker_grads.first().ok_or(no_workers)?.iter().collect();

    let mut encode_time = Duration::ZERO;
    let mut bytes = 0usize;
    let mut combined: Option<Tensor> = None;
    for phase in 0..halves.first().map_or(0, |h| h.phases()) {
        let len = halves.first().map_or(0, |h| h.payload_layout(phase, &shapes).total_len());
        bytes += len * 4;
        let mut payloads: Vec<Tensor> = Vec::with_capacity(n_workers);
        for (half, g) in halves.iter_mut().zip(&mut grads) {
            let t_enc = Stopwatch::start();
            let mut out = Tensor::zeros(&[len]);
            let mut g: Vec<&mut Tensor> = g.iter_mut().collect();
            let prev = combined.as_ref().map(Tensor::as_slice);
            half.encode(phase, &mut g, prev, out.as_mut_slice())?;
            encode_time += t_enc.elapsed();
            payloads.push(out);
        }
        combined = Some(combine_in_order(kind, &payloads.iter().collect::<Vec<_>>()));
    }
    let combined = combined.unwrap_or_default();
    let t_dec = Stopwatch::start();
    for (half, g) in halves.iter_mut().zip(&mut grads) {
        let mut g: Vec<&mut Tensor> = g.iter_mut().collect();
        half.decode(combined.as_slice(), &mut g, true)?;
    }
    // Per-node times: every node encodes its own gradient and decodes for
    // itself, all of them at once.
    let per_node = n_workers.max(1) as u32;
    let (encode_time, decode_time) = (encode_time / per_node, t_dec.elapsed() / per_node);

    let mut state: Vec<(String, Tensor)> = Vec::new();
    for (name, t) in halves.iter().flat_map(|h| h.state_snapshot()) {
        if !state.iter().any(|(n, _)| *n == name) {
            state.push((name, t));
        }
    }
    assert!(compressor.restore_state(&state), "{} rejected its halves' state", compressor.name());
    let decoded = grads.into_iter().next().unwrap_or_default();
    Ok((decoded, RoundStats::new(bytes, n_workers, kind, encode_time, decode_time)))
}

/// What a collective of `kind` makes of one phase's payloads, given in
/// worker order: their [`mean_in_order`] (an allreduce) or the payloads end
/// to end (an allgather). `puffer-dist`'s aggregator produces the same
/// bits.
///
/// # Panics
///
/// Panics if `payloads` is empty or, for an allreduce, the lengths differ.
pub fn combine_in_order(kind: AggregationKind, payloads: &[&Tensor]) -> Tensor {
    match kind {
        AggregationKind::AllReduce => mean_in_order(payloads),
        AggregationKind::AllGather => {
            assert!(!payloads.is_empty(), "no workers");
            let mut all = Tensor::zeros(&[payloads.iter().map(|p| p.len()).sum()]);
            pack::pack_into(payloads.iter().copied(), all.as_mut_slice());
            all
        }
    }
}

/// Exact mean of same-shaped tensors in slice order — the reduction an
/// allreduce [`WorkerCodec`] phase asks for: copy the first, add the rest in order,
/// scale once by the f32 `1/n`. `puffer-dist`'s bucketed reducer produces
/// the same bits bucket by bucket.
///
/// # Panics
///
/// Panics if `tensors` is empty or the shapes differ.
pub fn mean_in_order(tensors: &[&Tensor]) -> Tensor {
    let (first, rest) = tensors.split_first().expect("no workers");
    let mut mean = (*first).clone();
    for t in rest {
        mean.axpy(1.0, t).expect("worker gradient shapes must match");
    }
    mean.scale(1.0 / tensors.len() as f32);
    mean
}

/// Exact mean of per-worker gradient lists (the reference aggregation all
/// compressors approximate): [`mean_in_order`], layer by layer.
pub fn exact_mean(worker_grads: &[Vec<Tensor>]) -> Vec<Tensor> {
    assert!(!worker_grads.is_empty(), "no workers");
    (0..worker_grads[0].len())
        .map(|li| mean_in_order(&worker_grads.iter().map(|g| &g[li]).collect::<Vec<_>>()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_mean_averages() {
        let a = vec![Tensor::full(&[3], 1.0)];
        let b = vec![Tensor::full(&[3], 3.0)];
        let m = exact_mean(&[a, b]);
        assert_eq!(m[0].as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "no workers")]
    fn exact_mean_rejects_empty() {
        let _ = exact_mean(&[]);
    }

    #[test]
    fn round_byte_counters_match_closed_form_sizes() {
        use crate::atomo::Atomo;
        use crate::none::NoCompression;
        use crate::powersgd::PowerSgd;
        use crate::quant::BinaryQuant;
        use crate::signum::Signum;

        // Two workers, one 16×8 matrix layer + one length-8 vector layer:
        // 136 coordinates, 544 raw bytes per worker.
        let workers: Vec<Vec<Tensor>> = (0..2)
            .map(|w| vec![Tensor::randn(&[16, 8], 1.0, 40 + w), Tensor::randn(&[8], 1.0, 50 + w)])
            .collect();
        let check = |mut c: Box<dyn GradCompressor>, per_worker: usize| {
            let (_, stats) = c.round(&workers);
            assert_eq!(stats.bytes_per_worker, per_worker, "{}", c.name());
            assert_eq!(stats.encoded_bytes, per_worker * 2, "{}", c.name());
            let decoded = match c.aggregation() {
                AggregationKind::AllReduce => per_worker,
                AggregationKind::AllGather => per_worker * 2,
            };
            assert_eq!(stats.decoded_bytes, decoded, "{}", c.name());
        };

        // Vanilla: raw f32s, allreduce.
        check(Box::new(NoCompression::new()), 136 * 4);
        // PowerSGD rank 2: P (16×2) + Q (8×2) for the matrix, raw vector.
        check(Box::new(PowerSgd::new(2, 1)), (16 * 2 + 8 * 2) * 4 + 8 * 4);
        // ATOMO rank 2: (U, σ, Vᵀ) triplet for the matrix, raw vector.
        check(Box::new(Atomo::new(2, 1)), (16 * 2 + 2 + 2 * 8) * 4 + 8 * 4);
        // Signum: 1 bit per coordinate, packed into u64 words.
        check(Box::new(Signum::new(0.9)), 136usize.div_ceil(64) * 8);
        // Binary quantization: (min, max) header + 1 bit per coordinate.
        check(Box::new(BinaryQuant::new(1)), 8 + 136usize.div_ceil(64) * 8);
    }

    #[test]
    fn round_byte_counters_surface_on_probe() {
        use crate::signum::Signum;
        // Other tests in this binary may also play rounds concurrently, so
        // assert the counters advanced by at least our round's bytes.
        puffer_probe::configure(puffer_probe::ProbeConfig::in_memory());
        let before = puffer_probe::counter_value("compress.encoded_bytes").unwrap_or(0.0);
        let workers: Vec<Vec<Tensor>> =
            (0..2).map(|w| vec![Tensor::randn(&[64], 1.0, 60 + w)]).collect();
        let (_, stats) = Signum::new(0.9).round(&workers);
        let after = puffer_probe::counter_value("compress.encoded_bytes").unwrap_or(0.0);
        assert!(
            after - before >= stats.encoded_bytes as f64,
            "probe counter must advance by the round's encoded bytes"
        );
        puffer_probe::reset();
    }
}
