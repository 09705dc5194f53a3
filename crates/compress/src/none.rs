//! Uncompressed baseline: exact mean over a single flat allreduce — what
//! "vanilla SGD" means in the paper's Figure 4, including its flat-buffer
//! packing optimization.

// Reached from the data-parallel trainer's worker threads, which must fail
// typed, not panic (DESIGN.md §8): same deny list as `puffer-dist`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use crate::pack::{pack, pack_into, unpack, PackLayout};
use crate::{
    exact_mean, length_mismatch, AggregationKind, GradCompressor, RoundStats, WorkerCodec,
};
use puffer_probe::Stopwatch;
use puffer_tensor::{Result, Tensor};

/// No compression: ships raw f32 gradients.
#[derive(Debug, Default)]
pub struct NoCompression;

impl NoCompression {
    /// Creates the baseline.
    pub fn new() -> Self {
        NoCompression
    }
}

impl GradCompressor for NoCompression {
    fn name(&self) -> &'static str {
        "vanilla-sgd"
    }

    fn aggregation(&self) -> AggregationKind {
        AggregationKind::AllReduce
    }

    fn worker_codec(&mut self, _worker: usize) -> Option<Box<dyn WorkerCodec>> {
        Some(Box::new(IdentityCodec))
    }

    fn round(&mut self, worker_grads: &[Vec<Tensor>]) -> (Vec<Tensor>, RoundStats) {
        // Encode = flatten into one buffer (the paper's packing step).
        let t0 = Stopwatch::start();
        let packed: Vec<_> = worker_grads.iter().map(|g| pack(g)).collect();
        let encode_time = t0.elapsed() / worker_grads.len().max(1) as u32;
        let bytes = packed.first().map(|(_, l)| l.total_bytes()).unwrap_or(0);
        // Decode = unpack the (conceptually allreduced) buffer.
        let t0 = Stopwatch::start();
        let mean = exact_mean(worker_grads);
        let (mean_buf, layout) = pack(&mean);
        let out = unpack(&mean_buf, &layout);
        let decode_time = t0.elapsed();
        (
            out,
            RoundStats::new(
                bytes,
                worker_grads.len(),
                self.aggregation(),
                encode_time,
                decode_time,
            ),
        )
    }
}

/// The identity worker half: one phase whose payload is the packed
/// gradient, so the mean of the payloads *is* the mean gradient. Stateless.
/// Also what carries a gradient to a central [`GradCompressor::round`] for
/// the methods that have no worker half of their own.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdentityCodec;

impl WorkerCodec for IdentityCodec {
    fn phases(&self) -> usize {
        1
    }

    fn payload_layout(&self, _phase: usize, grads: &[&Tensor]) -> PackLayout {
        PackLayout::of_refs(grads)
    }

    fn encode(
        &mut self,
        _phase: usize,
        grads: &mut [&mut Tensor],
        _reduced_prev: Option<&[f32]>,
        out: &mut [f32],
    ) -> Result<()> {
        let total: usize = grads.iter().map(|g| g.len()).sum();
        if out.len() != total {
            return Err(length_mismatch(total, out.len(), "identity encode"));
        }
        pack_into(grads.iter().map(|g| &**g), out);
        Ok(())
    }

    fn decode(
        &mut self,
        reduced_last: &[f32],
        grads: &mut [&mut Tensor],
        _contributed: bool,
    ) -> Result<()> {
        let total: usize = grads.iter().map(|g| g.len()).sum();
        if reduced_last.len() != total {
            return Err(length_mismatch(total, reduced_last.len(), "identity decode"));
        }
        let mut rest = reduced_last;
        for g in grads.iter_mut() {
            let (head, tail) = rest.split_at(g.len());
            g.as_mut_slice().copy_from_slice(head);
            rest = tail;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_is_exact() {
        let mut c = NoCompression::new();
        let w1 = vec![Tensor::full(&[4], 2.0), Tensor::full(&[2], 0.0)];
        let w2 = vec![Tensor::full(&[4], 4.0), Tensor::full(&[2], 2.0)];
        let (out, stats) = c.round(&[w1, w2]);
        assert_eq!(out[0].as_slice(), &[3.0; 4]);
        assert_eq!(out[1].as_slice(), &[1.0, 1.0]);
        assert_eq!(stats.bytes_per_worker, 6 * 4);
        assert_eq!(c.aggregation(), AggregationKind::AllReduce);
    }

    #[test]
    fn identity_codec_round_trips_the_packed_gradient() {
        let mut codec = NoCompression::new().worker_codec(3).expect("vanilla has a worker half");
        assert_eq!(codec.phases(), 1);
        let mut grads = vec![Tensor::randn(&[2, 3], 1.0, 1), Tensor::randn(&[4], 1.0, 2)];
        let want = grads.clone();
        let layout = codec.payload_layout(0, &grads.iter().collect::<Vec<_>>());
        assert_eq!(layout, PackLayout::of(&grads));
        let mut payload = vec![f32::NAN; layout.total_len()];
        let mut refs: Vec<&mut Tensor> = grads.iter_mut().collect();
        codec.encode(0, &mut refs, None, &mut payload).unwrap();
        assert_eq!(payload, pack(&want).0.as_slice());
        for g in refs.iter_mut() {
            g.as_mut_slice().fill(0.0);
        }
        codec.decode(&payload, &mut refs, true).unwrap();
        assert_eq!(grads, want);
        // A payload of the wrong length is an error, not a panic.
        let mut refs: Vec<&mut Tensor> = grads.iter_mut().collect();
        assert!(codec.encode(0, &mut refs, None, &mut payload[1..]).is_err());
        assert!(codec.decode(&payload[1..], &mut refs, true).is_err());
        assert!(codec.state_snapshot().is_empty());
    }
}
