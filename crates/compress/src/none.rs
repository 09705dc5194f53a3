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

use crate::pack::{pack_into, unpack_into, PackLayout};
use crate::{length_mismatch, total_len, AggregationKind, GradCompressor, WorkerCodec};
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

    fn worker_codec(&mut self, _worker: usize) -> Box<dyn WorkerCodec> {
        Box::new(IdentityCodec)
    }
}

/// The identity worker half: one phase whose payload is the packed
/// gradient, so the mean of the payloads *is* the mean gradient. Stateless.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdentityCodec;

impl WorkerCodec for IdentityCodec {
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
        let total = total_len(grads);
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
        unpack_into(reduced_last, grads, "identity decode")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::pack;

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
        let mut codec = NoCompression::new().worker_codec(3);
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
