//! SignSGD with majority vote / Signum (Bernstein et al. 2018a;b).
//!
//! Each worker maintains a momentum buffer and transmits only the **sign**
//! of each momentum coordinate (1 bit), packed into `u64` words. The
//! aggregation is a majority vote across workers. Sign messages cannot be
//! summed in flight, so the collective is allgather — the inefficiency the
//! paper measures in Figure 4 ("allgather is less efficient than
//! allreduce").

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

use crate::pack::{restore_flat_state, snapshot_flat_state, unpack_into, FlatMemory, PackLayout};
use crate::{
    length_mismatch, messages, total_len, u64_of, words_of, AggregationKind, GradCompressor,
    WorkerCodec,
};
use puffer_tensor::{Result, Tensor};
use std::collections::BTreeMap;

/// Signum compressor state: what the worker halves hold between rounds.
#[derive(Debug)]
pub struct Signum {
    beta: f32,
    /// Momentum over the packed flat gradient, per worker id.
    momentum: BTreeMap<usize, Tensor>,
    layout: Option<PackLayout>,
}

/// A packed sign message: one bit per coordinate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignMessage {
    bits: Vec<u64>,
    len: usize,
}

impl SignMessage {
    /// Encodes the signs of a flat buffer (negative → 0, non-negative → 1).
    pub fn encode(values: &[f32]) -> Self {
        let word = |chunk: &[f32]| {
            chunk.iter().enumerate().fold(0u64, |w, (j, &v)| w | u64::from(v >= 0.0) << j)
        };
        SignMessage { bits: values.chunks(64).map(word).collect(), len: values.len() }
    }

    /// Writes the message into a payload, two words per 64 coordinates.
    fn write_words(&self, out: &mut [f32]) -> Result<()> {
        if out.len() != 2 * self.bits.len() {
            return Err(length_mismatch(2 * self.bits.len(), out.len(), "signum encode"));
        }
        for (pair, &w) in out.chunks_exact_mut(2).zip(&self.bits) {
            pair.copy_from_slice(&words_of(w));
        }
        Ok(())
    }

    /// Sign at coordinate `i`: `+1.0` or `-1.0`.
    pub fn sign(&self, i: usize) -> f32 {
        debug_assert!(i < self.len);
        if self.bits.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1) {
            1.0
        } else {
            -1.0
        }
    }

    /// Number of encoded coordinates.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the message is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Wire size in bytes.
    pub fn bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

impl Signum {
    /// Creates a Signum compressor with momentum `beta` (paper default 0.9).
    ///
    /// # Panics
    ///
    /// Panics if `beta` is not in `[0, 1)`.
    pub fn new(beta: f32) -> Self {
        assert!((0.0..1.0).contains(&beta), "beta must be in [0, 1)");
        Signum { beta, momentum: BTreeMap::new(), layout: None }
    }
}

impl GradCompressor for Signum {
    fn name(&self) -> &'static str {
        "signum"
    }

    fn aggregation(&self) -> AggregationKind {
        AggregationKind::AllGather
    }

    fn worker_codec(&mut self, worker: usize) -> Box<dyn WorkerCodec> {
        let momentum = self.momentum.remove(&worker);
        let state = FlatMemory::new(worker, self.layout.clone(), momentum);
        Box::new(SignumWorker { beta: self.beta, state })
    }

    fn state_snapshot(&self) -> Vec<(String, Tensor)> {
        let momentum = self.momentum.iter().map(|(&w, m)| (w, m));
        snapshot_flat_state(self.layout.as_ref(), "mom", momentum)
    }

    fn restore_state(&mut self, state: &[(String, Tensor)]) -> bool {
        let Some((layout, momentum)) = restore_flat_state(state, "mom") else { return false };
        (self.layout, self.momentum) = (layout, momentum);
        true
    }
}

/// One node's half of Signum: it keeps its own momentum, ships the signs
/// of it, and takes the majority vote over everybody's signs itself — the
/// decode whose cost grows with the worker count.
#[derive(Debug)]
pub struct SignumWorker {
    beta: f32,
    state: FlatMemory,
}

/// Payload words the signs of `total` coordinates take: two per 64.
fn message_words(total: usize) -> usize {
    2 * total.div_ceil(64)
}

impl WorkerCodec for SignumWorker {
    fn payload_layout(&self, _phase: usize, grads: &[&Tensor]) -> PackLayout {
        PackLayout::from_shapes(vec![vec![message_words(total_len(grads))]])
    }

    fn encode(
        &mut self,
        _phase: usize,
        grads: &mut [&mut Tensor],
        _reduced_prev: Option<&[f32]>,
        out: &mut [f32],
    ) -> Result<()> {
        // m ← β m + (1 − β) g
        let momentum = self.state.begin(grads);
        let fresh = 1.0 - self.beta;
        for (m, &g) in momentum.iter_mut().zip(grads.iter().flat_map(|g| g.as_slice())) {
            *m *= self.beta;
            *m += fresh * g;
        }
        SignMessage::encode(momentum).write_words(out)
    }

    fn decode(
        &mut self,
        reduced_last: &[f32],
        grads: &mut [&mut Tensor],
        contributed: bool,
    ) -> Result<()> {
        let votes: Vec<&[f32]> =
            messages(reduced_last, message_words(total_len(grads)), "signum decode")?.collect();
        // Majority vote, 64 coordinates at a time: Σ ±1 ≥ 0 where at least
        // half of the voters said +1.
        let voted = self.state.commit(grads, contributed);
        for (c, chunk) in voted.as_mut_slice().chunks_mut(64).enumerate() {
            let mut ayes = [0usize; 64];
            for word in votes.iter().filter_map(|vote| vote.get(2 * c..2 * c + 2)).map(u64_of) {
                for (j, a) in ayes.iter_mut().enumerate() {
                    *a += (word >> j & 1) as usize;
                }
            }
            for (v, a) in chunk.iter_mut().zip(ayes) {
                *v = if 2 * a >= votes.len() { 1.0 } else { -1.0 };
            }
        }
        unpack_into(voted.as_slice(), grads, "signum decode")
    }

    fn state_snapshot(&self) -> Vec<(String, Tensor)> {
        self.state.snapshot("mom")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_message_round_trip() {
        let vals = [1.0f32, -2.0, 0.0, -0.5, 3.0];
        let msg = SignMessage::encode(&vals);
        assert_eq!(msg.len(), 5);
        assert_eq!(msg.sign(0), 1.0);
        assert_eq!(msg.sign(1), -1.0);
        assert_eq!(msg.sign(2), 1.0); // zero counts as +
        assert_eq!(msg.sign(3), -1.0);
        assert_eq!(msg.sign(4), 1.0);
    }

    #[test]
    fn message_is_one_bit_per_coordinate() {
        let vals = vec![1.0f32; 1000];
        let msg = SignMessage::encode(&vals);
        assert_eq!(msg.bytes(), 1000usize.div_ceil(64) * 8); // 128 bytes vs 4000 raw
    }

    #[test]
    fn majority_vote() {
        let mut c = Signum::new(0.0); // no momentum: sign of raw gradient
        let w1 = vec![Tensor::from_vec(vec![1.0, -1.0, 1.0], &[3]).unwrap()];
        let w2 = vec![Tensor::from_vec(vec![1.0, -1.0, -1.0], &[3]).unwrap()];
        let w3 = vec![Tensor::from_vec(vec![-1.0, -1.0, -1.0], &[3]).unwrap()];
        let (out, stats) = c.round(&[w1, w2, w3]);
        assert_eq!(out[0].as_slice(), &[1.0, -1.0, -1.0]);
        assert!(stats.bytes_per_worker < 3 * 4);
        assert_eq!(c.aggregation(), AggregationKind::AllGather);
    }

    #[test]
    fn momentum_smooths_signs() {
        // A single large positive gradient followed by small negative ones:
        // with high momentum, the sign stays positive for a while.
        let mut c = Signum::new(0.9);
        let big = vec![Tensor::from_vec(vec![10.0], &[1]).unwrap()];
        let (out, _) = c.round(std::slice::from_ref(&big));
        assert_eq!(out[0].as_slice(), &[1.0]);
        let small_neg = vec![Tensor::from_vec(vec![-0.1], &[1]).unwrap()];
        let (out, _) = c.round(std::slice::from_ref(&small_neg));
        assert_eq!(out[0].as_slice(), &[1.0], "momentum should dominate");
        // After many negative steps the sign flips.
        let mut last = 1.0;
        for _ in 0..60 {
            let (o, _) = c.round(std::slice::from_ref(&small_neg));
            last = o[0].as_slice()[0];
        }
        assert_eq!(last, -1.0);
    }

    #[test]
    fn snapshot_restore_carries_momentum() {
        let grads: Vec<Vec<Tensor>> =
            (0..2).map(|w| vec![Tensor::randn(&[4, 3], 1.0, 40 + w)]).collect();
        let mut a = Signum::new(0.9);
        for _ in 0..3 {
            let _ = a.round(&grads);
        }
        let snap = a.state_snapshot();
        assert!(!snap.is_empty());
        let mut b = Signum::new(0.9);
        assert!(b.restore_state(&snap));
        assert_eq!(a.round(&grads).0, b.round(&grads).0);
        assert!(!b.restore_state(&[("garbage".into(), Tensor::zeros(&[1]))]));
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn beta_validated() {
        let _ = Signum::new(1.0);
    }
}
