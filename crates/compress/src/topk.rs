//! Top-k gradient sparsification with error feedback (Stich et al. 2018;
//! Lin et al. 2017).
//!
//! Each worker ships the `k` largest-magnitude coordinates of its
//! error-compensated flat gradient as (index, value) pairs. Sparse
//! messages from different workers hit different coordinates, so the
//! collective is allgather. The paper's appendix E names Top-k as the kind
//! of flat-gradient compressor that composes well with Pufferfish.

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
use crate::{length_mismatch, messages, total_len, AggregationKind, GradCompressor, WorkerCodec};
use puffer_tensor::stats::top_k_indices;
use puffer_tensor::{Result, Tensor, TensorError};
use std::collections::BTreeMap;

/// Top-k compressor state: what the worker halves hold between rounds.
#[derive(Debug)]
pub struct TopK {
    ratio: f32,
    /// Residual (everything not sent yet) per worker id.
    memory: BTreeMap<usize, Tensor>,
    layout: Option<PackLayout>,
}

impl TopK {
    /// Creates a compressor keeping a `ratio` fraction of coordinates
    /// (e.g. 0.01 for 1%).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ratio <= 1`.
    pub fn new(ratio: f32) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
        TopK { ratio, memory: BTreeMap::new(), layout: None }
    }

    /// The kept fraction.
    pub fn ratio(&self) -> f32 {
        self.ratio
    }
}

impl GradCompressor for TopK {
    fn name(&self) -> &'static str {
        "topk"
    }

    fn aggregation(&self) -> AggregationKind {
        AggregationKind::AllGather
    }

    fn worker_codec(&mut self, worker: usize) -> Box<dyn WorkerCodec> {
        let state = FlatMemory::new(worker, self.layout.clone(), self.memory.remove(&worker));
        Box::new(TopKWorker { ratio: self.ratio, state })
    }

    fn state_snapshot(&self) -> Vec<(String, Tensor)> {
        let memory = self.memory.iter().map(|(&w, m)| (w, m));
        snapshot_flat_state(self.layout.as_ref(), "mem", memory)
    }

    fn restore_state(&mut self, state: &[(String, Tensor)]) -> bool {
        let Some((layout, memory)) = restore_flat_state(state, "mem") else { return false };
        (self.layout, self.memory) = (layout, memory);
        true
    }
}

/// One node's half of Top-k: it keeps its own residual, ships its `k`
/// largest error-compensated coordinates as (index, value) pairs, and
/// scatter-adds everybody's pairs itself.
#[derive(Debug)]
pub struct TopKWorker {
    ratio: f32,
    state: FlatMemory,
}

impl TopKWorker {
    /// How many of `total` coordinates are sent.
    fn kept(&self, total: usize) -> usize {
        ((total as f32 * self.ratio).ceil() as usize).max(1).min(total)
    }
}

impl WorkerCodec for TopKWorker {
    fn payload_layout(&self, _phase: usize, grads: &[&Tensor]) -> PackLayout {
        PackLayout::from_shapes(vec![vec![self.kept(total_len(grads)), 2]])
    }

    fn encode(
        &mut self,
        _phase: usize,
        grads: &mut [&mut Tensor],
        _reduced_prev: Option<&[f32]>,
        out: &mut [f32],
    ) -> Result<()> {
        let k = self.kept(total_len(grads));
        if out.len() != 2 * k {
            return Err(length_mismatch(2 * k, out.len(), "topk encode"));
        }
        // Error compensation: what is ranked is the gradient plus the residual.
        let flat = self.state.begin(grads);
        for (m, &g) in flat.iter_mut().zip(grads.iter().flat_map(|g| g.as_slice())) {
            *m += g;
        }
        let abs: Vec<f32> = flat.iter().map(|x| x.abs()).collect();
        // The new residual is everything not sent.
        for (pair, i) in out.chunks_exact_mut(2).zip(top_k_indices(&abs, k)) {
            let sent = flat.get_mut(i).map(std::mem::take).unwrap_or_default();
            pair.copy_from_slice(&[f32::from_bits(i as u32), sent]);
        }
        Ok(())
    }

    fn decode(
        &mut self,
        reduced_last: &[f32],
        grads: &mut [&mut Tensor],
        contributed: bool,
    ) -> Result<()> {
        let total = total_len(grads);
        let k = self.kept(total);
        let msgs = messages(reduced_last, 2 * k, "topk decode")?;
        let n_workers = msgs.len();
        // Scatter-add every worker's pairs, divide by their number.
        let dense = self.state.commit(grads, contributed);
        let sum = dense.as_mut_slice();
        sum.fill(0.0);
        for pair in msgs.flat_map(|m| m.chunks_exact(2)) {
            let &[i, v] = pair else { continue };
            let i = i.to_bits() as usize;
            let out_of_range =
                || TensorError::IndexOutOfBounds { index: vec![i], shape: vec![total] };
            *sum.get_mut(i).ok_or_else(out_of_range)? += v;
        }
        dense.scale(1.0 / n_workers as f32);
        unpack_into(dense.as_slice(), grads, "topk decode")
    }

    fn state_snapshot(&self) -> Vec<(String, Tensor)> {
        self.state.snapshot("mem")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_tensor::stats::l2_norm;

    #[test]
    fn keeps_largest_coordinates() {
        let mut c = TopK::new(0.25);
        let g =
            vec![Tensor::from_vec(vec![0.1, -5.0, 0.2, 0.05, 4.0, 0.0, 0.0, 0.0], &[8]).unwrap()];
        let (out, stats) = c.round(std::slice::from_ref(&g));
        assert_eq!(out[0].as_slice()[1], -5.0);
        assert_eq!(out[0].as_slice()[4], 4.0);
        assert_eq!(out[0].as_slice()[0], 0.0);
        assert_eq!(stats.bytes_per_worker, 2 * 8);
    }

    #[test]
    fn error_feedback_transmits_everything_eventually() {
        // A constant gradient: with memory, repeated rounds must deliver
        // every coordinate (memory grows until it wins the top-k).
        let mut c = TopK::new(0.25);
        let g = vec![Tensor::from_vec(vec![4.0, 3.0, 2.0, 1.0], &[4]).unwrap()];
        let mut acc = Tensor::zeros(&[4]);
        for _ in 0..12 {
            let (out, _) = c.round(std::slice::from_ref(&g));
            acc.axpy(1.0, &out[0]).expect("shape");
        }
        // All coordinates must have accumulated mass, including the smallest.
        assert!(acc.as_slice().iter().all(|&v| v > 0.5), "{acc:?}");
    }

    #[test]
    fn full_ratio_is_exact() {
        let mut c = TopK::new(1.0);
        let w1 = vec![Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap()];
        let w2 = vec![Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap()];
        let (out, _) = c.round(&[w1, w2]);
        assert_eq!(out[0].as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn residual_plus_sent_equals_input() {
        let mut c = TopK::new(0.5);
        let g = Tensor::randn(&[16], 1.0, 1);
        let (out, _) = c.round(&[vec![g.clone()]]);
        let sum = &out[0] + &c.memory[&0];
        assert!(l2_norm(&(&sum - &g)) < 1e-6);
    }

    #[test]
    fn snapshot_restore_carries_residuals() {
        let grads: Vec<Vec<Tensor>> =
            (0..2).map(|w| vec![Tensor::randn(&[4, 4], 1.0, 50 + w)]).collect();
        let mut a = TopK::new(0.25);
        for _ in 0..3 {
            let _ = a.round(&grads);
        }
        let snap = a.state_snapshot();
        assert!(!snap.is_empty());
        let mut b = TopK::new(0.25);
        assert!(b.restore_state(&snap));
        assert_eq!(a.round(&grads).0, b.round(&grads).0);
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn ratio_validated() {
        let _ = TopK::new(0.0);
    }
}
