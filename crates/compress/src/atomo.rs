//! ATOMO-style spectral gradient sparsification (Wang et al. 2018).
//!
//! ATOMO decomposes each gradient matrix with an SVD **every step** and
//! ships a sampled subset of singular triplets. The paper's introduction
//! names it as the motivating example of a compressor whose *computation*
//! cost is prohibitive: "ATOMO requires to compute gradient factorizations
//! using SVD for every single batch" (§1) — exactly the overhead
//! Pufferfish's one-time warm-start SVD amortizes away. We implement the
//! deterministic top-`r` variant (spectral-ATOMO at fixed rank) so the
//! per-step SVD cost can be measured against PowerSGD's power iteration
//! and Pufferfish's zero-cost rounds.

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

use crate::pack::PackLayout;
use crate::{
    copy_exact, factor_dims, length_mismatch, messages, reshape, u64_of, words_of, AggregationKind,
    GradCompressor, WorkerCodec,
};
use puffer_tensor::svd::{truncated_svd_seeded, SvdFactors};
use puffer_tensor::{Result, Tensor};

/// ATOMO compressor at fixed spectral rank.
#[derive(Debug)]
pub struct Atomo {
    rank: usize,
    seed: u64,
    /// Rounds played so far; with the seed it seeds the round's range finder.
    step: u64,
}

impl Atomo {
    /// Creates a rank-`r` spectral compressor.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is zero.
    pub fn new(rank: usize, seed: u64) -> Self {
        assert!(rank > 0, "ATOMO rank must be nonzero");
        Atomo { rank, seed, step: 0 }
    }

    /// The spectral rank.
    pub fn rank(&self) -> usize {
        self.rank
    }
}

/// The round counter as its snapshot row (two bit-pattern words).
fn step_row(step: u64) -> Vec<(String, Tensor)> {
    let mut t = Tensor::zeros(&[2]);
    t.as_mut_slice().copy_from_slice(&words_of(step));
    vec![("step".to_string(), t)]
}

impl GradCompressor for Atomo {
    fn name(&self) -> &'static str {
        "atomo"
    }

    fn aggregation(&self) -> AggregationKind {
        // Per-worker singular triplets differ, so messages must be gathered.
        AggregationKind::AllGather
    }

    fn worker_codec(&mut self, _worker: usize) -> Box<dyn WorkerCodec> {
        Box::new(AtomoWorker { rank: self.rank, seed: self.seed, step: self.step })
    }

    fn state_snapshot(&self) -> Vec<(String, Tensor)> {
        step_row(self.step)
    }

    fn restore_state(&mut self, state: &[(String, Tensor)]) -> bool {
        self.step = match state {
            [] => 0,
            [(name, t)] if name == "step" && t.len() == 2 => u64_of(t.as_slice()),
            _ => return false,
        };
        true
    }
}

/// One node's half of ATOMO: it factorizes its own matrices — the per-step
/// SVD the paper's intro criticizes — ships `(U, σ, Vᵀ)` per matrix next to
/// the raw 1-D tensors, and reconstructs and averages everybody's triplets
/// itself. The round counter is shared state: every node that decodes a
/// round counts it.
#[derive(Debug)]
pub struct AtomoWorker {
    rank: usize,
    seed: u64,
    step: u64,
}

/// Writes `part` at the front of `out`; what is left of `out` comes back.
fn put<'a>(out: &'a mut [f32], part: &[f32], op: &'static str) -> Result<&'a mut [f32]> {
    let (head, tail) = out.split_at_mut(part.len().min(out.len()));
    copy_exact(head, part, op)?;
    Ok(tail)
}

impl WorkerCodec for AtomoWorker {
    fn payload_layout(&self, _phase: usize, grads: &[&Tensor]) -> PackLayout {
        let shapes = grads.iter().flat_map(|g| match factor_dims(g, self.rank) {
            Some((m, n, r)) => vec![vec![m, r], vec![r], vec![r, n]],
            None => vec![g.shape().to_vec()],
        });
        PackLayout::from_shapes(shapes.collect())
    }

    fn encode(
        &mut self,
        _phase: usize,
        grads: &mut [&mut Tensor],
        _reduced_prev: Option<&[f32]>,
        mut out: &mut [f32],
    ) -> Result<()> {
        const OP: &str = "atomo encode";
        let seed = self.seed ^ (self.step + 1);
        for g in grads.iter_mut() {
            let Some((m, n, r)) = factor_dims(g, self.rank) else {
                out = put(out, g.as_slice(), OP)?;
                continue;
            };
            let shape = g.shape().to_vec();
            reshape(g, &[m, n])?;
            let f = truncated_svd_seeded(g, r, seed)?;
            reshape(g, &shape)?;
            for part in [f.u.as_slice(), &f.s, f.vt.as_slice()] {
                out = put(out, part, OP)?;
            }
        }
        match out.len() {
            0 => Ok(()),
            left => Err(length_mismatch(0, left, OP)),
        }
    }

    fn decode(
        &mut self,
        reduced_last: &[f32],
        grads: &mut [&mut Tensor],
        _contributed: bool,
    ) -> Result<()> {
        let len = grads.iter().fold(0, |len, g| match factor_dims(g, self.rank) {
            Some((m, n, r)) => len + m * r + r + r * n,
            None => len + g.len(),
        });
        let msgs = messages(reduced_last, len, "atomo decode")?;
        let scale = 1.0 / msgs.len() as f32;
        let mut at = 0;
        for g in grads.iter_mut() {
            let dims = factor_dims(g, self.rank);
            let part = dims.map_or(g.len(), |(m, n, r)| m * r + r + r * n);
            // Every message is `len` long and the parts add up to `len`.
            let range = at..at + part;
            at = range.end;
            let parts = msgs.clone().filter_map(|msg| msg.get(range.clone()));
            match dims {
                None => {
                    // Copy the first worker's, add the rest, scale once.
                    for (w, raw) in parts.enumerate() {
                        if w == 0 {
                            copy_exact(g.as_mut_slice(), raw, "atomo decode")?;
                        } else {
                            g.as_mut_slice().iter_mut().zip(raw).for_each(|(a, b)| *a += b);
                        }
                    }
                    g.scale(scale);
                }
                Some((m, n, r)) => {
                    let mut mean = Tensor::zeros(&[m, n]);
                    for triplet in parts {
                        let (u, rest) = triplet.split_at(m * r);
                        let (s, vt) = rest.split_at(r);
                        let f = SvdFactors {
                            u: Tensor::from_vec(u.to_vec(), &[m, r])?,
                            s: s.to_vec(),
                            vt: Tensor::from_vec(vt.to_vec(), &[r, n])?,
                        };
                        mean.axpy(1.0, &f.reconstruct())?;
                    }
                    mean.scale(scale);
                    copy_exact(g.as_mut_slice(), mean.as_slice(), "atomo decode")?;
                }
            }
        }
        self.step += 1;
        Ok(())
    }

    fn state_snapshot(&self) -> Vec<(String, Tensor)> {
        step_row(self.step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_tensor::matmul::matmul;
    use puffer_tensor::stats::rel_error;

    #[test]
    fn low_rank_gradient_passes_exactly() {
        let u = Tensor::randn(&[8, 2], 1.0, 1);
        let v = Tensor::randn(&[2, 6], 1.0, 2);
        let g = matmul(&u, &v).unwrap();
        let mut c = Atomo::new(2, 3);
        let (out, _) = c.round(&[vec![g.clone()]]);
        assert!(rel_error(&g, &out[0]) < 1e-2, "{}", rel_error(&g, &out[0]));
    }

    #[test]
    fn truncation_loses_tail_energy_only() {
        let g = Tensor::randn(&[10, 10], 1.0, 4);
        let mut c = Atomo::new(4, 5);
        let (out, _) = c.round(&[vec![g.clone()]]);
        // Eckart–Young: the rank-4 approximation is closer than zero.
        let err = rel_error(&g, &out[0]);
        assert!(err < 1.0 && err > 0.0);
    }

    #[test]
    fn encode_cost_is_measured_every_round() {
        use std::time::Duration;
        // The defining pathology: encode time is nonzero on *every* round.
        let mut c = Atomo::new(2, 6);
        let grads = vec![vec![Tensor::randn(&[48, 48], 1.0, 7)]];
        for _ in 0..3 {
            let (_, stats) = c.round(&grads);
            assert!(stats.encode_time > Duration::ZERO);
        }
        assert_eq!(c.aggregation(), AggregationKind::AllGather);
    }

    #[test]
    fn one_d_passthrough_and_multiworker_mean() {
        let mut c = Atomo::new(2, 8);
        let w1 = vec![Tensor::full(&[3], 1.0)];
        let w2 = vec![Tensor::full(&[3], 3.0)];
        let (out, _) = c.round(&[w1, w2]);
        assert_eq!(out[0].as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn bytes_reflect_triplet_size() {
        let mut c = Atomo::new(2, 9);
        let grads = vec![vec![Tensor::randn(&[32, 32], 1.0, 10)]];
        let (_, stats) = c.round(&grads);
        assert_eq!(stats.bytes_per_worker, (32 * 2 + 2 + 2 * 32) * 4);
    }
}
