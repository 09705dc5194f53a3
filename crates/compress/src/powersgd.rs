//! PowerSGD (Vogels, Karimireddy & Jaggi, 2019): practical low-rank
//! gradient compression.
//!
//! Each ≥2-D gradient `M (m×n)` is compressed to rank `r` by one step of
//! subspace/power iteration against a warm-started query matrix `Q`:
//!
//! 1. `P = M·Q` (allreduced → mean), orthogonalized (Gram–Schmidt);
//! 2. `Q ← Mᵀ·P` (allreduced → mean);
//! 3. every worker decodes `M̂ = P·Qᵀ`.
//!
//! Error feedback keeps the compression residual `M − M̂` in per-worker
//! memory and adds it back the next round. 1-D tensors (biases, BN) are
//! sent uncompressed, as in the reference implementation. PowerSGD is
//! allreduce-compatible — the reason the paper picks it as the strongest
//! communication baseline in Figure 4(b).
//!
//! The arithmetic lives in [`PowerSgdWorker`], one node's half: phase 0
//! ships `P_w` of every matrix layer next to the raw 1-D tensors, phase 1
//! ships `Q_w`, and each node decodes and keeps its **own** error memory —
//! keyed by worker id, so a node that misses a round, leaves or joins never
//! touches anybody else's residual. [`PowerSgd::round`] drives one half per
//! worker in-process and reduces their payloads with
//! [`crate::mean_in_order`], the sum a trainer's allreduce performs.

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
    factor_dims, length_mismatch, mean_in_order, reshape, AggregationKind, GradCompressor,
    RoundStats, WorkerCodec,
};
use puffer_probe::Stopwatch;
use puffer_tensor::matmul::{matmul, matmul_nt, matmul_tn};
use puffer_tensor::svd::orthogonalize_columns;
use puffer_tensor::{workspace, Result, Tensor, TensorError};
use std::collections::BTreeMap;

/// PowerSGD compressor state: what the worker halves share and what each
/// of them owns, between rounds.
#[derive(Debug)]
pub struct PowerSgd {
    rank: usize,
    /// Warm-started Q per compressible layer (the same on every worker).
    queries: Vec<Option<Tensor>>,
    /// Error-feedback memory per worker id, per layer.
    memory: BTreeMap<usize, Vec<Option<Tensor>>>,
    seed: u64,
}

impl PowerSgd {
    /// Creates a rank-`r` compressor. The paper uses rank 2 for ResNet-18
    /// as the accuracy-neutral setting and rank 4 when warm-starting
    /// Pufferfish (appendix E).
    ///
    /// # Panics
    ///
    /// Panics if `rank` is zero.
    pub fn new(rank: usize, seed: u64) -> Self {
        assert!(rank > 0, "PowerSGD rank must be nonzero");
        PowerSgd { rank, queries: Vec::new(), memory: BTreeMap::new(), seed }
    }

    /// The compression rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Worker `worker`'s half: a copy of the shared queries and, moved out
    /// of `self`, its error memory (none for a worker first seen now).
    fn take_half(&mut self, worker: usize) -> PowerSgdWorker {
        PowerSgdWorker {
            worker,
            rank: self.rank,
            seed: self.seed,
            queries: self.queries.clone(),
            memory: self.memory.remove(&worker).unwrap_or_default(),
            p_hat: Vec::new(),
        }
    }
}

impl PowerSgd {
    /// One round over one half per worker, in-process: both phases reduced
    /// by [`mean_in_order`], `M̂` decoded once and shared.
    fn drive_halves(&mut self, worker_grads: &[Vec<Tensor>]) -> Result<(Vec<Tensor>, RoundStats)> {
        let n_workers = worker_grads.len();
        let mut halves: Vec<PowerSgdWorker> = (0..n_workers).map(|w| self.take_half(w)).collect();
        // The halves work in place, so each gets its own copy to work on.
        let mut grads: Vec<Vec<Tensor>> = worker_grads.to_vec();
        let no_workers = length_mismatch(1, 0, "powersgd round");
        let shapes: Vec<&Tensor> = worker_grads.first().ok_or(no_workers)?.iter().collect();

        let t_enc = Stopwatch::start();
        let mut bytes = 0usize;
        let mut reduced: Option<Tensor> = None;
        for phase in 0..2 {
            let len = halves.first().map_or(0, |h| h.payload_layout(phase, &shapes).total_len());
            bytes += len * 4;
            let mut payloads: Vec<Tensor> = Vec::with_capacity(n_workers);
            for (half, g) in halves.iter_mut().zip(&mut grads) {
                let mut out = Tensor::zeros(&[len]);
                let mut g: Vec<&mut Tensor> = g.iter_mut().collect();
                let prev = reduced.as_ref().map(Tensor::as_slice);
                half.encode(phase, &mut g, prev, out.as_mut_slice())?;
                payloads.push(out);
            }
            reduced = Some(mean_in_order(&payloads.iter().collect::<Vec<_>>()));
        }
        // Per-node encode: each node computes only its own P/Q products
        // (the allreduce sums them in flight).
        let encode_time = t_enc.elapsed() / n_workers.max(1) as u32;

        let t_dec = Stopwatch::start();
        let q_mean = reduced.unwrap_or_default();
        let mut decoded: Vec<Tensor> = Vec::new();
        for (half, g) in halves.iter_mut().zip(&mut grads) {
            let mut g: Vec<&mut Tensor> = g.iter_mut().collect();
            if decoded.is_empty() {
                half.finish(q_mean.as_slice(), &mut g, true, None)?;
                decoded = g.into_iter().map(std::mem::take).collect();
            } else {
                half.finish(q_mean.as_slice(), &mut g, true, Some(&decoded))?;
            }
        }
        let decode_time = t_dec.elapsed();

        for half in halves {
            self.queries = half.queries;
            self.memory.insert(half.worker, half.memory);
        }
        let stats = RoundStats::new(bytes, n_workers, self.aggregation(), encode_time, decode_time);
        Ok((decoded, stats))
    }
}

/// One node's half of PowerSGD (see the module docs).
#[derive(Debug)]
pub struct PowerSgdWorker {
    worker: usize,
    rank: usize,
    seed: u64,
    queries: Vec<Option<Tensor>>,
    /// This worker's error-feedback memory per layer, as `m×n` matrices.
    memory: Vec<Option<Tensor>>,
    /// The orthogonalized mean `P̂` per matrix layer, from phase 1's
    /// `encode` until `decode` (or `abort`).
    p_hat: Vec<Option<Tensor>>,
}

impl PowerSgdWorker {
    /// Payload lengths of the two phases for these gradients.
    fn payload_lens(&self, grads: &[&mut Tensor]) -> (usize, usize) {
        grads.iter().fold((0, 0), |(p, q), g| match factor_dims(g, self.rank) {
            Some((m, n, r)) => (p + m * r, q + n * r),
            None => (p + g.len(), q),
        })
    }

    /// Phase 0: `M_w = g + e_w` in place of `g`, then `P_w = M_w·Q` per
    /// matrix layer; 1-D tensors travel raw.
    fn encode_p(&mut self, grads: &mut [&mut Tensor], mut out: &mut [f32]) -> Result<()> {
        for (li, g) in grads.iter_mut().enumerate() {
            let Some((m, n, r)) = factor_dims(g, self.rank) else {
                let (head, tail) = out.split_at_mut(g.len());
                head.copy_from_slice(g.as_slice());
                out = tail;
                continue;
            };
            let (head, tail) = out.split_at_mut(m * r);
            out = tail;
            let shape = g.shape().to_vec();
            reshape(g, &[m, n])?;
            if let Some(e) = self.memory.get(li).and_then(Option::as_ref) {
                g.axpy(1.0, e)?;
            }
            let warm =
                self.queries.get(li).and_then(Option::as_ref).filter(|q| q.shape() == [n, r]);
            let p = match warm {
                Some(q) => matmul(g, q)?,
                None => {
                    let q = Tensor::randn(&[n, r], 1.0, self.seed.wrapping_add(li as u64));
                    matmul(g, &q)?
                }
            };
            head.copy_from_slice(p.as_slice());
            reshape(g, &shape)?;
        }
        Ok(())
    }

    /// Phase 1: `P̂ = orthogonalize(P̄)`, then `Q_w = M_wᵀ·P̂` per matrix
    /// layer; the mean of a 1-D tensor is already the round's gradient.
    fn encode_q(
        &mut self,
        grads: &mut [&mut Tensor],
        mut p_mean: &[f32],
        mut out: &mut [f32],
    ) -> Result<()> {
        self.p_hat.clear();
        self.p_hat.resize_with(grads.len(), || None);
        for (g, slot) in grads.iter_mut().zip(&mut self.p_hat) {
            let Some((m, n, r)) = factor_dims(g, self.rank) else {
                let (head, tail) = p_mean.split_at(g.len());
                g.as_mut_slice().copy_from_slice(head);
                p_mean = tail;
                continue;
            };
            let (head, tail) = p_mean.split_at(m * r);
            p_mean = tail;
            let mut p_hat = Tensor::from_vec(workspace::take_copied(head), &[m, r])?;
            orthogonalize_columns(&mut p_hat);
            let (head, tail) = out.split_at_mut(n * r);
            out = tail;
            let shape = g.shape().to_vec();
            reshape(g, &[m, n])?;
            head.copy_from_slice(matmul_tn(g, &p_hat)?.as_slice());
            reshape(g, &shape)?;
            *slot = Some(p_hat);
        }
        Ok(())
    }

    /// The end of a round: `M̂ = P̂·Q̄ᵀ` replaces the gradient, the error
    /// memory becomes `M_w − M̂` (if this worker contributed) and `Q̄` the
    /// next round's warm start. `decoded`, when given, is the list another
    /// half of the same round already decoded into — `M̂` is the same on
    /// every node, so an in-process driver computes it once.
    fn finish(
        &mut self,
        mut q_mean: &[f32],
        grads: &mut [&mut Tensor],
        contributed: bool,
        decoded: Option<&[Tensor]>,
    ) -> Result<()> {
        let (_, len) = self.payload_lens(grads);
        if q_mean.len() != len {
            return Err(length_mismatch(len, q_mean.len(), "powersgd decode"));
        }
        self.queries.resize_with(grads.len(), || None);
        self.memory.resize_with(grads.len(), || None);
        self.p_hat.resize_with(grads.len(), || None);
        let state = self.queries.iter_mut().zip(&mut self.memory).zip(&mut self.p_hat);
        for ((li, g), ((query, memory), p_hat)) in grads.iter_mut().enumerate().zip(state) {
            let Some((m, n, r)) = factor_dims(g, self.rank) else { continue };
            let (head, tail) = q_mean.split_at(n * r);
            q_mean = tail;
            let q = Tensor::from_vec(workspace::take_copied(head), &[n, r])?;
            let p_hat = p_hat.take();
            match decoded.and_then(|d| d.get(li)) {
                Some(m_hat) => {
                    // `g` is not the round's output here: it turns into the
                    // residual where it stands.
                    g.axpy(-1.0, m_hat)?;
                    let mut e = std::mem::take(&mut **g);
                    reshape(&mut e, &[m, n])?;
                    *memory = Some(e);
                }
                None => {
                    let p_hat = p_hat.ok_or(TensorError::WrongDimensions {
                        expected: 2,
                        got: 0,
                        op: "powersgd decode before phase 1",
                    })?;
                    let mut m_hat = matmul_nt(&p_hat, &q)?;
                    let shape = g.shape().to_vec();
                    reshape(g, &[m, n])?;
                    if contributed {
                        g.axpy(-1.0, &m_hat)?;
                        std::mem::swap(&mut **g, &mut m_hat);
                        *memory = Some(m_hat);
                    } else {
                        std::mem::swap(&mut **g, &mut m_hat);
                    }
                    reshape(g, &shape)?;
                }
            }
            *query = Some(q);
        }
        Ok(())
    }
}

/// The rows PowerSGD state is snapshot under, by the compressor and by a
/// half alike: `meta` = (layers, workers, rank), the shared `q.{layer}`,
/// and `m.{worker}.{layer}` for every worker in `memory`.
fn state_rows<'a>(
    rank: usize,
    n_workers: usize,
    queries: &'a [Option<Tensor>],
    memory: impl IntoIterator<Item = (usize, &'a [Option<Tensor>])>,
) -> Vec<(String, Tensor)> {
    let mut meta = Tensor::zeros(&[3]);
    meta.as_mut_slice().copy_from_slice(&[queries.len() as f32, n_workers as f32, rank as f32]);
    let mut out = vec![("meta".to_string(), meta)];
    let some = |layers: &'a [Option<Tensor>]| {
        layers.iter().enumerate().filter_map(|(li, t)| t.as_ref().map(|t| (li, t)))
    };
    out.extend(some(queries).map(|(li, q)| (format!("q.{li:04}"), q.clone())));
    for (w, layers) in memory {
        out.extend(some(layers).map(|(li, e)| (format!("m.{w:02}.{li:04}"), e.clone())));
    }
    out
}

impl WorkerCodec for PowerSgdWorker {
    fn phases(&self) -> usize {
        2
    }

    fn payload_layout(&self, phase: usize, grads: &[&Tensor]) -> PackLayout {
        let shapes = grads.iter().filter_map(|g| match (factor_dims(g, self.rank), phase) {
            (Some((m, _, r)), 0) => Some(vec![m, r]),
            (Some((_, n, r)), _) => Some(vec![n, r]),
            (None, 0) => Some(g.shape().to_vec()),
            (None, _) => None,
        });
        PackLayout::from_shapes(shapes.collect())
    }

    fn encode(
        &mut self,
        phase: usize,
        grads: &mut [&mut Tensor],
        reduced_prev: Option<&[f32]>,
        out: &mut [f32],
    ) -> Result<()> {
        let (p_len, q_len) = self.payload_lens(grads);
        match (phase, reduced_prev) {
            (0, _) if out.len() == p_len => self.encode_p(grads, out),
            (1, Some(p_mean)) if out.len() == q_len && p_mean.len() == p_len => {
                self.encode_q(grads, p_mean, out)
            }
            _ => Err(length_mismatch(
                if phase == 0 { p_len } else { q_len },
                out.len(),
                "powersgd encode",
            )),
        }
    }

    fn decode(
        &mut self,
        reduced_last: &[f32],
        grads: &mut [&mut Tensor],
        contributed: bool,
    ) -> Result<()> {
        self.finish(reduced_last, grads, contributed, None)
    }

    fn abort(&mut self) {
        self.p_hat.clear();
    }

    fn state_snapshot(&self) -> Vec<(String, Tensor)> {
        if self.queries.is_empty() {
            return Vec::new();
        }
        let mine = [(self.worker, self.memory.as_slice())];
        state_rows(self.rank, self.worker + 1, &self.queries, mine)
    }
}

impl GradCompressor for PowerSgd {
    fn name(&self) -> &'static str {
        "powersgd"
    }

    fn aggregation(&self) -> AggregationKind {
        AggregationKind::AllReduce
    }

    #[expect(
        clippy::expect_used,
        reason = "the trait's documented panic; the trainer never plays this round, PowerSGD \
                  has a worker half"
    )]
    fn round(&mut self, worker_grads: &[Vec<Tensor>]) -> (Vec<Tensor>, RoundStats) {
        self.drive_halves(worker_grads).expect("workers must agree on layer shapes")
    }

    fn worker_codec(&mut self, worker: usize) -> Box<dyn WorkerCodec> {
        Box::new(self.take_half(worker))
    }

    fn state_snapshot(&self) -> Vec<(String, Tensor)> {
        if self.queries.is_empty() && self.memory.is_empty() {
            return Vec::new();
        }
        let n_workers = self.memory.keys().next_back().map_or(0, |w| w + 1);
        let memory = self.memory.iter().map(|(&w, layers)| (w, layers.as_slice()));
        state_rows(self.rank, n_workers, &self.queries, memory)
    }

    /// Accepts this method's own snapshot and any union of its halves'
    /// (their `meta` rows differ in the worker count, which is not read:
    /// the `m.{w}.*` rows say which workers have memory).
    fn restore_state(&mut self, state: &[(String, Tensor)]) -> bool {
        if state.is_empty() {
            self.queries.clear();
            self.memory.clear();
            return true;
        }
        let Some(meta) = state.iter().find(|(n, _)| n == "meta") else {
            return false;
        };
        let &[n_layers, _, rank] = meta.1.as_slice() else {
            return false;
        };
        if rank as usize != self.rank {
            return false;
        }
        let n_layers = n_layers as usize;
        let mut queries = vec![None; n_layers];
        let mut memory: BTreeMap<usize, Vec<Option<Tensor>>> = BTreeMap::new();
        for (name, t) in state {
            if name == "meta" {
                continue;
            }
            let slot = if let Some(li) = name.strip_prefix("q.") {
                li.parse::<usize>().ok().and_then(|li| queries.get_mut(li))
            } else if let Some((w, li)) = name.strip_prefix("m.").and_then(|r| r.split_once('.')) {
                let (Ok(w), Ok(li)) = (w.parse::<usize>(), li.parse::<usize>()) else {
                    return false;
                };
                memory.entry(w).or_insert_with(|| vec![None; n_layers]).get_mut(li)
            } else {
                None
            };
            // An unknown row, or a layer the meta row does not cover.
            let Some(slot) = slot else { return false };
            *slot = Some(t.clone());
        }
        self.queries = queries;
        self.memory = memory;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_mean;
    use puffer_tensor::stats::{l2_norm, rel_error};

    #[test]
    fn full_rank_compression_is_near_exact() {
        // r >= min(m, n): one power iteration reconstructs exactly after a
        // couple of warm-started rounds.
        let mut c = PowerSgd::new(4, 1);
        let grads = vec![vec![Tensor::randn(&[4, 6], 1.0, 2)]];
        let mut err = f32::INFINITY;
        for _ in 0..3 {
            let (out, _) = c.round(&grads);
            err = rel_error(&grads[0][0], &out[0]);
        }
        assert!(err < 1e-2, "rel err {err}");
    }

    #[test]
    fn low_rank_matrix_recovered_exactly() {
        // A rank-1 gradient is exactly representable at rank 1.
        let u = Tensor::randn(&[5, 1], 1.0, 3);
        let v = Tensor::randn(&[1, 7], 1.0, 4);
        let m = matmul(&u, &v).unwrap();
        let mut c = PowerSgd::new(1, 5);
        let grads = vec![vec![m.clone()]];
        let mut out = Vec::new();
        for _ in 0..3 {
            out = c.round(&grads).0;
        }
        assert!(rel_error(&m, &out[0]) < 1e-2);
    }

    #[test]
    fn error_feedback_accumulates_residual() {
        // With aggressive rank-1 compression of a full-rank gradient, the
        // error memory must be non-empty and the sum decoded+error ≈ input.
        let mut c = PowerSgd::new(1, 6);
        let g = Tensor::randn(&[6, 6], 1.0, 7);
        let (out, _) = c.round(&[vec![g.clone()]]);
        let mem = c.memory[&0][0].as_ref().unwrap();
        assert!(l2_norm(mem) > 1e-3);
        let sum = &out[0].reshape(&[6, 6]).unwrap() + mem;
        assert!(rel_error(&g, &sum) < 1e-4);
    }

    #[test]
    fn one_d_tensors_pass_through_exact() {
        let mut c = PowerSgd::new(2, 8);
        let w1 = vec![Tensor::full(&[5], 1.0)];
        let w2 = vec![Tensor::full(&[5], 3.0)];
        let (out, _) = c.round(&[w1.clone(), w2.clone()]);
        assert_eq!(out, exact_mean(&[w1, w2]));
    }

    #[test]
    fn compression_reduces_bytes() {
        let mut c = PowerSgd::new(2, 9);
        let grads = vec![vec![Tensor::randn(&[64, 64], 1.0, 10)]];
        let (_, stats) = c.round(&grads);
        assert!(stats.bytes_per_worker < 64 * 64 * 4 / 4, "bytes {}", stats.bytes_per_worker);
        assert_eq!(c.aggregation(), AggregationKind::AllReduce);
    }

    #[test]
    fn multi_worker_mean_direction() {
        // Two workers with opposite gradients: decoded mean must be small.
        let g = Tensor::randn(&[8, 8], 1.0, 11);
        let neg = -&g;
        let mut c = PowerSgd::new(8, 12);
        let (out, _) = c.round(&[vec![g.clone()], vec![neg]]);
        assert!(l2_norm(&out[0]) < 0.1 * l2_norm(&g));
    }

    #[test]
    fn snapshot_restore_resumes_bitwise() {
        let grads: Vec<Vec<Tensor>> = (0..2)
            .map(|w| vec![Tensor::randn(&[6, 5], 1.0, 20 + w), Tensor::randn(&[5], 1.0, 30 + w)])
            .collect();
        let mut a = PowerSgd::new(2, 3);
        for _ in 0..3 {
            let _ = a.round(&grads);
        }
        let snap = a.state_snapshot();
        assert!(!snap.is_empty());
        let mut b = PowerSgd::new(2, 3);
        assert!(b.restore_state(&snap));
        // Error feedback and warm-started queries carried over: the next
        // round is bitwise identical.
        assert_eq!(a.round(&grads).0, b.round(&grads).0);
        // Wrong rank is rejected; empty state resets to fresh.
        let mut c = PowerSgd::new(3, 3);
        assert!(!c.restore_state(&snap));
        assert!(c.restore_state(&[]));
    }

    #[test]
    fn conv_shaped_gradients_work() {
        let mut c = PowerSgd::new(2, 13);
        let g = Tensor::randn(&[8, 4, 3, 3], 1.0, 14);
        let (out, _) = c.round(&[vec![g.clone()]]);
        assert_eq!(out[0].shape(), g.shape());
    }
}
