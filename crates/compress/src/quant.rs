//! Stochastic binary quantization (Suresh et al. 2016) — the appendix-F
//! case study.
//!
//! Each worker sends, per layer, `(min, max)` plus **one stochastic bit per
//! coordinate**: coordinate `x` becomes `max` with probability
//! `(x − min)/(max − min)` and `min` otherwise — an unbiased estimator.
//! The bit-stream is not summable, so aggregation is allgather and every
//! worker must expand and average `n_workers` quantized gradients — the
//! decompression cost the paper measures at 118.4 s/epoch on 16 nodes
//! (Figure 7).

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
use crate::{
    length_mismatch, messages, total_len, u64_of, words_of, AggregationKind, GradCompressor,
    WorkerCodec,
};
use puffer_tensor::rng::Rng;
use puffer_tensor::{Result, Tensor};
use std::collections::BTreeMap;

/// One worker's quantized flat gradient.
#[derive(Debug, Clone)]
pub struct QuantMessage {
    min: f32,
    max: f32,
    bits: Vec<u64>,
    len: usize,
}

impl QuantMessage {
    /// Stochastically quantizes a flat buffer.
    pub fn encode(values: &[f32], rng: &mut Rng) -> Self {
        let min = values.iter().copied().fold(f32::INFINITY, f32::min);
        let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let span = (max - min).max(f32::MIN_POSITIVE);
        let mut word = |chunk: &[f32]| {
            chunk.iter().enumerate().fold(0u64, |w, (j, &v)| {
                let p = ((v - min) / span).clamp(0.0, 1.0);
                w | u64::from(rng.gen_f32() < p) << j
            })
        };
        QuantMessage {
            min,
            max,
            bits: values.chunks(64).map(&mut word).collect(),
            len: values.len(),
        }
    }

    /// The message of `len` coordinates that travelled as `words`
    /// ([`QuantMessage::write_words`]).
    fn from_words(words: &[f32], len: usize) -> Option<Self> {
        let (&[min, max], bits) = words.split_first_chunk()?;
        Some(QuantMessage { min, max, bits: bits.chunks(2).map(u64_of).collect(), len })
    }

    /// Writes the message into a payload: the two levels, then two words
    /// per 64 coordinates.
    fn write_words(&self, out: &mut [f32]) -> Result<()> {
        let Some((levels, bits)) =
            out.split_first_chunk_mut().filter(|(_, b)| b.len() == 2 * self.bits.len())
        else {
            return Err(length_mismatch(self.bytes() / 4, out.len(), "binary-quant encode"));
        };
        *levels = [self.min, self.max];
        for (pair, &w) in bits.chunks_exact_mut(2).zip(&self.bits) {
            pair.copy_from_slice(&words_of(w));
        }
        Ok(())
    }

    /// Adds the expanded message onto `dense`, coordinate by coordinate.
    fn add_to(&self, dense: &mut [f32]) {
        for (chunk, word) in dense.chunks_mut(64).zip(&self.bits) {
            for (j, d) in chunk.iter_mut().enumerate() {
                *d += if word >> j & 1 == 1 { self.max } else { self.min };
            }
        }
    }

    /// Expands coordinate `i`.
    pub fn decode_at(&self, i: usize) -> f32 {
        if self.bits.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1) {
            self.max
        } else {
            self.min
        }
    }

    /// Wire size in bytes (two f32 levels + 1 bit/coordinate).
    pub fn bytes(&self) -> usize {
        8 + self.bits.len() * 8
    }

    /// Number of coordinates.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the message is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Stochastic binary quantization compressor: the seed, and where each
/// worker's random stream stands between rounds.
#[derive(Debug)]
pub struct BinaryQuant {
    seed: u64,
    streams: BTreeMap<usize, Rng>,
}

impl BinaryQuant {
    /// Creates the compressor.
    pub fn new(seed: u64) -> Self {
        BinaryQuant { seed, streams: BTreeMap::new() }
    }
}

/// Snapshot row of worker `worker`'s stream: its four state words as eight
/// bit-pattern words.
fn stream_row(worker: usize, rng: &Rng) -> (String, Tensor) {
    let mut t = Tensor::zeros(&[8]);
    for (pair, w) in t.as_mut_slice().chunks_exact_mut(2).zip(rng.state()) {
        pair.copy_from_slice(&words_of(w));
    }
    (format!("rng.{worker:02}"), t)
}

impl GradCompressor for BinaryQuant {
    fn name(&self) -> &'static str {
        "binary-quant"
    }

    fn aggregation(&self) -> AggregationKind {
        AggregationKind::AllGather
    }

    /// Every worker draws from a stream of its own, so that a node can
    /// quantize without knowing what the others drew; worker 0's is the
    /// seed's own stream.
    fn worker_codec(&mut self, worker: usize) -> Box<dyn WorkerCodec> {
        let rng = self.streams.remove(&worker).unwrap_or_else(|| {
            Rng::seed_from_u64(self.seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        });
        Box::new(BinaryQuantWorker { worker, drawn: rng.clone(), rng, flat: Tensor::default() })
    }

    fn state_snapshot(&self) -> Vec<(String, Tensor)> {
        self.streams.iter().map(|(&w, rng)| stream_row(w, rng)).collect()
    }

    fn restore_state(&mut self, state: &[(String, Tensor)]) -> bool {
        let row = |(name, t): &(String, Tensor)| {
            let worker = name.strip_prefix("rng.")?.parse::<usize>().ok()?;
            let words: [u64; 4] =
                t.as_slice().chunks(2).map(u64_of).collect::<Vec<_>>().try_into().ok()?;
            Some((worker, Rng::from_state(words)))
        };
        let Some(streams) = state.iter().map(row).collect() else { return false };
        self.streams = streams;
        true
    }
}

/// One node's half of binary quantization: it quantizes its own gradient
/// with its own random stream and expands and averages everybody's
/// messages itself — the `O(workers · n)` decode of the paper's appendix F.
#[derive(Debug)]
pub struct BinaryQuantWorker {
    worker: usize,
    rng: Rng,
    /// Where the stream stands after the round in flight, until `decode`.
    drawn: Rng,
    /// The packed gradient in `encode`, the dense mean in `decode`.
    flat: Tensor,
}

impl BinaryQuantWorker {
    /// `flat`, as long as `grads` packed; and the payload words of a message.
    fn sized_for(&mut self, grads: &[&mut Tensor]) -> (&mut Tensor, usize) {
        let total = total_len(grads);
        if self.flat.len() != total {
            self.flat = Tensor::zeros(&[total]);
        }
        (&mut self.flat, 2 + 2 * total.div_ceil(64))
    }
}

impl WorkerCodec for BinaryQuantWorker {
    fn payload_layout(&self, _phase: usize, grads: &[&Tensor]) -> PackLayout {
        PackLayout::from_shapes(vec![vec![2 + 2 * total_len(grads).div_ceil(64)]])
    }

    fn encode(
        &mut self,
        _phase: usize,
        grads: &mut [&mut Tensor],
        _reduced_prev: Option<&[f32]>,
        out: &mut [f32],
    ) -> Result<()> {
        self.drawn = self.rng.clone();
        let (flat, _) = self.sized_for(grads);
        pack_into(grads.iter().map(|g| &**g), flat.as_mut_slice());
        QuantMessage::encode(self.flat.as_slice(), &mut self.drawn).write_words(out)
    }

    fn decode(
        &mut self,
        reduced_last: &[f32],
        grads: &mut [&mut Tensor],
        contributed: bool,
    ) -> Result<()> {
        let (dense, words) = self.sized_for(grads);
        let total = dense.len();
        let msgs = messages(reduced_last, words, "binary-quant decode")?;
        let n_workers = msgs.len();
        // Expand every worker's message and average.
        dense.as_mut_slice().fill(0.0);
        for msg in msgs.filter_map(|m| QuantMessage::from_words(m, total)) {
            msg.add_to(dense.as_mut_slice());
        }
        dense.scale(1.0 / n_workers as f32);
        unpack_into(dense.as_slice(), grads, "binary-quant decode")?;
        if contributed {
            self.rng = self.drawn.clone();
        }
        Ok(())
    }

    fn state_snapshot(&self) -> Vec<(String, Tensor)> {
        vec![stream_row(self.worker, &self.rng)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_is_unbiased() {
        let mut rng = Rng::seed_from_u64(1);
        let vals = vec![0.25f32; 4096];
        // min = max = 0.25 → degenerate span; use a spread buffer instead.
        let mut spread = vals.clone();
        spread[0] = 0.0;
        spread[1] = 1.0;
        let mut acc = vec![0.0f64; spread.len()];
        let trials = 600;
        for _ in 0..trials {
            let msg = QuantMessage::encode(&spread, &mut rng);
            for (i, a) in acc.iter_mut().enumerate() {
                *a += msg.decode_at(i) as f64;
            }
        }
        for (i, a) in acc.iter().enumerate().skip(2).take(50) {
            let mean = a / trials as f64;
            assert!((mean - 0.25).abs() < 0.06, "coord {i}: mean {mean}");
        }
    }

    #[test]
    fn decode_returns_levels_only() {
        let mut rng = Rng::seed_from_u64(2);
        let vals = [-1.0f32, -0.5, 0.0, 0.5, 1.0];
        let msg = QuantMessage::encode(&vals, &mut rng);
        for i in 0..5 {
            let d = msg.decode_at(i);
            assert!(d == -1.0 || d == 1.0, "decoded {d}");
        }
        // Extremes are deterministic.
        assert_eq!(msg.decode_at(0), -1.0);
        assert_eq!(msg.decode_at(4), 1.0);
    }

    #[test]
    fn message_is_one_bit_per_coordinate() {
        let mut rng = Rng::seed_from_u64(3);
        let vals = vec![0.5f32; 1024];
        let msg = QuantMessage::encode(&vals, &mut rng);
        assert_eq!(msg.bytes(), 8 + 1024 / 64 * 8);
        assert_eq!(msg.len(), 1024);
    }

    #[test]
    fn round_produces_bounded_output() {
        let mut c = BinaryQuant::new(4);
        let g1 = vec![Tensor::rand_uniform(&[64], -1.0, 1.0, 5)];
        let g2 = vec![Tensor::rand_uniform(&[64], -1.0, 1.0, 6)];
        let (out, stats) = c.round(&[g1, g2]);
        assert!(out[0].as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
        assert!(stats.bytes_per_worker < 64 * 4);
        assert_eq!(c.aggregation(), AggregationKind::AllGather);
    }

    #[test]
    fn constant_buffer_handled() {
        // Degenerate span (min == max) must not divide by zero.
        let mut c = BinaryQuant::new(7);
        let g = vec![Tensor::full(&[8], 0.3)];
        let (out, _) = c.round(&[g]);
        assert!(out[0].as_slice().iter().all(|v| v.is_finite()));
    }
}
