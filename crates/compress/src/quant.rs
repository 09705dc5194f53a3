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

use crate::pack::{pack, unpack, PackLayout};
use crate::{AggregationKind, GradCompressor, RoundStats};
use puffer_probe::Stopwatch;
use puffer_tensor::rng::Rng;
use puffer_tensor::Tensor;
use std::time::Duration;

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
        let mut bits = vec![0u64; values.len().div_ceil(64)];
        for (i, &v) in values.iter().enumerate() {
            let p = ((v - min) / span).clamp(0.0, 1.0);
            if rng.gen_f32() < p {
                bits[i / 64] |= 1u64 << (i % 64);
            }
        }
        QuantMessage { min, max, bits, len: values.len() }
    }

    /// Expands coordinate `i`.
    pub fn decode_at(&self, i: usize) -> f32 {
        if self.bits[i / 64] >> (i % 64) & 1 == 1 {
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

/// Stochastic binary quantization compressor.
#[derive(Debug)]
pub struct BinaryQuant {
    rng: Rng,
    layout: Option<PackLayout>,
}

impl BinaryQuant {
    /// Creates the compressor.
    pub fn new(seed: u64) -> Self {
        BinaryQuant { rng: Rng::seed_from_u64(seed), layout: None }
    }
}

impl GradCompressor for BinaryQuant {
    fn name(&self) -> &'static str {
        "binary-quant"
    }

    fn aggregation(&self) -> AggregationKind {
        AggregationKind::AllGather
    }

    fn round(&mut self, worker_grads: &[Vec<Tensor>]) -> (Vec<Tensor>, RoundStats) {
        let n_workers = worker_grads.len();
        let mut encode_time = Duration::ZERO;
        let mut msgs = Vec::with_capacity(n_workers);
        let mut total_len = 0;
        for grads in worker_grads {
            let t0 = Stopwatch::start();
            let (flat, layout) = pack(grads);
            total_len = layout.total_len();
            self.layout = Some(layout);
            msgs.push(QuantMessage::encode(flat.as_slice(), &mut self.rng));
            encode_time += t0.elapsed();
        }
        let bytes = msgs[0].bytes();
        // Per-node encode: each node only quantizes its own gradient.
        encode_time /= n_workers.max(1) as u32;

        // Decode: expand every worker's message and average — O(workers · n),
        // the dominant cost in the paper's appendix-F measurement.
        let t0 = Stopwatch::start();
        let mut dense = Tensor::zeros(&[total_len]);
        for msg in &msgs {
            for i in 0..total_len {
                dense.as_mut_slice()[i] += msg.decode_at(i);
            }
        }
        dense.scale(1.0 / n_workers as f32);
        let out = unpack(&dense, self.layout.as_ref().expect("layout set"));
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
