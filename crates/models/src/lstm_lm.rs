//! The paper's WikiText-2 model: a tied-embedding stacked LSTM language
//! model (appendix Table 12), with vanilla and per-gate low-rank variants
//! plus the SVD warm-start conversion.

use puffer_nn::embedding::Embedding;
use puffer_nn::lstm::{GateRank, LstmLayer, MatOp};
use puffer_nn::param::Param;
use puffer_nn::{NnError, Result};
use puffer_tensor::rng::Rng;
use puffer_tensor::svd::truncated_svd_seeded;
use puffer_tensor::Tensor;

/// Configuration of the LSTM language model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LstmLmConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding dimension = hidden dimension (required for weight tying).
    pub dim: usize,
    /// Number of stacked LSTM layers (the paper uses 2).
    pub layers: usize,
    /// Gate rank (full or factorized).
    pub rank: GateRank,
    /// Dropout probability between layers (the paper uses 0.65 at full
    /// scale; CPU-scale runs typically use less).
    pub dropout: f32,
    /// RNG seed.
    pub seed: u64,
}

impl LstmLmConfig {
    /// A CPU-scale default mirroring the paper's shape (2 tied layers).
    pub fn small(vocab: usize, dim: usize, seed: u64) -> Self {
        LstmLmConfig { vocab, dim, layers: 2, rank: GateRank::Full, dropout: 0.0, seed }
    }
}

/// Tied-embedding stacked LSTM language model.
pub struct LstmLm {
    config: LstmLmConfig,
    embedding: Embedding,
    lstms: Vec<LstmLayer>,
    decoder_bias: Param,
    dropout_rng: Rng,
    cache: Option<FwdCache>,
}

struct FwdCache {
    tokens_flat: Vec<usize>,
    steps: usize,
    batch: usize,
    dropout_masks: Vec<Vec<Vec<f32>>>, // [layer][step] masks (empty when p = 0 or eval)
}

impl LstmLm {
    /// Builds the model.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] on zero dimensions or layer count.
    pub fn new(config: LstmLmConfig) -> Result<Self> {
        if config.layers == 0 {
            return Err(NnError::BadConfig { layer: "LstmLm", reason: "zero layers".into() });
        }
        let embedding = Embedding::new(config.vocab, config.dim, config.seed)?;
        let mut lstms = Vec::with_capacity(config.layers);
        for l in 0..config.layers {
            lstms.push(LstmLayer::new(
                config.dim,
                config.dim,
                config.rank,
                config.seed.wrapping_add(1000 * (l as u64 + 1)),
            )?);
        }
        Ok(LstmLm {
            config,
            embedding,
            lstms,
            decoder_bias: Param::new_no_decay("decoder.bias", Tensor::zeros(&[config.vocab])),
            dropout_rng: Rng::seed_from_u64(config.seed ^ 0xD0),
            cache: None,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &LstmLmConfig {
        &self.config
    }

    /// Immutable parameter views (embedding, LSTMs, decoder bias).
    pub fn params(&self) -> Vec<&Param> {
        let mut v = vec![self.embedding.param()];
        v.extend(self.lstms.iter().flat_map(|l| l.params()));
        v.push(&self.decoder_bias);
        v
    }

    /// Mutable parameter views, same order as [`LstmLm::params`].
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = vec![self.embedding.param_mut()];
        v.extend(self.lstms.iter_mut().flat_map(|l| l.params_mut()));
        v.push(&mut self.decoder_bias);
        v
    }

    /// Total trainable scalars (the tied embedding counted once).
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Zeroes all gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Forward pass over a BPTT window: `inputs[t]` is the token row at
    /// step `t` (length = batch). Returns logits `[steps·batch, vocab]`
    /// in step-major order. Set `train` for dropout and backward caching.
    ///
    /// # Panics
    ///
    /// Panics on ragged input rows.
    pub fn forward(&mut self, inputs: &[Vec<usize>], train: bool) -> Tensor {
        let steps = inputs.len();
        let batch = if steps == 0 { 0 } else { inputs[0].len() };
        let tokens_flat: Vec<usize> = inputs
            .iter()
            .flat_map(|row| {
                assert_eq!(row.len(), batch, "ragged BPTT batch");
                row.iter().copied()
            })
            .collect();
        let emb = self.embedding.forward(&tokens_flat); // [steps·batch, dim]
        let dim = self.config.dim;
        let mut seq: Vec<Tensor> = (0..steps)
            .map(|t| {
                let mut s = Tensor::zeros(&[batch, dim]);
                s.as_mut_slice()
                    .copy_from_slice(&emb.as_slice()[t * batch * dim..(t + 1) * batch * dim]);
                s
            })
            .collect();
        let mut dropout_masks = Vec::with_capacity(self.lstms.len());
        let p = self.config.dropout;
        for lstm in &mut self.lstms {
            seq = lstm.forward_seq(&seq);
            let mut layer_masks = Vec::new();
            if train && p > 0.0 {
                let keep = 1.0 - p;
                for s in &mut seq {
                    let mask: Vec<f32> = (0..s.len())
                        .map(|_| if self.dropout_rng.gen_f32() < keep { 1.0 / keep } else { 0.0 })
                        .collect();
                    for (v, m) in s.as_mut_slice().iter_mut().zip(&mask) {
                        *v *= m;
                    }
                    layer_masks.push(mask);
                }
            }
            dropout_masks.push(layer_masks);
        }
        // Concatenate hidden states and project through the tied embedding.
        let mut hidden = Tensor::zeros(&[steps * batch, dim]);
        for (t, s) in seq.iter().enumerate() {
            hidden.as_mut_slice()[t * batch * dim..(t + 1) * batch * dim]
                .copy_from_slice(s.as_slice());
        }
        let mut logits = self.embedding.project_logits(&hidden);
        puffer_nn::linear::add_bias_rows(&mut logits, &self.decoder_bias.value);
        if train {
            self.cache = Some(FwdCache { tokens_flat, steps, batch, dropout_masks });
        }
        logits
    }

    /// Backward pass given `∂L/∂logits` from
    /// [`puffer_nn::loss::softmax_cross_entropy`]; accumulates all
    /// parameter gradients (tied embedding receives both lookup and
    /// projection gradients).
    ///
    /// # Panics
    ///
    /// Panics if called before a training forward.
    pub fn backward(&mut self, dlogits: &Tensor) {
        let cache = self.cache.take().expect("backward before training forward");
        let (steps, batch, dim) = (cache.steps, cache.batch, self.config.dim);
        puffer_nn::linear::accumulate_bias_grad(&mut self.decoder_bias.grad, dlogits);
        let dhidden = self.embedding.backward_projection(dlogits); // [steps·batch, dim]
        let mut dseq: Vec<Tensor> = (0..steps)
            .map(|t| {
                let mut s = Tensor::zeros(&[batch, dim]);
                s.as_mut_slice()
                    .copy_from_slice(&dhidden.as_slice()[t * batch * dim..(t + 1) * batch * dim]);
                s
            })
            .collect();
        for (li, lstm) in self.lstms.iter_mut().enumerate().rev() {
            let masks = &cache.dropout_masks[li];
            if !masks.is_empty() {
                for (s, mask) in dseq.iter_mut().zip(masks) {
                    for (v, m) in s.as_mut_slice().iter_mut().zip(mask) {
                        *v *= m;
                    }
                }
            }
            dseq = lstm.backward_seq(&dseq);
        }
        // Scatter embedding-lookup gradients.
        let mut demb = Tensor::zeros(&[steps * batch, dim]);
        for (t, s) in dseq.iter().enumerate() {
            demb.as_mut_slice()[t * batch * dim..(t + 1) * batch * dim]
                .copy_from_slice(s.as_slice());
        }
        self.embedding.backward_for(&cache.tokens_flat, &demb);
    }

    /// Converts to the low-rank variant at `rank`, optionally SVD
    /// warm-started from the current weights. Embedding and decoder bias
    /// carry over unchanged (the paper leaves the tied embedding as is).
    ///
    /// # Errors
    ///
    /// Propagates factorization errors.
    pub fn to_low_rank(&self, rank: usize, warm_start: bool) -> Result<Self> {
        let mut config = self.config;
        config.rank = GateRank::LowRank(rank);
        let mut model = LstmLm::new(config)?;
        model.embedding.param_mut().value = self.embedding.param().value.clone();
        model.decoder_bias.value = self.decoder_bias.value.clone();
        if warm_start {
            for (li, lstm) in self.lstms.iter().enumerate() {
                for gi in 0..4 {
                    let (wx, wh, bias) = lstm.gate_weights(gi);
                    let fx = truncated_svd_seeded(&wx, rank, 0x5EED + gi as u64)?;
                    let (ux, vx) = fx.split_balanced();
                    let fh = truncated_svd_seeded(&wh, rank, 0x5EED + 10 + gi as u64)?;
                    let (uh, vh) = fh.split_balanced();
                    model.lstms[li].set_gate(
                        gi,
                        MatOp::from_factors("wx", ux, vx),
                        MatOp::from_factors("wh", uh, vh),
                        bias,
                    );
                }
            }
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_nn::loss::softmax_cross_entropy;

    fn tiny() -> LstmLm {
        LstmLm::new(LstmLmConfig::small(20, 8, 1)).unwrap()
    }

    #[test]
    fn forward_shapes() {
        let mut lm = tiny();
        let inputs = vec![vec![1, 2, 3], vec![4, 5, 6]]; // 2 steps, batch 3
        let logits = lm.forward(&inputs, true);
        assert_eq!(logits.shape(), &[6, 20]);
    }

    #[test]
    fn tied_embedding_counted_once() {
        let lm = tiny();
        // vocab*dim (embedding) + 2 LSTM layers + vocab (decoder bias)
        let lstm_params = 2 * (4 * (8 * 8 + 8 * 8) + 4 * 8);
        assert_eq!(lm.param_count(), 20 * 8 + lstm_params + 20);
    }

    #[test]
    fn training_reduces_loss_on_repetitive_stream() {
        // A deterministic cycling stream: the model must learn next-token.
        let mut lm = tiny();
        let mut opt = puffer_nn::optim::Sgd::new(0.5, 0.9, 0.0);
        let inputs: Vec<Vec<usize>> = (0..6).map(|t| vec![t % 5; 2]).collect();
        let targets: Vec<usize> =
            inputs.iter().flat_map(|r| r.iter().map(|&t| (t + 1) % 5)).collect();
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            lm.zero_grad();
            let logits = lm.forward(&inputs, true);
            let (loss, dl) = softmax_cross_entropy(&logits, &targets, 0.0).unwrap();
            lm.backward(&dl);
            puffer_nn::optim::clip_grad_norm(&mut lm.params_mut(), 1.0);
            opt.step(&mut lm.params_mut());
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < first.unwrap() * 0.5, "loss {} -> {last}", first.unwrap());
    }

    #[test]
    fn low_rank_conversion_shapes_and_warm_start() {
        let lm = tiny();
        let lr = lm.to_low_rank(2, true).unwrap();
        assert!(lr.param_count() < lm.param_count());
        // Warm-started low-rank model produces similar logits.
        let mut lm = lm;
        let mut warm = lm.to_low_rank(7, true).unwrap();
        let mut cold = lm.to_low_rank(7, false).unwrap();
        let inputs = vec![vec![1, 2], vec![3, 4]];
        let y = lm.forward(&inputs, false);
        let yw = warm.forward(&inputs, false);
        let yc = cold.forward(&inputs, false);
        let ew = puffer_tensor::stats::rel_error(&y, &yw);
        let ec = puffer_tensor::stats::rel_error(&y, &yc);
        assert!(ew < ec, "warm {ew} vs cold {ec}");
    }

    #[test]
    fn gradients_reach_tied_embedding_from_both_paths() {
        let mut lm = tiny();
        lm.zero_grad();
        let inputs = vec![vec![0, 1]];
        let logits = lm.forward(&inputs, true);
        let (_, dl) = softmax_cross_entropy(&logits, &[1, 2], 0.0).unwrap();
        lm.backward(&dl);
        let g = &lm.params()[0].grad;
        // Projection grads touch every vocab row; lookup grads add to rows 0/1.
        let nonzero_rows =
            (0..20).filter(|&r| g.as_slice()[r * 8..(r + 1) * 8].iter().any(|&x| x != 0.0)).count();
        assert!(nonzero_rows >= 19, "rows with grad: {nonzero_rows}");
    }

    #[test]
    fn dropout_masks_consistent_between_passes() {
        let mut cfg = LstmLmConfig::small(10, 4, 3);
        cfg.dropout = 0.5;
        let mut lm = LstmLm::new(cfg).unwrap();
        let inputs = vec![vec![1, 2], vec![3, 4]];
        let logits = lm.forward(&inputs, true);
        let (_, dl) = softmax_cross_entropy(&logits, &[1, 2, 3, 4], 0.0).unwrap();
        lm.backward(&dl); // must not panic; masks reused
    }

    #[test]
    fn constructor_validates() {
        let mut cfg = LstmLmConfig::small(10, 4, 1);
        cfg.layers = 0;
        assert!(LstmLm::new(cfg).is_err());
    }
}
