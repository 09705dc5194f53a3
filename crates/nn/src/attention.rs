//! Transformer building blocks: multi-head attention and position-wise FFN,
//! each with low-rank factorized variants (paper §2.4).
//!
//! The paper factorizes all learnable matrices in the attention
//! (`W^Q, W^K, W^V, W^O`) and FFN (`W_1, W_2`) of every encoder/decoder
//! layer except the first of each stack; biases, LayerNorm, and positional
//! encodings stay dense (they are vectors).

use crate::lstm::MatOp;
use crate::param::Param;
use crate::{NnError, Result};
use puffer_tensor::attention::{self, Heads};
use puffer_tensor::Tensor;

/// Rank configuration for a Transformer block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockRank {
    /// Dense projections.
    Full,
    /// All projection matrices factorized at this rank.
    LowRank(usize),
}

fn make_op(name: &str, out_dim: usize, in_dim: usize, rank: BlockRank, seed: u64) -> MatOp {
    let std = (2.0 / (in_dim + out_dim) as f32).sqrt();
    match rank {
        BlockRank::Full => MatOp::dense(name, out_dim, in_dim, std, seed),
        BlockRank::LowRank(r) => MatOp::low_rank(name, out_dim, in_dim, r, std, seed),
    }
}

/// Multi-head scaled dot-product attention with `p` heads over model
/// dimension `d_model = p·d`.
#[derive(Debug)]
pub struct MultiHeadAttention {
    wq: MatOp,
    wk: MatOp,
    wv: MatOp,
    wo: MatOp,
    heads: usize,
    d_model: usize,
    cache: Option<AttnCache>,
}

#[derive(Debug)]
struct AttnCache {
    q_in: Tensor,
    kv_in: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    attn: Tensor, // [B, p, Tq, Tk] softmax weights
    z: Tensor,    // [B·Tq, d_model] concatenated head outputs
    shape: Heads,
}

impl MultiHeadAttention {
    /// Creates an attention block.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `d_model` is not divisible by
    /// `heads`, any dimension is zero, or a requested rank exceeds
    /// `d_model`.
    pub fn new(d_model: usize, heads: usize, rank: BlockRank, seed: u64) -> Result<Self> {
        if heads == 0 || d_model == 0 || !d_model.is_multiple_of(heads) {
            return Err(NnError::BadConfig {
                layer: "MultiHeadAttention",
                reason: format!("d_model {d_model} must be a nonzero multiple of heads {heads}"),
            });
        }
        if let BlockRank::LowRank(r) = rank {
            if r == 0 || r > d_model {
                return Err(NnError::BadConfig {
                    layer: "MultiHeadAttention",
                    reason: format!("rank {r} out of range for d_model {d_model}"),
                });
            }
        }
        Ok(MultiHeadAttention {
            wq: make_op("attention.wq", d_model, d_model, rank, seed),
            wk: make_op("attention.wk", d_model, d_model, rank, seed.wrapping_add(10)),
            wv: make_op("attention.wv", d_model, d_model, rank, seed.wrapping_add(20)),
            wo: make_op("attention.wo", d_model, d_model, rank, seed.wrapping_add(30)),
            heads,
            d_model,
            cache: None,
        })
    }

    /// Replaces the four projections (warm-start surgery).
    pub fn set_projections(&mut self, wq: MatOp, wk: MatOp, wv: MatOp, wo: MatOp) {
        self.wq = wq;
        self.wk = wk;
        self.wv = wv;
        self.wo = wo;
    }

    /// The four projections as dense effective matrices `(Wq, Wk, Wv, Wo)`.
    pub fn projections(&self) -> (Tensor, Tensor, Tensor, Tensor) {
        (self.wq.effective(), self.wk.effective(), self.wv.effective(), self.wo.effective())
    }

    /// Attention over `query: [B, Tq, d_model]` and
    /// `key_value: [B, Tk, d_model]` (pass the same tensor for
    /// self-attention). `causal` masks position `j > i` (decoder
    /// self-attention).
    ///
    /// # Panics
    ///
    /// Panics on input shape mismatch.
    pub fn forward(&mut self, query: &Tensor, key_value: &Tensor, causal: bool) -> Tensor {
        assert_eq!(query.ndim(), 3, "attention expects [B, T, d_model]");
        assert_eq!(key_value.ndim(), 3, "attention expects [B, T, d_model]");
        let (b, tq, dm) = (query.shape()[0], query.shape()[1], query.shape()[2]);
        let tk = key_value.shape()[1];
        assert_eq!(dm, self.d_model, "attention d_model mismatch");
        assert_eq!(key_value.shape()[0], b, "attention batch mismatch");
        assert!(!causal || tq == tk, "causal mask requires square attention");

        let q_in = query.reshape(&[b * tq, dm]).expect("flatten");
        let kv_in = key_value.reshape(&[b * tk, dm]).expect("flatten");
        let q = self.wq.apply(&q_in);
        let k = self.wk.apply(&kv_in);
        let v = self.wv.apply(&kv_in);

        let shape = Heads { batch: b, heads: self.heads, tq, tk };
        let (attn, z) = attention::forward(&q, &k, &v, shape, causal);
        let out = self.wo.apply(&z);
        self.cache = Some(AttnCache { q_in, kv_in, q, k, v, attn, z, shape });
        Tensor::from_vec(out.into_vec(), &[b, tq, dm]).expect("unflatten")
    }

    /// Backward pass: accumulates projection gradients and returns
    /// `(∂L/∂query, ∂L/∂key_value)`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`MultiHeadAttention::forward`].
    pub fn backward(&mut self, grad_output: &Tensor) -> (Tensor, Tensor) {
        let cache = self.cache.take().expect("backward before forward");
        let Heads { batch: b, tq, tk, .. } = cache.shape;
        let dm = self.d_model;
        assert_eq!(grad_output.shape(), &[b, tq, dm], "attention gradient shape mismatch");
        let dout = grad_output.reshape(&[b * tq, dm]).expect("flatten");
        let dz = self.wo.backward(&cache.z, &dout);

        let (dq, dk, dv) =
            attention::backward(&dz, &cache.attn, &cache.q, &cache.k, &cache.v, cache.shape);
        let dq_in = self.wq.backward(&cache.q_in, &dq);
        let mut dkv_in = self.wk.backward(&cache.kv_in, &dk);
        dkv_in.axpy(1.0, &self.wv.backward(&cache.kv_in, &dv)).expect("shape");
        (
            Tensor::from_vec(dq_in.into_vec(), &[b, tq, dm]).expect("unflatten"),
            Tensor::from_vec(dkv_in.into_vec(), &[b, tk, dm]).expect("unflatten"),
        )
    }

    /// Immutable parameter views (`wq, wk, wv, wo` order).
    pub fn params(&self) -> Vec<&Param> {
        let mut v = self.wq.params();
        v.extend(self.wk.params());
        v.extend(self.wv.params());
        v.extend(self.wo.params());
        v
    }

    /// Mutable parameter views, same order as
    /// [`MultiHeadAttention::params`].
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = self.wq.params_mut();
        v.extend(self.wk.params_mut());
        v.extend(self.wv.params_mut());
        v.extend(self.wo.params_mut());
        v
    }
}

/// Position-wise feed-forward network
/// `FFN(x) = max(0, x·W₁ᵀ + b₁)·W₂ᵀ + b₂` with hidden size `4·d_model`.
#[derive(Debug)]
pub struct FeedForward {
    w1: MatOp,
    w2: MatOp,
    b1: Param,
    b2: Param,
    d_model: usize,
    cache: Option<(Tensor, Tensor)>, // (flat input, post-ReLU hidden)
}

impl FeedForward {
    /// Creates an FFN block with hidden dimension `4·d_model`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] on a zero dimension or excessive rank.
    pub fn new(d_model: usize, rank: BlockRank, seed: u64) -> Result<Self> {
        if d_model == 0 {
            return Err(NnError::BadConfig { layer: "FeedForward", reason: "zero d_model".into() });
        }
        if let BlockRank::LowRank(r) = rank {
            if r == 0 || r > d_model {
                return Err(NnError::BadConfig {
                    layer: "FeedForward",
                    reason: format!("rank {r} out of range for d_model {d_model}"),
                });
            }
        }
        let hidden = 4 * d_model;
        Ok(FeedForward {
            w1: make_op("ffn.layer1", hidden, d_model, rank, seed),
            w2: make_op("ffn.layer2", d_model, hidden, rank, seed.wrapping_add(40)),
            b1: Param::new_no_decay("ffn.bias1", Tensor::zeros(&[hidden])),
            b2: Param::new_no_decay("ffn.bias2", Tensor::zeros(&[d_model])),
            d_model,
            cache: None,
        })
    }

    /// Replaces both projections (warm-start surgery), keeping biases.
    pub fn set_projections(&mut self, w1: MatOp, w2: MatOp) {
        self.w1 = w1;
        self.w2 = w2;
    }

    /// Dense effective `(W₁, W₂)`.
    pub fn projections(&self) -> (Tensor, Tensor) {
        (self.w1.effective(), self.w2.effective())
    }

    /// Applies the FFN to `[B, T, d_model]`.
    ///
    /// # Panics
    ///
    /// Panics on input shape mismatch.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let s = input.shape().to_vec();
        let dm = s[s.len() - 1];
        assert_eq!(dm, self.d_model, "FFN d_model mismatch");
        let rows = input.len() / dm;
        let flat = input.reshape(&[rows, dm]).expect("flatten");
        let mut h = self.w1.apply(&flat);
        crate::linear::add_bias_rows(&mut h, &self.b1.value);
        h.map_inplace(|x| x.max(0.0));
        let mut out = self.w2.apply(&h);
        crate::linear::add_bias_rows(&mut out, &self.b2.value);
        self.cache = Some((flat, h));
        Tensor::from_vec(out.into_vec(), &s).expect("unflatten")
    }

    /// Backward pass: accumulates gradients, returns `∂L/∂input`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`FeedForward::forward`].
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (flat, h) = self.cache.take().expect("backward before forward");
        let s = grad_output.shape().to_vec();
        let dm = self.d_model;
        let rows = grad_output.len() / dm;
        let dout = grad_output.reshape(&[rows, dm]).expect("flatten");
        crate::linear::accumulate_bias_grad(&mut self.b2.grad, &dout);
        let mut dh = self.w2.backward(&h, &dout);
        // ReLU mask from cached hidden.
        for (g, &hv) in dh.as_mut_slice().iter_mut().zip(h.as_slice()) {
            if hv <= 0.0 {
                *g = 0.0;
            }
        }
        crate::linear::accumulate_bias_grad(&mut self.b1.grad, &dh);
        let din = self.w1.backward(&flat, &dh);
        Tensor::from_vec(din.into_vec(), &s).expect("unflatten")
    }

    /// Immutable parameter views (`w1, b1, w2, b2` order).
    pub fn params(&self) -> Vec<&Param> {
        let mut v = self.w1.params();
        v.push(&self.b1);
        v.extend(self.w2.params());
        v.push(&self.b2);
        v
    }

    /// Mutable parameter views, same order as [`FeedForward::params`].
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = self.w1.params_mut();
        v.push(&mut self.b1);
        v.extend(self.w2.params_mut());
        v.push(&mut self.b2);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_tensor::stats::rel_error;

    #[test]
    fn attention_shapes_self_and_cross() {
        let mut attn = MultiHeadAttention::new(8, 2, BlockRank::Full, 1).unwrap();
        let x = Tensor::randn(&[2, 3, 8], 1.0, 2);
        let y = attn.forward(&x, &x, false);
        assert_eq!(y.shape(), &[2, 3, 8]);
        let kv = Tensor::randn(&[2, 5, 8], 1.0, 3);
        let y = attn.forward(&x, &kv, false);
        assert_eq!(y.shape(), &[2, 3, 8]);
        let (dq, dkv) = attn.backward(&Tensor::ones(&[2, 3, 8]));
        assert_eq!(dq.shape(), &[2, 3, 8]);
        assert_eq!(dkv.shape(), &[2, 5, 8]);
    }

    #[test]
    fn causal_mask_blocks_future() {
        let mut attn = MultiHeadAttention::new(4, 1, BlockRank::Full, 2).unwrap();
        let mut x = Tensor::randn(&[1, 3, 4], 1.0, 3);
        let y1 = attn.forward(&x, &x, true);
        // Perturbing the last token must not change the first output token.
        for i in 0..4 {
            x.as_mut_slice()[2 * 4 + i] += 10.0;
        }
        let y2 = attn.forward(&x, &x, true);
        let first1 = &y1.as_slice()[..4];
        let first2 = &y2.as_slice()[..4];
        for (a, b) in first1.iter().zip(first2) {
            assert!((a - b).abs() < 1e-6, "causal leak: {a} vs {b}");
        }
    }

    #[test]
    fn attention_gradcheck_query() {
        let mut attn = MultiHeadAttention::new(4, 2, BlockRank::Full, 4).unwrap();
        let q = Tensor::randn(&[1, 2, 4], 0.7, 5);
        let kv = Tensor::randn(&[1, 3, 4], 0.7, 6);
        let kappa = Tensor::rand_uniform(&[1, 2, 4], -1.0, 1.0, 7);
        let _ = attn.forward(&q, &kv, false);
        let (dq, dkv) = attn.backward(&kappa);
        let eps = 1e-2;
        let objective = |attn: &mut MultiHeadAttention, q: &Tensor, kv: &Tensor| -> f32 {
            attn.forward(q, kv, false).dot(&kappa).unwrap()
        };
        let mut qp = q.clone();
        for i in 0..q.len() {
            let orig = qp.as_slice()[i];
            qp.as_mut_slice()[i] = orig + eps;
            let fp = objective(&mut attn, &qp, &kv);
            qp.as_mut_slice()[i] = orig - eps;
            let fm = objective(&mut attn, &qp, &kv);
            qp.as_mut_slice()[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - dq.as_slice()[i]).abs() < 2e-2, "q elem {i}");
        }
        let mut kvp = kv.clone();
        for i in 0..kv.len() {
            let orig = kvp.as_slice()[i];
            kvp.as_mut_slice()[i] = orig + eps;
            let fp = objective(&mut attn, &q, &kvp);
            kvp.as_mut_slice()[i] = orig - eps;
            let fm = objective(&mut attn, &q, &kvp);
            kvp.as_mut_slice()[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - dkv.as_slice()[i]).abs() < 2e-2, "kv elem {i}");
        }
    }

    /// The decoder's path: causal self-attention, one tensor as query and
    /// key/value, so its gradient is the sum of both. Checked against
    /// central differences for the input and every projection weight, dense
    /// and factorized.
    #[test]
    fn causal_self_attention_gradcheck() {
        for rank in [BlockRank::Full, BlockRank::LowRank(2)] {
            let mut attn = MultiHeadAttention::new(4, 2, rank, 16).unwrap();
            let x = Tensor::randn(&[2, 3, 4], 0.7, 17);
            let kappa = Tensor::rand_uniform(&[2, 3, 4], -1.0, 1.0, 18);
            let _ = attn.forward(&x, &x, true);
            let (dq, dkv) = attn.backward(&kappa);
            let mut dx = dq.clone();
            dx.axpy(1.0, &dkv).unwrap();
            let eps = 1e-2;
            let objective = |attn: &mut MultiHeadAttention, x: &Tensor| -> f32 {
                attn.forward(x, x, true).dot(&kappa).unwrap()
            };
            let mut xp = x.clone();
            for i in 0..x.len() {
                let orig = xp.as_slice()[i];
                xp.as_mut_slice()[i] = orig + eps;
                let fp = objective(&mut attn, &xp);
                xp.as_mut_slice()[i] = orig - eps;
                let fm = objective(&mut attn, &xp);
                xp.as_mut_slice()[i] = orig;
                let num = (fp - fm) / (2.0 * eps);
                assert!((num - dx.as_slice()[i]).abs() < 2e-2, "{rank:?} x elem {i}");
            }
            let grads: Vec<Tensor> = attn.params().iter().map(|p| p.grad.clone()).collect();
            for (pi, grad) in grads.iter().enumerate() {
                for i in 0..grad.len() {
                    let nudge = |attn: &mut MultiHeadAttention, v: f32| {
                        attn.params_mut()[pi].value.as_mut_slice()[i] = v;
                    };
                    let orig = attn.params()[pi].value.as_slice()[i];
                    nudge(&mut attn, orig + eps);
                    let fp = objective(&mut attn, &x);
                    nudge(&mut attn, orig - eps);
                    let fm = objective(&mut attn, &x);
                    nudge(&mut attn, orig);
                    let num = (fp - fm) / (2.0 * eps);
                    let name = &attn.params()[pi].name;
                    assert!((num - grad.as_slice()[i]).abs() < 2e-2, "{rank:?} {name} elem {i}");
                }
            }
        }
    }

    #[test]
    fn low_rank_attention_full_rank_equivalence() {
        // An attention block with factors reconstructing the dense weights
        // computes the same function.
        let mut dense = MultiHeadAttention::new(8, 2, BlockRank::Full, 8).unwrap();
        let (wq, wk, wv, wo) = dense.projections();
        let factorize = |w: &Tensor, name: &str| {
            let f = puffer_tensor::svd::truncated_svd(w, 8).unwrap();
            let (u, vt) = f.split_balanced();
            MatOp::from_factors(name, u, vt)
        };
        let mut lr = MultiHeadAttention::new(8, 2, BlockRank::LowRank(4), 9).unwrap();
        lr.set_projections(
            factorize(&wq, "wq"),
            factorize(&wk, "wk"),
            factorize(&wv, "wv"),
            factorize(&wo, "wo"),
        );
        let x = Tensor::randn(&[1, 4, 8], 0.5, 10);
        let yd = dense.forward(&x, &x, false);
        let yl = lr.forward(&x, &x, false);
        assert!(rel_error(&yd, &yl) < 1e-3, "rel err {}", rel_error(&yd, &yl));
    }

    #[test]
    fn ffn_gradcheck() {
        let mut ffn = FeedForward::new(4, BlockRank::Full, 11).unwrap();
        let x = Tensor::randn(&[1, 3, 4], 0.5, 12);
        let kappa = Tensor::rand_uniform(&[1, 3, 4], -1.0, 1.0, 13);
        let _ = ffn.forward(&x);
        let dx = ffn.backward(&kappa);
        let eps = 1e-2;
        let mut xp = x.clone();
        for i in 0..x.len() {
            let orig = xp.as_slice()[i];
            xp.as_mut_slice()[i] = orig + eps;
            let fp = ffn.forward(&xp).dot(&kappa).unwrap();
            xp.as_mut_slice()[i] = orig - eps;
            let fm = ffn.forward(&xp).dot(&kappa).unwrap();
            xp.as_mut_slice()[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - dx.as_slice()[i]).abs() < 2e-2, "elem {i}");
        }
    }

    #[test]
    fn param_counts_match_complexity_formulas() {
        // p = 2 heads, head dim d = 4 → d_model = 8.
        let attn = MultiHeadAttention::new(8, 2, BlockRank::Full, 1).unwrap();
        let count: usize = attn.params().iter().map(|p| p.len()).sum();
        assert_eq!(count as u64, crate::complexity::attention_params(2, 4));
        let attn = MultiHeadAttention::new(8, 2, BlockRank::LowRank(2), 1).unwrap();
        let count: usize = attn.params().iter().map(|p| p.len()).sum();
        // Concatenated factorization: 4 · r · (dm + dm) = 8·r·dm.
        assert_eq!(count, 8 * 2 * 8);

        let ffn = FeedForward::new(8, BlockRank::Full, 1).unwrap();
        let count: usize = ffn.params().iter().map(|p| p.len()).sum();
        assert_eq!(count as u64, crate::complexity::ffn_params(2, 4) + 4 * 8 + 8);
        let ffn = FeedForward::new(8, BlockRank::LowRank(2), 1).unwrap();
        let count: usize = ffn.params().iter().map(|p| p.len()).sum();
        assert_eq!(count as u64, crate::complexity::ffn_low_rank_params(2, 4, 2) + 4 * 8 + 8);
    }

    #[test]
    fn constructors_validate() {
        assert!(MultiHeadAttention::new(7, 2, BlockRank::Full, 1).is_err());
        assert!(MultiHeadAttention::new(8, 0, BlockRank::Full, 1).is_err());
        assert!(MultiHeadAttention::new(8, 2, BlockRank::LowRank(9), 1).is_err());
        assert!(FeedForward::new(0, BlockRank::Full, 1).is_err());
        assert!(FeedForward::new(8, BlockRank::LowRank(0), 1).is_err());
    }

    #[test]
    fn attention_rows_sum_to_one_is_invariant() {
        // Softmax rows of the cached attention matrix sum to 1.
        let mut attn = MultiHeadAttention::new(4, 2, BlockRank::Full, 14).unwrap();
        let x = Tensor::randn(&[2, 3, 4], 1.0, 15);
        let _ = attn.forward(&x, &x, false);
        let cache = attn.cache.as_ref().unwrap();
        for row in cache.attn.as_slice().chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }
}
