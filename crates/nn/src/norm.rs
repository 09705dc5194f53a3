//! Normalization layers: [`BatchNorm2d`] (CNNs) and [`LayerNorm`]
//! (Transformer blocks).
//!
//! Pufferfish does not factorize normalization layers — their parameters are
//! vectors (paper §2.4) — but the warm-start step copies both the affine
//! weights **and the running statistics** from the partially trained vanilla
//! model into the hybrid model (paper §3), which [`BatchNorm2d::state`] and
//! [`BatchNorm2d::load_state`] support.

use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::{NnError, Result};
use puffer_tensor::Tensor;

const BN_EPS: f32 = 1e-5;
const BN_MOMENTUM: f32 = 0.1;

/// Per-channel batch normalization over `[N, C, H, W]`.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    channels: usize,
    affine: bool,
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    shape: Vec<usize>,
}

/// Snapshot of a batch-norm layer's learnable and running state, used by
/// Pufferfish's warm-start surgery.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNormState {
    /// Scale (γ).
    pub gamma: Tensor,
    /// Shift (β).
    pub beta: Tensor,
    /// Running mean (inference statistics).
    pub running_mean: Vec<f32>,
    /// Running variance (inference statistics).
    pub running_var: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates an affine batch-norm layer over `channels` channels.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `channels` is zero.
    pub fn new(channels: usize) -> Result<Self> {
        Self::with_affine(channels, true)
    }

    /// Creates a batch-norm layer, optionally without learnable affine
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `channels` is zero.
    pub fn with_affine(channels: usize, affine: bool) -> Result<Self> {
        if channels == 0 {
            return Err(NnError::BadConfig {
                layer: "BatchNorm2d",
                reason: "zero channels".into(),
            });
        }
        Ok(BatchNorm2d {
            gamma: Param::new_no_decay("bn.weight", Tensor::ones(&[channels])),
            beta: Param::new_no_decay("bn.bias", Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            channels,
            affine,
            cache: None,
        })
    }

    /// Number of normalized channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Snapshot of the layer's state for warm-start surgery.
    pub fn state(&self) -> BatchNormState {
        BatchNormState {
            gamma: self.gamma.value.clone(),
            beta: self.beta.value.clone(),
            running_mean: self.running_mean.clone(),
            running_var: self.running_var.clone(),
        }
    }

    /// Restores a previously captured state.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the state's channel count differs.
    pub fn load_state(&mut self, state: &BatchNormState) -> Result<()> {
        if state.gamma.len() != self.channels {
            return Err(NnError::BadConfig {
                layer: "BatchNorm2d",
                reason: format!(
                    "state has {} channels, layer has {}",
                    state.gamma.len(),
                    self.channels
                ),
            });
        }
        self.gamma.value = state.gamma.clone();
        self.beta.value = state.beta.clone();
        self.running_mean = state.running_mean.clone();
        self.running_var = state.running_var.clone();
        Ok(())
    }

    /// The scale parameters γ (used by the Early-Bird pruning baseline,
    /// which ranks channels by |γ|).
    pub fn gamma(&self) -> &Tensor {
        &self.gamma.value
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.ndim(), 4, "BatchNorm2d expects [N, C, H, W]");
        let s = input.shape().to_vec();
        let (n, c, spatial) = (s[0], s[1], s[2] * s[3]);
        assert_eq!(c, self.channels, "BatchNorm2d channel mismatch");
        let count = (n * spatial) as f32;

        let x = input.as_slice();
        let (mean, var): (Vec<f32>, Vec<f32>) = match mode {
            Mode::Train => {
                let mut mean = vec![0.0f32; c];
                let mut var = vec![0.0f32; c];
                for ci in 0..c {
                    let mut sum = 0.0;
                    for ni in 0..n {
                        sum += x[(ni * c + ci) * spatial..][..spatial].iter().sum::<f32>();
                    }
                    let m = sum / count;
                    let mut sq = 0.0;
                    for ni in 0..n {
                        for &v in &x[(ni * c + ci) * spatial..][..spatial] {
                            let d = v - m;
                            sq += d * d;
                        }
                    }
                    mean[ci] = m;
                    var[ci] = sq / count;
                }
                // Update running statistics (unbiased variance, as PyTorch).
                let unbias = if count > 1.0 { count / (count - 1.0) } else { 1.0 };
                for ci in 0..c {
                    self.running_mean[ci] =
                        (1.0 - BN_MOMENTUM) * self.running_mean[ci] + BN_MOMENTUM * mean[ci];
                    self.running_var[ci] =
                        (1.0 - BN_MOMENTUM) * self.running_var[ci] + BN_MOMENTUM * var[ci] * unbias;
                }
                (mean, var)
            }
            Mode::Eval => (self.running_mean.clone(), self.running_var.clone()),
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + BN_EPS).sqrt()).collect();
        let mut x_hat = Tensor::zeros(&s);
        let mut out = Tensor::zeros(&s);
        let planes = out
            .as_mut_slice()
            .chunks_exact_mut(spatial)
            .zip(x_hat.as_mut_slice().chunks_exact_mut(spatial))
            .zip(x.chunks_exact(spatial));
        for (idx, ((o, xh), xs)) in planes.enumerate() {
            let ci = idx % c;
            let (g, b) = if self.affine {
                (self.gamma.value.as_slice()[ci], self.beta.value.as_slice()[ci])
            } else {
                (1.0, 0.0)
            };
            let (m, is) = (mean[ci], inv_std[ci]);
            for ((o, h), &v) in o.iter_mut().zip(xh).zip(xs) {
                *h = (v - m) * is;
                *o = g * *h + b;
            }
        }
        if mode == Mode::Train {
            self.cache = Some(BnCache { x_hat, inv_std, shape: s });
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward before train-mode forward");
        let s = &cache.shape;
        assert_eq!(grad_output.shape(), &s[..], "BatchNorm2d gradient shape mismatch");
        let (n, c, spatial) = (s[0], s[1], s[2] * s[3]);
        let count = (n * spatial) as f32;

        let mut gin = Tensor::zeros(s);
        let (dy, x_hat, dx) = (grad_output.as_slice(), cache.x_hat.as_slice(), gin.as_mut_slice());
        for ci in 0..c {
            // Channel-wise sums: Σdy, Σdy·x̂.
            let (mut sum_dy, mut sum_dy_xhat) = (0.0f32, 0.0f32);
            for ni in 0..n {
                let base = (ni * c + ci) * spatial;
                for (&g, &xh) in dy[base..][..spatial].iter().zip(&x_hat[base..][..spatial]) {
                    sum_dy += g;
                    sum_dy_xhat += g * xh;
                }
            }
            if self.affine {
                self.gamma.grad.as_mut_slice()[ci] += sum_dy_xhat;
                self.beta.grad.as_mut_slice()[ci] += sum_dy;
            }
            let g = if self.affine { self.gamma.value.as_slice()[ci] } else { 1.0 };
            let k = g * cache.inv_std[ci];
            // `xh * sum_dy_xhat / count` divides a per-element product, so
            // only the first of the two quotients is loop-invariant.
            let mean_dy = sum_dy / count;
            for ni in 0..n {
                let base = (ni * c + ci) * spatial;
                let rows = dy[base..][..spatial].iter().zip(&x_hat[base..][..spatial]);
                for (d, (&g, &xh)) in dx[base..][..spatial].iter_mut().zip(rows) {
                    *d = k * (g - mean_dy - xh * sum_dy_xhat / count);
                }
            }
        }
        gin
    }

    fn params(&self) -> Vec<&Param> {
        if self.affine {
            vec![&self.gamma, &self.beta]
        } else {
            Vec::new()
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        if self.affine {
            vec![&mut self.gamma, &mut self.beta]
        } else {
            Vec::new()
        }
    }

    fn describe(&self) -> String {
        format!("BatchNorm2d({})", self.channels)
    }

    fn buffers(&self) -> Vec<Tensor> {
        vec![
            Tensor::from_vec(self.running_mean.clone(), &[self.channels]).expect("channel count"),
            Tensor::from_vec(self.running_var.clone(), &[self.channels]).expect("channel count"),
        ]
    }

    fn load_buffers(&mut self, buffers: &[Tensor]) {
        assert_eq!(buffers.len(), 2, "BatchNorm2d expects 2 buffers");
        assert_eq!(buffers[0].len(), self.channels, "running-mean length mismatch");
        assert_eq!(buffers[1].len(), self.channels, "running-var length mismatch");
        self.running_mean = buffers[0].as_slice().to_vec();
        self.running_var = buffers[1].as_slice().to_vec();
    }
}

/// Layer normalization over the last dimension of a 2-D or 3-D activation.
#[derive(Debug)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    features: usize,
    eps: f32,
    cache: Option<LnCache>,
}

#[derive(Debug)]
struct LnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Creates a layer-norm over `features` with ε = 1e-6 (the paper's
    /// Transformer setting, appendix Table 16).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `features` is zero.
    pub fn new(features: usize) -> Result<Self> {
        if features == 0 {
            return Err(NnError::BadConfig { layer: "LayerNorm", reason: "zero features".into() });
        }
        Ok(LayerNorm {
            gamma: Param::new_no_decay("ln.weight", Tensor::ones(&[features])),
            beta: Param::new_no_decay("ln.bias", Tensor::zeros(&[features])),
            features,
            eps: 1e-6,
            cache: None,
        })
    }

    /// Number of normalized features.
    pub fn features(&self) -> usize {
        self.features
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let f = self.features;
        assert_eq!(input.shape()[input.ndim() - 1], f, "LayerNorm feature mismatch");
        let rows = input.len() / f;
        let mut x_hat = Tensor::zeros(input.shape());
        let mut out = Tensor::zeros(input.shape());
        let mut inv_std = vec![0.0f32; rows];
        for (r, inv_std_r) in inv_std.iter_mut().enumerate() {
            let row = &input.as_slice()[r * f..(r + 1) * f];
            let mean: f32 = row.iter().sum::<f32>() / f as f32;
            let var: f32 = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / f as f32;
            let is = 1.0 / (var + self.eps).sqrt();
            *inv_std_r = is;
            for (j, &xj) in row.iter().enumerate() {
                let xh = (xj - mean) * is;
                x_hat.as_mut_slice()[r * f + j] = xh;
                out.as_mut_slice()[r * f + j] =
                    self.gamma.value.as_slice()[j] * xh + self.beta.value.as_slice()[j];
            }
        }
        if mode == Mode::Train {
            self.cache = Some(LnCache { x_hat, inv_std });
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward before train-mode forward");
        let f = self.features;
        assert_eq!(grad_output.len(), cache.x_hat.len(), "LayerNorm gradient shape mismatch");
        let rows = grad_output.len() / f;
        let mut gin = Tensor::zeros(grad_output.shape());
        for r in 0..rows {
            let (mut sum_dy, mut sum_dy_xhat) = (0.0f32, 0.0f32);
            for j in 0..f {
                let dy = grad_output.as_slice()[r * f + j] * self.gamma.value.as_slice()[j];
                let xh = cache.x_hat.as_slice()[r * f + j];
                sum_dy += dy;
                sum_dy_xhat += dy * xh;
            }
            for j in 0..f {
                let idx = r * f + j;
                let dy_raw = grad_output.as_slice()[idx];
                let xh = cache.x_hat.as_slice()[idx];
                self.gamma.grad.as_mut_slice()[j] += dy_raw * xh;
                self.beta.grad.as_mut_slice()[j] += dy_raw;
                let dy = dy_raw * self.gamma.value.as_slice()[j];
                gin.as_mut_slice()[idx] =
                    cache.inv_std[r] * (dy - sum_dy / f as f32 - xh * sum_dy_xhat / f as f32);
            }
        }
        gin
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn describe(&self) -> String {
        format!("LayerNorm({})", self.features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::finite_diff_input_check;

    #[test]
    fn bn_train_normalizes_batch() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        let x = Tensor::randn(&[4, 2, 3, 3], 3.0, 1);
        let y = bn.forward(&x, Mode::Train);
        // Per channel, output should have ~zero mean and ~unit variance.
        for ci in 0..2 {
            let mut vals = Vec::new();
            for ni in 0..4 {
                let base = (ni * 2 + ci) * 9;
                vals.extend_from_slice(&y.as_slice()[base..base + 9]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn bn_eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1).unwrap();
        // Run many training batches so running stats converge.
        for seed in 0..50 {
            let x = Tensor::randn(&[8, 1, 2, 2], 2.0, seed);
            let shifted = x.map(|v| v + 5.0);
            let _ = bn.forward(&shifted, Mode::Train);
        }
        let x = Tensor::full(&[1, 1, 2, 2], 5.0);
        let y = bn.forward(&x, Mode::Eval);
        // Input at the running mean should map near zero.
        assert!(y.as_slice().iter().all(|&v| v.abs() < 0.3), "{y:?}");
    }

    #[test]
    fn bn_gradcheck() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        let x = Tensor::randn(&[3, 2, 2, 2], 1.0, 2);
        let dev = finite_diff_input_check(&mut bn, &x, 1e-2);
        assert!(dev < 5e-2, "bn grad deviation {dev}");
    }

    #[test]
    fn bn_state_round_trip() {
        let mut a = BatchNorm2d::new(3).unwrap();
        let x = Tensor::randn(&[2, 3, 2, 2], 1.0, 3);
        let _ = a.forward(&x, Mode::Train);
        let state = a.state();
        let mut b = BatchNorm2d::new(3).unwrap();
        b.load_state(&state).unwrap();
        assert_eq!(b.state(), state);
        let bad = BatchNorm2d::new(4).unwrap().state();
        assert!(b.load_state(&bad).is_err());
    }

    #[test]
    fn bn_without_affine_has_no_params() {
        let bn = BatchNorm2d::with_affine(4, false).unwrap();
        assert_eq!(bn.param_count(), 0);
        let affine = BatchNorm2d::new(4).unwrap();
        assert_eq!(affine.param_count(), 8);
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut ln = LayerNorm::new(8).unwrap();
        let x = Tensor::randn(&[4, 8], 5.0, 4);
        let y = ln.forward(&x, Mode::Train);
        for r in 0..4 {
            let row = &y.as_slice()[r * 8..(r + 1) * 8];
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4);
        }
    }

    #[test]
    fn layernorm_gradcheck() {
        let mut ln = LayerNorm::new(5).unwrap();
        let x = Tensor::randn(&[3, 5], 1.0, 5);
        let dev = finite_diff_input_check(&mut ln, &x, 1e-2);
        assert!(dev < 5e-2, "ln grad deviation {dev}");
    }

    #[test]
    fn constructors_validate() {
        assert!(BatchNorm2d::new(0).is_err());
        assert!(LayerNorm::new(0).is_err());
    }
}
